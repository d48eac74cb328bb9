"""Keep-alive HTTP/1.1 client for the LLM backend and the knowledge providers.

Standard library only. A :class:`Transport` keeps its idle persistent
connections per (scheme, host, port). A request takes one, or opens one
when none is idle, and puts it back once the whole response has been read,
so a connection serves one thread at a time and a transport holds as many
as it had requests in flight at once. A request goes out in one
``sendall``: request line, headers and body together.

The reply reader parses the status line and only the headers the client
acts on: ``Content-Length``, ``Transfer-Encoding``, ``Connection`` and
``Retry-After``. It follows ``http.client`` in what it accepts and in the
errors it raises: ``RemoteDisconnected`` for a connection closed before a
status line, ``BadStatusLine`` or ``UnknownProtocol`` for a malformed one,
``LineTooLong`` and "got more than 100 headers" for an oversized head, and
``IncompleteRead`` for a body cut short or a malformed chunk size. A body
with neither a length nor chunked encoding runs to the end of the
connection. Proxy variables, ``.netrc`` and redirects are not handled; a
3xx reply reaches the caller like any other status. HTTPS verifies the
server with the system's default TLS context. The same line and head
readers parse the request heads of ``flowexplain.service``.
"""

from __future__ import annotations

import functools
import re
import socket
import ssl
import threading
from http.client import (
    BadStatusLine,
    HTTPException,
    IncompleteRead,
    InvalidURL,
    LineTooLong,
    RemoteDisconnected,
    UnknownProtocol,
)
from typing import BinaryIO, Mapping
from urllib.parse import urlsplit

# How a kept-alive socket that the server has since closed fails on the next
# send or status line; no byte of a response has been read at that point.
_STALE = (RemoteDisconnected, BrokenPipeError, ConnectionResetError)

_MAX_LINE = 65536  # longest request, status, header or chunk-size line, as http.client
_MAX_HEADERS = 100
_READ_HEADERS = frozenset({b"content-length", b"transfer-encoding", b"connection", b"retry-after"})
_END_OF_HEAD = (b"\r\n", b"\n", b"")
_NOT_IN_TARGET = re.compile("[\x00-\x20\x7f]")
_NOT_IN_HEADER = re.compile(r"[\r\n\x00]")


@functools.cache
def _tls_context() -> ssl.SSLContext:
    return ssl.create_default_context()


class _Connection:
    """One open socket and the buffered reader of its replies."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.reader = sock.makefile("rb")

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Transport:
    """Sends requests over kept-alive connections, one request per connection at a time.

    Errors are those of ``http.client``: ``TimeoutError`` when the socket
    times out, another ``OSError`` or an ``http.client.HTTPException`` for
    any other failure. A connection that failed is closed and dropped.
    """

    def __init__(self, timeout_s: float):
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._idle: dict[tuple, list[_Connection]] = {}

    def request(
        self, method: str, url: str, headers: Mapping[str, str], body: bytes | None = None
    ) -> tuple[int, dict[str, str], bytes]:
        """Send one request and read its whole response.

        Returns the status, the headers read (lower-case names) and the body.
        """
        parts = urlsplit(url)
        try:
            origin = (parts.scheme, parts.hostname, parts.port)
        except ValueError as exc:  # a port that is not a number in range
            raise InvalidURL(f"{url!r}: {exc}") from None
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise InvalidURL(f"not an http(s) URL: {url!r}")
        message = _request_bytes(method, parts, headers, body)
        with self._lock:
            idle = self._idle.get(origin)
            conn = idle.pop() if idle else None
        while True:
            fresh = conn is None
            if fresh:
                conn = self._connect(*origin)
            try:
                conn.sock.sendall(message)
                status, reply_headers, reply, keep = _read_reply(conn.reader, method)
                break
            except _STALE:
                conn.close()
                conn = None
                if fresh:
                    raise
            except BaseException:
                conn.close()
                raise
        if keep:
            with self._lock:
                self._idle.setdefault(origin, []).append(conn)
        else:
            conn.close()
        return status, reply_headers, reply

    def _connect(self, scheme: str, host: str, port: int | None) -> _Connection:
        if port is None:
            port = 443 if scheme == "https" else 80
        sock = socket.create_connection((host, port), self.timeout_s)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if scheme == "https":
                sock = _tls_context().wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise
        return _Connection(sock)

    def __del__(self) -> None:
        for idle in self._idle.values():
            for conn in idle:
                conn.close()


def _request_bytes(method: str, parts, headers: Mapping[str, str], body: bytes | None) -> bytes:
    """The whole request: the line and headers ``http.client`` would send, then the body."""
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    if _NOT_IN_TARGET.search(target):
        raise InvalidURL(f"URL can't contain control characters. {target!r}")
    host = parts.hostname if ":" not in parts.hostname else f"[{parts.hostname}]"
    default_port = 443 if parts.scheme == "https" else 80
    if parts.port is not None and parts.port != default_port:
        host = f"{host}:{parts.port}"
    lines = [f"{method} {target} HTTP/1.1", f"Host: {host}", "Accept-Encoding: identity"]
    if body is not None or method in ("POST", "PUT", "PATCH"):
        lines.append(f"Content-Length: {len(body or b'')}")
    for name, value in headers.items():
        if _NOT_IN_HEADER.search(name) or _NOT_IN_HEADER.search(value):
            raise ValueError(f"Invalid header {name!r}")
        lines.append(f"{name}: {value}")
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + (body or b"")


def _read_line(reader: BinaryIO, what: str) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise LineTooLong(what)
    return line


def _read_status(reader: BinaryIO) -> tuple[int, int]:
    """(HTTP version as 10 or 11, status) of the next non-100 status line."""
    while True:
        line = str(_read_line(reader, "status line"), "iso-8859-1")
        if not line:
            raise RemoteDisconnected("Remote end closed connection without response")
        fields = line.split(None, 2)
        version = fields[0] if len(fields) > 1 else ""
        if not version.startswith("HTTP/"):
            raise BadStatusLine(line)
        try:
            status = int(fields[1])
        except ValueError:
            raise BadStatusLine(line) from None
        if not 100 <= status <= 999:
            raise BadStatusLine(line)
        if status != 100:
            break
        _read_head(reader)  # the headers of the interim 100 reply
    if version in ("HTTP/1.0", "HTTP/0.9"):
        return 10, status
    if version.startswith("HTTP/1."):
        return 11, status
    raise UnknownProtocol(version)


def _read_head(reader: BinaryIO) -> dict[bytes, bytes]:
    """The headers the transport reads, by lower-case name; the first of repeats wins."""
    head: dict[bytes, bytes] = {}
    for _ in range(_MAX_HEADERS):
        line = _read_line(reader, "header line")
        if line in _END_OF_HEAD:
            return head
        name, colon, value = line.partition(b":")
        name = name.lower()
        if colon and name in _READ_HEADERS and name not in head:
            head[name] = value.lstrip(b" \t").rstrip(b"\r\n")
    _read_line(reader, "header line")
    raise HTTPException(f"got more than {_MAX_HEADERS} headers")


def _read_reply(reader: BinaryIO, method: str) -> tuple[int, dict[str, str], bytes, bool]:
    """Status, headers, body, and whether the connection can serve another request."""
    version, status = _read_status(reader)
    head = _read_head(reader)
    connection = head.get(b"connection", b"").lower()
    keep = b"close" not in connection if version == 11 else b"keep-alive" in connection
    chunked = head.get(b"transfer-encoding", b"").lower() == b"chunked"
    try:
        length = None if chunked else int(head.get(b"content-length", b""))
    except ValueError:
        length = None
    if status in (204, 304) or status < 200 or method == "HEAD":
        body = b""
    elif chunked:
        body = _read_chunked(reader)
    elif length is None or length < 0:
        body, keep = reader.read(), False
    else:
        body = _read_exactly(reader, length)
    headers = {name.decode("latin-1"): value.decode("latin-1") for name, value in head.items()}
    return status, headers, body, keep


def _read_exactly(reader: BinaryIO, size: int) -> bytes:
    data = reader.read(size)
    if len(data) < size:
        raise IncompleteRead(data, size - len(data))
    return data


def _read_chunked(reader: BinaryIO) -> bytes:
    chunks = []
    try:
        while True:
            line = _read_line(reader, "chunk size")
            try:
                size = int(line.partition(b";")[0], 16)
            except ValueError:
                raise IncompleteRead(b"") from None
            if size == 0:
                break
            chunks.append(_read_exactly(reader, size))
            _read_exactly(reader, 2)  # the CRLF that ends the chunk
    except IncompleteRead as exc:
        raise IncompleteRead(b"".join(chunks)) from exc
    while _read_line(reader, "trailer line") not in _END_OF_HEAD:
        pass
    return b"".join(chunks)
