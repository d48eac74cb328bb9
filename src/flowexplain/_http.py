"""Keep-alive HTTP client for the LLM backend and the knowledge providers.

Standard library only. A :class:`Transport` keeps its idle persistent
``http.client`` connections per (scheme, host, port). A request takes one,
or opens one when none is idle, and puts it back once the whole response
has been read, so a connection serves one thread at a time and a transport
holds as many as it had requests in flight at once. Proxy variables,
``.netrc`` and redirects are not handled; a 3xx reply reaches the caller
like any other status. HTTPS verifies the server with the system's default
TLS context.
"""

from __future__ import annotations

import functools
import http.client
import ssl
import threading
from typing import Mapping
from urllib.parse import urlsplit

# How a kept-alive socket that the server has since closed fails on the next
# send or status line; no byte of a response has been read at that point.
_STALE = (http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError)


@functools.cache
def _tls_context() -> ssl.SSLContext:
    return ssl.create_default_context()


class Transport:
    """Sends requests over kept-alive connections, one request per connection at a time.

    Errors are the standard library's: ``TimeoutError`` when the socket
    times out, another ``OSError`` or an ``http.client.HTTPException`` for
    any other failure. A connection that failed is closed and dropped.
    """

    def __init__(self, timeout_s: float):
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._idle: dict[tuple, list[http.client.HTTPConnection]] = {}

    def request(
        self, method: str, url: str, headers: Mapping[str, str], body: bytes | None = None
    ) -> tuple[int, http.client.HTTPMessage, bytes]:
        """Send one request and read its whole response: status, headers, body."""
        parts = urlsplit(url)
        try:
            origin = (parts.scheme, parts.hostname, parts.port)
        except ValueError as exc:  # a port that is not a number in range
            raise http.client.InvalidURL(f"{url!r}: {exc}") from None
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise http.client.InvalidURL(f"not an http(s) URL: {url!r}")
        target = parts.path or "/"
        if parts.query:
            target += "?" + parts.query
        with self._lock:
            idle = self._idle.get(origin)
            conn = idle.pop() if idle else self._connect(*origin)
        while True:
            fresh = conn.sock is None
            try:
                conn.request(method, target, body, headers)
                response = conn.getresponse()
                break
            except _STALE:
                conn.close()
                if fresh:
                    raise
            except BaseException:
                conn.close()
                raise
        try:
            reply = response.status, response.headers, response.read()
        except BaseException:
            conn.close()
            raise
        with self._lock:
            self._idle.setdefault(origin, []).append(conn)
        return reply

    def _connect(self, scheme: str, host: str, port: int | None) -> http.client.HTTPConnection:
        if scheme == "https":
            return http.client.HTTPSConnection(
                host, port, timeout=self.timeout_s, context=_tls_context()
            )
        return http.client.HTTPConnection(host, port, timeout=self.timeout_s)

    def __del__(self) -> None:
        for idle in self._idle.values():
            for conn in idle:
                conn.close()
