"""Loopback servers for the HTTP client tests of the backend and providers."""

from __future__ import annotations

import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Container, Sequence


def refused_port() -> int:
    """A loopback port that nothing listens on (it was free a moment ago)."""
    with socket.create_server(("127.0.0.1", 0)) as sock:
        return sock.getsockname()[1]


class SilentServer:
    """Listens, so connections open, but never reads or answers."""

    def __init__(self):
        self.sock = socket.create_server(("127.0.0.1", 0))

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.sock.getsockname()[1]}{path}"

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.sock.close()


class KeepAliveServer:
    """HTTP/1.1 server that answers every request with ``body``.

    ``body`` is bytes, or a function from the request body to the reply's.
    It counts the connections that were opened and those that have ended,
    and keeps the request bodies in order of arrival. With
    ``close_after_reply`` it closes each connection after one reply
    without a ``Connection: close`` header, as a server does when a
    kept-alive connection has been idle too long. With ``together`` set to
    n, it holds each reply until n requests are waiting for theirs; with
    ``opened`` set to n, until n connections have been opened. Request
    number i (from 0) waits ``delays[i % len(delays)]`` seconds before its
    reply, so that answers come back out of order, and a number in
    ``fail`` is answered with a 503.
    """

    def __init__(
        self,
        body: bytes | Callable[[bytes], bytes],
        close_after_reply: bool = False,
        together: int = 1,
        opened: int = 0,
        delays: Sequence[float] = (),
        fail: Container[int] = (),
    ):
        server = self
        self.lock = threading.Condition()
        self.connections = 0
        self.ended = 0
        self.requests = 0
        self.received: list[bytes] = []
        barrier = threading.Barrier(together)

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def log_message(self, *args):
                pass

            def setup(self):
                super().setup()
                with server.lock:
                    server.connections += 1
                    server.lock.notify_all()

            def finish(self):
                super().finish()
                with server.lock:
                    server.ended += 1

            def _reply(self):
                request = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                with server.lock:
                    number = server.requests
                    server.requests += 1
                    server.received.append(request)
                barrier.wait(5)
                with server.lock:
                    server.lock.wait_for(lambda: server.connections >= opened, 5)
                if delays:
                    time.sleep(delays[number % len(delays)])
                if number in fail:
                    status, reply = 503, b"{}"
                else:
                    status, reply = 200, body(request) if callable(body) else body
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)
                self.close_connection = close_after_reply

            do_GET = do_POST = _reply

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.httpd.daemon_threads = True  # kept-alive handlers never end on their own

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.httpd.server_address[1]}{path}"

    def __enter__(self):
        threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        ).start()
        return self

    def __exit__(self, *exc):
        self.httpd.shutdown()
        self.httpd.server_close()


class RawReplyServer:
    """Answers each connection's first request with ``reply`` as raw bytes, then closes it."""

    def __init__(self, reply: bytes):
        self.reply = reply
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(5)
        self.thread = threading.Thread(target=self._serve, daemon=True)

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.sock.getsockname()[1]}{path}"

    def _serve(self):
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:  # closed, or no client came
                return
            with conn, conn.makefile("rb") as reader:
                length = 0
                while (line := reader.readline()) not in (b"\r\n", b""):
                    name, _, value = line.partition(b":")
                    if name.lower() == b"content-length":
                        length = int(value)
                reader.read(length)
                conn.sendall(self.reply)

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.sock.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        self.sock.close()
        self.thread.join(5)
