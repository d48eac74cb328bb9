"""Loopback servers for the HTTP client tests of the backend and providers."""

import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


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

    It counts the connections that were opened and those that have ended.
    With ``close_after_reply`` it closes each connection after one reply
    without a ``Connection: close`` header, as a server does when a
    kept-alive connection has been idle too long. With ``together`` set to
    n, it holds each reply until n requests are waiting for theirs.
    """

    def __init__(self, body: bytes, close_after_reply: bool = False, together: int = 1):
        server = self
        self.lock = threading.Lock()
        self.connections = 0
        self.ended = 0
        self.requests = 0
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

            def finish(self):
                super().finish()
                with server.lock:
                    server.ended += 1

            def _reply(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                with server.lock:
                    server.requests += 1
                barrier.wait(5)
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
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
