"""Explain-on-demand HTTP endpoint.

A small synchronous service wrapping the same runtime the CLI uses: POST a
dataset-shaped flow record plus a prompt mode, get the explanation record
back. Intended as the integration surface for an upstream detector that
pushes flagged flows.
"""

from __future__ import annotations

import json
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Mapping

from .flows import clip
from .gateway import BackendError
from .pipeline import FieldValidationError, PipelineError, Runtime
from .prompts import BudgetInfeasibleError

#: Largest ``POST`` body the service reads; a longer one gets 413.
MAX_BODY_BYTES = 1 << 20
#: Seconds a handler waits on one read or write of its client before it
#: drops the connection, so a silent or stalled client frees its thread.
REQUEST_TIMEOUT_S = 30.0


class ExplainService:
    """HTTP front end over a :class:`~flowexplain.pipeline.Runtime`.

    Routes: ``GET /health`` and ``POST /explain`` with a JSON body
    ``{"flow": {column: value, ...}, "mode": "basic"|"augmented"}``.
    Explained flows are appended to the history store so later requests
    see them as connection history. Connections are served by a pool of
    ``max_in_flight + 1`` reused threads, so every backend slot can be busy
    while one thread still answers ``/health`` and error replies.
    """

    def __init__(self, runtime: Runtime, host: str = "127.0.0.1", port: int = 0):
        self.runtime = runtime
        self._counter = 0
        self._counter_lock = threading.Lock()
        service = self

        class Handler(BaseHTTPRequestHandler):
            timeout = REQUEST_TIMEOUT_S

            def log_message(self, fmt, *args):  # quiet; the CLI reports the bind address
                pass

            def do_GET(self) -> None:
                if self.path == "/health":
                    _send(self, 200, {"status": "ok"})
                else:
                    _send(self, 404, {"error": "unknown path"})

            def do_POST(self) -> None:
                if self.path != "/explain":
                    _send(self, 404, {"error": "unknown path"})
                    return
                # checked before reading: rfile.read(-1) would wait for the
                # client to close, and a huge length would be read in full
                try:
                    length = int(self.headers.get("Content-Length", "0"))
                except ValueError:
                    length = -1
                if length < 0:
                    _send(self, 400, {"error": "Content-Length must be a non-negative integer"})
                    return
                if length > MAX_BODY_BYTES:
                    _send(self, 413, {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"})
                    return
                try:
                    body = json.loads(self.rfile.read(length) or b"{}")
                except ValueError:  # JSONDecodeError and UnicodeDecodeError among them
                    _send(self, 400, {"error": "request body is not valid JSON"})
                    return
                if not isinstance(body, dict):
                    _send(self, 400, {"error": "request body must be a JSON object"})
                    return
                service._handle_explain(self, body)

        self._server = _PooledHTTPServer((host, port), Handler, runtime.config.max_in_flight + 1)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def _next_id(self) -> str:
        with self._counter_lock:
            self._counter += 1
            return f"service-{self._counter:06d}"

    def _handle_explain(self, handler: BaseHTTPRequestHandler, body: dict) -> None:
        flow = body.get("flow")
        mode = body.get("mode", "augmented")
        if not isinstance(flow, dict):
            _send(handler, 400, {"error": "body must carry a 'flow' object"})
            return
        if mode not in ("basic", "augmented"):
            error = f"mode must be basic or augmented, got {clip(repr(mode))}"
            _send(handler, 400, {"error": error})
            return
        explanation_id = self._next_id()
        flow_id = str(body.get("flow_id") or explanation_id)
        try:
            record = self.runtime.record_from_row(flow, flow_id=flow_id)
        except FieldValidationError as exc:
            _send(handler, 400, {"error": "invalid flow", "fields": exc.errors})
            return
        if record.label != "malicious":
            _send(handler, 422, {"error": "only malicious flows are explained"})
            return
        try:
            result = self.runtime.explain_record(
                record, mode, explanation_id, append_history=True
            )
        except BudgetInfeasibleError as exc:
            _send(handler, 422, {"error": str(exc)})
            return
        except BackendError as exc:
            _send(handler, 503, {"error": f"backend exhausted: {exc}"}, {"Retry-After": "1"})
            return
        except PipelineError as exc:
            _send(handler, 422, {"error": str(exc)})
            return
        except Exception:  # e.g. a StoreError from the history append: still answer
            traceback.print_exc()
            _send(handler, 500, {"error": "internal error", "explanation_id": explanation_id})
            return
        _send(handler, 200, result)

    def start(self) -> None:
        # a short poll, so that stop() returns promptly
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    def serve_forever(self) -> None:
        self._server.serve_forever()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)


class _PooledHTTPServer(HTTPServer):
    """An ``HTTPServer`` that serves each connection on one of ``threads`` reused threads.

    An accepted connection waits for a free thread before it is handed
    over, and meanwhile later connections wait in the listen backlog rather
    than in an unbounded queue. Threads start as connections first need them.
    """

    def __init__(self, address, handler, threads: int):
        super().__init__(address, handler)
        self._free = threading.BoundedSemaphore(threads)
        self._pool = ThreadPoolExecutor(threads, thread_name_prefix="flowexplain-serve")

    def process_request(self, request, client_address) -> None:
        self._free.acquire()
        self._pool.submit(self._serve, request, client_address)

    def _serve(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            self.shutdown_request(request)
            self._free.release()

    def server_close(self) -> None:
        """Stop listening, then wait for the connections already handed to the pool."""
        super().server_close()
        self._pool.shutdown(wait=True)


def _send(
    handler: BaseHTTPRequestHandler,
    status: int,
    payload: dict,
    headers: Mapping[str, str] | None = None,
) -> None:
    body = json.dumps(payload).encode("utf-8")
    handler.send_response(status)
    handler.send_header("Content-Type", "application/json")
    for name, value in (headers or {}).items():
        handler.send_header(name, value)
    handler.send_header("Content-Length", str(len(body)))
    handler.end_headers()
    handler.wfile.write(body)
