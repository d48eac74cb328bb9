"""Explain-on-demand HTTP endpoint.

A small synchronous service wrapping the same runtime the CLI uses: POST a
dataset-shaped flow record plus a prompt mode, get the explanation record
back. Intended as the integration surface for an upstream detector that
pushes flagged flows.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import traceback
from http.server import BaseHTTPRequestHandler
from typing import Mapping

from flowexplain.flows import clip
from flowexplain.gateway import BackendError
from flowexplain.pipeline import FieldValidationError, PipelineError, Runtime
from flowexplain.prompts import BudgetInfeasibleError

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
    see them as connection history. ``start()`` starts ``max_in_flight + 1``
    threads that each accept and serve their own connections, so every
    backend slot can be busy while one thread still answers ``/health`` and
    error replies; further connections wait in the listen backlog.
    """

    def __init__(self, runtime: Runtime, host: str = "127.0.0.1", port: int = 0):
        self.runtime = runtime
        self._counter = 0
        self._counter_lock = threading.Lock()
        self._sock = socket.create_server((host, port))  # sets SO_REUSEADDR, as HTTPServer did
        self._threads: list[threading.Thread] = []
        self._stopping = False

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

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
        self._threads = [
            threading.Thread(target=self._serve, name=f"flowexplain-serve-{i}", daemon=True)
            for i in range(self.runtime.config.max_in_flight + 1)
        ]
        for thread in self._threads:
            thread.start()

    def serve_forever(self) -> None:
        self.start()
        for thread in self._threads:
            thread.join()

    def stop(self) -> None:
        """Wake the threads blocked in ``accept()``, let each finish its connection, join them."""
        self._stopping = True
        with contextlib.suppress(OSError):  # stopped before
            self._sock.shutdown(socket.SHUT_RDWR)
        for thread in self._threads:
            thread.join()
        self._sock.close()  # after the join: no thread may accept() on a reused descriptor

    def _serve(self) -> None:
        while True:
            try:
                conn, client = self._sock.accept()
            except OSError:  # e.g. ConnectionAbortedError or EMFILE: only stop() ends the loop
                if self._stopping:
                    return
                continue
            try:
                conn.settimeout(REQUEST_TIMEOUT_S)
                _Handler(conn, client, self)
            except Exception:
                traceback.print_exc()
            finally:
                with contextlib.suppress(OSError):
                    conn.shutdown(socket.SHUT_WR)
                conn.close()


class _Handler(BaseHTTPRequestHandler):
    """Answers one request; ``self.server`` is the :class:`ExplainService`."""

    server: ExplainService

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
        except (ValueError, RecursionError):  # RecursionError: nesting too deep
            _send(self, 400, {"error": "request body is not valid JSON"})
            return
        if not isinstance(body, dict):
            _send(self, 400, {"error": "request body must be a JSON object"})
            return
        self.server._handle_explain(self, body)


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
