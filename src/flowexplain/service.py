"""Explain-on-demand HTTP endpoint.

A small synchronous service wrapping the same runtime the CLI uses: POST a
dataset-shaped flow record plus a prompt mode, get the explanation record
back. Intended as the integration surface for an upstream detector that
pushes flagged flows.
"""

from __future__ import annotations

import contextlib
import json
import re
import socket
import threading
import traceback
from email.utils import formatdate
from http import HTTPStatus
from http.client import HTTPException, LineTooLong
from typing import BinaryIO, Mapping

from ._http import _read_head, _read_line
from .flows import clip
from .gateway import BackendError
from .pipeline import FieldValidationError, PipelineError, Runtime
from .prompts import BudgetInfeasibleError

#: Largest ``POST`` body the service reads; a longer one gets 413.
MAX_BODY_BYTES = 1 << 20
#: Seconds a serving thread waits on one read or write of its client before it
#: drops the connection, so a silent or stalled client frees its thread.
REQUEST_TIMEOUT_S = 30.0
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.[0-9]{1,10}")  # RFC 9112 section 2.3


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

    def _handle_explain(self, body: dict) -> tuple:
        flow = body.get("flow")
        mode = body.get("mode", "augmented")
        if not isinstance(flow, dict):
            return 400, {"error": "body must carry a 'flow' object"}
        if mode not in ("basic", "augmented"):
            return 400, {"error": f"mode must be basic or augmented, got {clip(repr(mode))}"}
        explanation_id = self._next_id()
        flow_id = str(body.get("flow_id") or explanation_id)
        try:
            record = self.runtime.record_from_row(flow, flow_id=flow_id)
        except FieldValidationError as exc:
            return 400, {"error": "invalid flow", "fields": exc.errors}
        if record.label != "malicious":
            return 422, {"error": "only malicious flows are explained"}
        try:
            result = self.runtime.explain_record(record, mode, explanation_id, append_history=True)
        except BudgetInfeasibleError as exc:
            return 422, {"error": str(exc)}
        except BackendError as exc:
            return 503, {"error": f"backend exhausted: {exc}"}, {"Retry-After": "1"}
        except PipelineError as exc:
            return 422, {"error": str(exc)}
        except Exception:  # e.g. a StoreError from the history append: still answer
            traceback.print_exc()
            return 500, {"error": "internal error", "explanation_id": explanation_id}
        return 200, result

    def start(self) -> None:
        # each thread is recorded once it runs, so that stop() after a start()
        # cut short (a Ctrl-C while threads start) joins only started threads
        for i in range(self.runtime.config.max_in_flight + 1):
            thread = threading.Thread(target=self._serve, name=f"flowexplain-serve-{i}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)

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
                conn, _ = self._sock.accept()
            except OSError:  # e.g. ConnectionAbortedError or EMFILE: only stop() ends the loop
                if self._stopping:
                    return
                continue
            try:
                conn.settimeout(REQUEST_TIMEOUT_S)
                with conn.makefile("rb") as reader:
                    if reply := self._answer(reader):
                        conn.sendall(_reply(*reply))
            except TimeoutError:  # a silent or stalled client is dropped without a reply
                pass
            except Exception:
                traceback.print_exc()
            finally:
                with contextlib.suppress(OSError):
                    conn.shutdown(socket.SHUT_WR)
                conn.close()

    def _answer(self, reader: BinaryIO) -> tuple | None:
        """``(status, payload[, headers])``, or None for a client that sent nothing."""
        try:
            line = _read_line(reader, "request line")
        except LineTooLong:
            return 414, {"error": "request line too long"}
        if not line:
            return None
        words = str(line, "iso-8859-1").split()
        version = _VERSION.fullmatch(words[2]) if len(words) == 3 else None
        if version is None:
            return 400, {"error": "malformed request line"}
        if int(version[1]) != 1:
            return 505, {"error": "only HTTP/1.x is supported"}
        method, path = words[:2]
        try:
            head = _read_head(reader)
        except HTTPException:
            return 431, {"error": "request header fields too large"}
        if path.startswith("//"):  # "//x" would read as host x (RFC 3986 section 4.2)
            path = "/" + path.lstrip("/")
        if method not in ("GET", "POST"):
            return 501, {"error": "only GET and POST are supported"}
        if (method, path) == ("GET", "/health"):
            return 200, {"status": "ok"}
        if (method, path) != ("POST", "/explain"):
            return 404, {"error": "unknown path"}
        # checked before reading: read(-1) would wait for EOF, a huge length read it all
        try:
            length = int(str(head.get(b"content-length", b"0"), "iso-8859-1"))
        except ValueError:
            length = -1
        if length < 0:
            return 400, {"error": "Content-Length must be a non-negative integer"}
        if length > MAX_BODY_BYTES:
            return 413, {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"}
        try:
            body = json.loads(reader.read(length) or b"{}")
        except (ValueError, RecursionError):  # RecursionError: nesting too deep
            return 400, {"error": "request body is not valid JSON"}
        if not isinstance(body, dict):
            return 400, {"error": "request body must be a JSON object"}
        return self._handle_explain(body)


def _reply(status: int, payload: dict, headers: Mapping[str, str] = {}) -> bytes:
    """The whole HTTP/1.0 reply: status line, headers and the JSON body."""
    body = json.dumps(payload).encode("utf-8")
    lines = [
        f"HTTP/1.0 {status} {HTTPStatus(status).phrase}",
        f"Date: {formatdate(usegmt=True)}",
        "Content-Type: application/json",
        *(f"{name}: {value}" for name, value in headers.items()),
        f"Content-Length: {len(body)}",
    ]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
