"""The service answers raw requests as the ``http.server`` handler it replaced did.

``tests/service_reference.py`` is the service as it was when a stdlib
``BaseHTTPRequestHandler`` parsed each request. Both services serve the
same configuration (each with its own history store) and get the same raw
bytes, sent over a socket that is then half-closed. Where the reference
sends a status line, the service must send the same status, and for the
service's own JSON replies the same body. Where the reference answers
without a status line (HTTP/0.9 style), the service must send 400 or 505.
"""

import contextlib
import dataclasses
import json
import socket

import pytest

from flowexplain.pipeline import Runtime
from flowexplain.service import MAX_BODY_BYTES, ExplainService

from . import service_reference
from .test_pipeline_cli import make_config
from .test_service import _dataset_row

_HEADERS_98 = "".join(f"X-{i}: {i}\r\n" for i in range(98)).encode()


def _post(body: bytes, head: bytes | None = None, line=b"POST /explain HTTP/1.1") -> bytes:
    if head is None:
        head = b"Content-Length: %d\r\n" % len(body)
    return line + b"\r\n" + head + b"\r\n" + body


def _explain(mode="basic", label="1") -> bytes:
    flow = _dataset_row(label=label)
    return json.dumps({"flow": flow, "mode": mode, "flow_id": "posted"}).encode()


_VALID = _explain()

CASES = {
    "health": b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n",
    "health-double-slash": b"GET //health HTTP/1.1\r\n\r\n",
    "health-query": b"GET /health?x=1 HTTP/1.1\r\n\r\n",
    "unknown-get": b"GET /nope HTTP/1.1\r\n\r\n",
    "unknown-post": _post(b"{}", line=b"POST /nope HTTP/1.1"),
    "explain-1.0": _post(_VALID, line=b"POST /explain HTTP/1.0"),
    "explain-1.1": _post(_VALID),
    "explain-1.2": _post(_VALID, line=b"POST /explain HTTP/1.2"),
    "explain-bare-lf": b"POST /explain HTTP/1.1\nContent-Length: %d\n\n" % len(_VALID) + _VALID,
    "explain-lower-case-length": _post(_VALID, b"content-length: %d\r\n" % len(_VALID)),
    "length-missing": _post(_VALID, b"Host: x\r\n"),
    "length-not-a-number": _post(b"[]", b"Content-Length: two\r\n"),
    "length-plus": _post(b"[]", b"Content-Length: +2\r\n"),
    "length-padded": _post(b"{}", b"Content-Length: \t 2  \r\n"),
    "length-nbsp-padded": _post(b"[]", b"Content-Length: \xa02\r\n"),
    "length-negative": _post(b"[]", b"Content-Length: -2\r\n"),
    "length-repeated": _post(b"[]{}", b"Content-Length: 2\r\nContent-Length: 4\r\n"),
    "length-space-before-colon": _post(b"[]", b"Content-Length : 2\r\n"),
    "length-over-cap": _post(b"{}", b"Content-Length: %d\r\n" % (MAX_BODY_BYTES + 1)),
    "bad-json": _post(b"{bad"),
    "json-array": _post(b"[1, 2]"),
    "bad-mode": _post(_explain(mode="verbose")),
    "benign-flow": _post(_explain(label="0")),
    "invalid-flow": _post(json.dumps({"flow": {"IN_BYTES": "x"}}).encode()),
    "99-headers": b"GET /health HTTP/1.1\r\n" + _HEADERS_98 + b"X: y\r\n\r\n",
    "100-headers": b"GET /health HTTP/1.1\r\n" + _HEADERS_98 + b"X: y\r\nZ: z\r\n\r\n",
    "long-header-line": b"GET /health HTTP/1.1\r\nX: " + b"x" * 70_000 + b"\r\n\r\n",
    "long-request-line": b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n",
    "put": _post(b"{}", line=b"PUT /explain HTTP/1.1"),
    "head": b"HEAD /health HTTP/1.1\r\n\r\n",
    "lower-case-get": b"get /health HTTP/1.1\r\n\r\n",
    # obs-fold (RFC 9112 section 5.2): http.server unfolds it, the service does not
    "length-folded": _post(b"[]", b"Content-Length:\r\n 2\r\n"),
    # the reference answers these HTTP/0.9 style, without a status line
    "garbage": b"garbage\r\n\r\n",
    "two-words": b"GET /health\r\n\r\n",
    "blank-line": b"\r\n",
    "not-http": b"GET /health HTTPX/1.1\r\n\r\n",
    "three-part-version": b"GET /health HTTP/1.1.1\r\n\r\n",
    "http-0.9": b"GET /health HTTP/0.9\r\n\r\n",
    "http-2.0": b"GET /health HTTP/2.0\r\n\r\n",
    "http-3.0": b"GET /health HTTP/3.0\r\n\r\n",
}

WITHOUT_REFERENCE_STATUS = {
    "garbage": 400,
    "two-words": 400,
    "blank-line": 400,
    "not-http": 400,
    "three-part-version": 400,
    "http-0.9": 505,
    "http-2.0": 505,
    "http-3.0": 505,
}


@dataclasses.dataclass
class Reply:
    status: int | None
    headers: dict
    body: bytes


def _exchange(address, request: bytes) -> Reply:
    """Send ``request``, half-close, and read the reply up to the server's close."""
    chunks = []
    with socket.create_connection(address, timeout=10) as sock:
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            sock.sendall(request)
            sock.shutdown(socket.SHUT_WR)
        with contextlib.suppress(ConnectionResetError):
            while chunk := sock.recv(65536):
                chunks.append(chunk)
    raw = b"".join(chunks)
    if not raw.startswith(b"HTTP/"):
        return Reply(None, {}, raw)
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    return Reply(int(status_line.split()[1]), headers, body)


def _comparable(reply: Reply):
    payload = json.loads(reply.body)
    for varies in ("timestamps", "latency_ms"):  # of an explanation record
        payload.pop(varies, None)
    return payload


@pytest.fixture(scope="module")
def services(tmp_path_factory):
    config = make_config(tmp_path_factory.mktemp("service-parse"))
    with contextlib.ExitStack() as stack:
        pair = []
        for cls in (ExplainService, service_reference.ExplainService):
            store = config.store.with_name(f"{cls.__module__}.db")
            runtime = Runtime(dataclasses.replace(config, store=store))
            stack.callback(runtime.close)
            service = cls(runtime)
            service.start()
            stack.callback(service.stop)
            pair.append(service)
        yield pair


@pytest.mark.parametrize("name", CASES)
def test_request_is_answered_as_by_the_stdlib_handler(services, name):
    service, reference = services
    expected = _exchange(reference.address, CASES[name])
    reply = _exchange(service.address, CASES[name])
    assert reply.status is not None, reply.body[:200]
    assert reply.headers["Content-Type"] == "application/json"
    assert int(reply.headers["Content-Length"]) == len(reply.body)
    assert "Date" in reply.headers
    if name in WITHOUT_REFERENCE_STATUS:
        assert expected.status is None
        assert reply.status == WITHOUT_REFERENCE_STATUS[name]
    elif name == "length-folded":
        assert expected.status == reply.status == 400
        assert "Content-Length" in json.loads(reply.body)["error"]
    else:
        assert reply.status == expected.status
        if expected.headers["Content-Type"] == "application/json":
            assert _comparable(reply) == _comparable(expected)
