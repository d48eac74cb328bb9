"""The transport reads replies as ``http.client`` does.

Each case is a raw reply from a loopback server. ``Transport.request``
must give the same status and body as ``http.client``, or raise the same
error, and hand back the headers the backend reads.
"""

import http.client
from urllib.parse import urlsplit

import pytest

from flowexplain._http import Transport

from .loopback import RawReplyServer

CHUNKED = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
HEADERS = "".join(f"X-{i}: {i}\r\n" for i in range(98)).encode()

REPLIES = {
    "length": b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
    "lower-case-names": b"HTTP/1.1 200 OK\r\ncontent-length:  3\r\n\r\nabc",
    "first-length-wins": b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 3\r\n\r\nabc",
    "http-1.0-to-close": b"HTTP/1.0 200 OK\r\n\r\nall of it",
    "negative-length": b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\nto the end",
    "bad-length": b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\nto the end",
    "no-content": b"HTTP/1.1 204 No Content\r\nContent-Length: 5\r\n\r\n",
    "continue-first": b"HTTP/1.1 100 Continue\r\nX: 1\r\n\r\nHTTP/1.1 201 Created\r\n"
    b"Content-Length: 1\r\n\r\nx",
    "bare-newlines": b"HTTP/1.1 200 OK\nContent-Length: 2\n\nok",
    "chunked": CHUNKED + b"2\r\nok\r\n3;ext=1\r\nabc\r\n0\r\nTrailer: 1\r\n\r\n",
    "chunked-not-last": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n\r\nraw",
    "chunked-over-length": CHUNKED[:-2] + b"Content-Length: 1\r\n\r\n1\r\nx\r\n0\r\n\r\n",
    "chunked-no-trailer-end": CHUNKED + b"1\r\nx\r\n0\r\n",
    "truncated-length": b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
    "truncated-chunk": CHUNKED + b"5\r\nab",
    "truncated-chunk-end": CHUNKED + b"2\r\nok",
    "missing-last-chunk": CHUNKED + b"2\r\nok\r\n",
    "bad-chunk-size": CHUNKED + b"2\r\nok\r\nzz\r\n",
    "long-chunk-size": CHUNKED + b"1" * 70_000 + b"\r\n",
    "empty": b"",
    "blank-status": b"\r\n",
    "not-http": b"HTTX/1.1 200 OK\r\n\r\n",
    "status-not-a-number": b"HTTP/1.1 2OO OK\r\n\r\n",
    "status-too-small": b"HTTP/1.1 99 Low\r\n\r\n",
    "status-only-version": b"HTTP/1.1\r\n\r\n",
    "unknown-version": b"HTTP/2.0 200 OK\r\nContent-Length: 0\r\n\r\n",
    "long-status": b"HTTP/1.1 200 " + b"x" * 70_000 + b"\r\n\r\n",
    "long-header": b"HTTP/1.1 200 OK\r\nX: " + b"x" * 70_000 + b"\r\n\r\n",
    "99-headers": b"HTTP/1.1 200 OK\r\n" + HEADERS + b"Content-Length: 0\r\n\r\n",
    "100-headers": b"HTTP/1.1 200 OK\r\n" + HEADERS + b"X: y\r\nContent-Length: 0\r\n\r\n",
}


def _outcome(call):
    try:
        status, body = call()
    except (OSError, http.client.HTTPException) as exc:
        return repr(exc)
    return status, body


def _http_client(url):
    conn = http.client.HTTPConnection(urlsplit(url).netloc, timeout=5)
    try:
        conn.request("POST", "/v1", b"{}", {"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _transport(url):
    headers = {"Content-Type": "application/json"}
    status, _, body = Transport(5.0).request("POST", url, headers, b"{}")
    return status, body


@pytest.mark.parametrize("reply", REPLIES.values(), ids=REPLIES.keys())
def test_reply_is_read_as_http_client_reads_it(reply):
    with RawReplyServer(reply) as server:
        expected = _outcome(lambda: _http_client(server.url("/v1")))
        assert _outcome(lambda: _transport(server.url("/v1"))) == expected


def test_headers_the_backend_reads_are_returned_by_lower_case_name():
    reply = b"HTTP/1.1 429 Too Many\r\nRetry-After:  7 \r\nX-Other: 1\r\nContent-Length: 0\r\n\r\n"
    with RawReplyServer(reply) as server:
        status, headers, body = Transport(5.0).request("GET", server.url("/"), {})
    assert (status, body) == (429, b"")
    assert headers == {"retry-after": "7 ", "content-length": "0"}


def test_control_characters_in_a_header_are_refused():
    with pytest.raises(ValueError, match="Invalid header"):
        Transport(5.0).request("GET", "http://127.0.0.1:9/", {"Authorization": "a\r\nX: 1"})
