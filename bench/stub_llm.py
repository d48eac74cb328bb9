"""Stub chat-completion server standing in for an LLM on loopback.

The answer is a deterministic function of the flow block in the prompt:
about a kilobyte of prose that quotes feature values, converts the flow
duration, names a service port and decodes the TCP flags, with some of
those claims deliberately wrong. :func:`compose` also returns the finding
kinds the consistency checkers must raise, so the benchmark can verify the
checkers' output per flow.

Run as ``python3 bench/stub_llm.py``: it prints ``port <n>`` once it
listens and serves until interrupted (SIGINT). ``GET /stats`` reports how many
requests and connections it has seen.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import threading
from decimal import Decimal
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

FLOW_HEADER = "NetFlow record under review:\n"
FLAGS = ("FIN", "SYN", "RST", "PSH", "ACK", "URG", "ECE", "CWR")
SERVICES = {"SSH": 22, "HTTP": 80, "HTTPS": 443, "DNS": 53, "FTP": 21, "NTP": 123, "SMTP": 25}
FILLER = (
    "Taken together these values describe a connection whose volume and timing "
    "differ from the routine traffic this network usually carries.",
    "An analyst should compare the quoted values with the earlier connections of "
    "both endpoints before deciding whether to block the source.",
    "Nothing in the record by itself proves intent, but the combination of "
    "features matches patterns that detectors are trained to flag.",
    "The exchange is short and lopsided, which fits automated tooling better than "
    "an interactive session between people.",
    "If the destination is a production server, its own logs for the same window "
    "would confirm or rule out the suspected activity.",
)


def flow_values(prompt: str) -> dict[str, str]:
    """``NAME: value`` lines of the prompt's flow block."""
    block = prompt.split(FLOW_HEADER, 1)[1].split("\n\n", 1)[0]
    return dict(line.split(": ", 1) for line in block.splitlines())


def compose(values: dict[str, str]) -> tuple[str, list[str]]:
    """Explanation text for one flow, and the finding kinds it must raise."""
    key = "\n".join(f"{name}: {values[name]}" for name in sorted(values))
    rng = random.Random(hashlib.sha256(key.encode("utf-8")).digest())
    kinds: list[str] = []

    def quote(name: str) -> str:
        if rng.random() < 0.15:
            kinds.append("value_mismatch")
            return str(int(values[name]) + 1 + rng.randrange(1000))
        return values[name]

    parts = [
        f"The flow from IPV4_SRC_ADDR: {values['IPV4_SRC_ADDR']} to IPV4_DST_ADDR: "
        f"{values['IPV4_DST_ADDR']} targeted L4_DST_PORT: {quote('L4_DST_PORT')} and was "
        "flagged by the detector.",
        f"It carried IN_BYTES: {quote('IN_BYTES')} bytes in IN_PKTS: {quote('IN_PKTS')} "
        f"packets, and the responder returned OUT_BYTES = {quote('OUT_BYTES')} bytes in "
        f"OUT_PKTS ({quote('OUT_PKTS')}).",
        f"The hop counts range from MIN_TTL: {quote('MIN_TTL')} to MAX_TTL: "
        f"{quote('MAX_TTL')}.",
    ]

    duration = int(values["FLOW_DURATION_MILLISECONDS"])
    seconds = Decimal(duration) / 1000
    if rng.random() < 0.3:
        kinds.append("arithmetic_error")
        seconds = seconds * 2 + 1
    parts.append(
        f"FLOW_DURATION_MILLISECONDS: {duration}, so the exchange lasted {duration} ms, "
        f"which is about {seconds} seconds."
    )

    service = rng.choice(sorted(SERVICES))
    port = SERVICES[service]
    if rng.random() < 0.3:
        kinds.append("fact_error")
        port += 1000
    parts.append(f"A scanner probing this host would usually try the {service} port {port} first.")

    tcp_flags = int(values["TCP_FLAGS"])
    if tcp_flags:
        named = [flag for bit, flag in enumerate(FLAGS) if tcp_flags >> bit & 1]
        if rng.random() < 0.3:
            kinds.append("fact_error")
            named = named[:-1] if len(named) > 1 else named + ["RST" if named != ["RST"] else "FIN"]
        parts.append(f"TCP_FLAGS: {tcp_flags} ({', '.join(named)}) were set on the flow.")

    throughput = values["SRC_TO_DST_AVG_THROUGHPUT"]
    if rng.random() < 0.2:
        kinds.append("unit_mismatch")
        parts.append(f"Its SRC_TO_DST_AVG_THROUGHPUT: {throughput} B/s is high for this host.")
    else:
        parts.append(f"Its SRC_TO_DST_AVG_THROUGHPUT: {throughput} bps is high for this host.")

    if rng.random() < 0.1:
        kinds.append("unknown_feature")
        parts.append("The SRC_REPUTATION_SCORE field would settle the question.")

    parts.extend(rng.sample(FILLER, 3))
    return " ".join(parts), sorted(kinds)


def completion_body(prompt: str) -> bytes:
    text, _ = compose(flow_values(prompt))
    return json.dumps(
        {
            "choices": [{"index": 0, "message": {"role": "assistant", "content": text}}],
            "usage": {
                "prompt_tokens": (len(prompt) * 10 + 26) // 27,
                "completion_tokens": (len(text) * 10 + 26) // 27,
            },
        }
    ).encode("utf-8")


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.lock = threading.Lock()
        self.requests = 0
        self.connections = 0

    def process_request(self, request, client_address):
        with self.lock:
            self.connections += 1
        super().process_request(request, client_address)


class StubHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):
        pass

    def _reply(self, body: bytes) -> None:
        head = (
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        # One send: writing headers and body separately stalls each reply
        # on the client's delayed ACK (about 40 ms).
        self.wfile.write(head + body)

    def do_POST(self) -> None:
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        body = completion_body(payload["messages"][0]["content"])
        with self.server.lock:
            self.server.requests += 1
        self._reply(body)

    def do_GET(self) -> None:
        with self.server.lock:
            stats = {"requests": self.server.requests, "connections": self.server.connections}
        self._reply(json.dumps(stats).encode("utf-8"))


def main() -> None:
    server = StubServer()
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    server.server_close()


if __name__ == "__main__":
    sys.exit(main())
