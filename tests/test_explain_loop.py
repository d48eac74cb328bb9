"""The batch pass's request loop: one thread sends every request and reads every answer.

The pass is checked against a loopback chat-completion server that answers
out of order, after a delay, or with a retryable 503, and against one that
never answers. Its records and ledger must be those of explaining the same
flows one after another with ``Runtime.explain_record``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import threading
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowexplain import pipeline
from flowexplain.gateway import Gateway, RetryPolicy
from flowexplain.config import PipelineConfig, run_ingest
from flowexplain.pipeline import Runtime, run_explain

from .conftest import CTI_FIXTURE, DATASET, DEEP_JSON, GEO_FIXTURE
from .loopback import KeepAliveServer, SilentServer

FAST_RETRY = RetryPolicy(attempts=2, delays=(0.01,))


def chat_answer(request: bytes) -> bytes:
    """A chat completion whose text and usage are a function of the prompt."""
    prompt = json.loads(request)["messages"][0]["content"]
    digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    text = f"Assessment {digest[:12]}: the flow sent IN_BYTES: {int(digest[:4], 16)} bytes."
    usage = {"prompt_tokens": len(prompt) // 3, "completion_tokens": len(text) // 3}
    return json.dumps({"choices": [{"message": {"content": text}}], "usage": usage}).encode()


def config_for(directory, url: str, workers: int, timeout_s: float = 10.0) -> PipelineConfig:
    return PipelineConfig(
        dataset=DATASET,
        store=directory / "history.db",
        output_dir=directory / "out",
        geo_provider={"kind": "fixture", "fixture": str(GEO_FIXTURE)},
        cti_provider={"kind": "fixture", "fixture": str(CTI_FIXTURE)},
        backend={"kind": "local", "url": url, "timeout_s": timeout_s},
        workers=workers,
    )


def log_of(result) -> list[dict]:
    return [json.loads(line) for line in result.log_path.read_text().splitlines()]


@pytest.fixture
def fast_retry(monkeypatch):
    """Runtimes whose gateway retries once, after 10 ms."""
    monkeypatch.setattr(pipeline, "Gateway", functools.partial(Gateway, retry=FAST_RETRY))


@pytest.fixture(scope="module")
def ingested(tmp_path_factory):
    directory = tmp_path_factory.mktemp("loop")
    run_ingest(config_for(directory, "http://127.0.0.1:9/", workers=1))
    return directory


@pytest.fixture(scope="module")
def malicious(records):
    return [r.flow_id for r in records if r.label == "malicious"]


def test_two_workers_keep_two_requests_out_on_two_connections_without_a_thread(
    ingested, malicious, monkeypatch
):
    started_here = []
    start = threading.Thread.start

    def recording(thread):
        started_here.append(threading.current_thread() is caller)
        start(thread)

    caller = threading.current_thread()
    # each reply waits until both requests are out
    with KeepAliveServer(chat_answer, together=2) as server:
        monkeypatch.setattr(threading.Thread, "start", recording)
        result = run_explain(
            config_for(ingested, server.url("/v1"), workers=2), "augmented",
            flow_ids=malicious[:6], run_id="together",
        )
        monkeypatch.undo()
    assert [e["status"] for e in log_of(result)] == ["ok"] * 6
    assert (server.requests, server.connections) == (6, 2)
    assert not any(started_here)


def test_connection_the_server_closed_while_idle_is_reopened(ingested, malicious):
    with KeepAliveServer(chat_answer, close_after_reply=True) as server:
        result = run_explain(
            config_for(ingested, server.url("/v1"), workers=1), "augmented",
            flow_ids=malicious[:3], run_id="reopened",
        )
    assert [e["status"] for e in log_of(result)] == ["ok"] * 3
    assert (server.requests, server.connections) == (3, 3)


def test_silent_backend_times_each_flow_out(ingested, malicious, fast_retry):
    with SilentServer() as server:
        began = time.monotonic()
        result = run_explain(
            config_for(ingested, server.url("/v1"), workers=2, timeout_s=0.2), "augmented",
            flow_ids=malicious[:3], run_id="silent",
        )
    # two attempts of 0.2 s per flow, two flows at a time
    assert time.monotonic() - began < 3.0
    entries = log_of(result)
    assert [e["error"]["type"] for e in entries] == ["BackendTimeoutError"] * 3
    assert {e["error"]["message"] for e in entries} == {"local timed out"}
    assert (result.ledger.results, result.ledger.failures) == (0, 3)


def test_answer_nested_too_deep_is_a_malformed_response(ingested, malicious):
    with KeepAliveServer(DEEP_JSON.encode("ascii")) as server:
        result = run_explain(
            config_for(ingested, server.url("/v1"), workers=1), "augmented",
            flow_ids=malicious[:2], run_id="nested",
        )
    assert [e["error"]["type"] for e in log_of(result)] == ["MalformedResponseError"] * 2
    assert (result.ledger.results, result.ledger.failures) == (0, 2)


def test_flow_backing_off_lets_later_flows_be_sent(ingested, malicious, monkeypatch):
    monkeypatch.setattr(
        pipeline, "Gateway", functools.partial(Gateway, retry=RetryPolicy(delays=(0.3,)))
    )
    with KeepAliveServer(chat_answer, fail={0}) as server:
        result = run_explain(
            config_for(ingested, server.url("/v1"), workers=2), "augmented",
            flow_ids=malicious[:4], run_id="backoff",
        )
    entries = log_of(result)
    assert [e["status"] for e in entries] == ["ok"] * 4
    prompts = [json.loads(body)["messages"][0]["content"] for body in server.received]
    # the flow that got the 503 was sent again only after the three others
    assert len(prompts) == 5 and prompts[-1] == prompts[0]
    assert sorted(prompts[:4]) == sorted(e["prompt"]["text"] for e in entries)
    assert (result.ledger.results, result.ledger.failures) == (4, 0)


def test_interrupted_pass_closes_every_connection(ingested, malicious):
    class Interrupted(Exception):
        pass

    def interrupt(flow_id):
        raise Interrupted(flow_id)

    # no answer comes back before a second connection is open, so the pass
    # cannot be interrupted while it has only one
    with KeepAliveServer(chat_answer, opened=2, delays=(0.0, 0.05, 0.05, 0.05)) as server, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(Interrupted):
            run_explain(
                config_for(ingested, server.url("/v1"), workers=4), "augmented",
                flow_ids=malicious[:8], run_id="interrupted", progress=interrupt,
            )
        deadline = time.monotonic() + 5
        while server.ended < server.connections and time.monotonic() < deadline:
            time.sleep(0.01)
    assert server.connections > 1
    assert server.ended == server.connections
    port = str(server.httpd.server_address[1])
    assert not [w for w in caught if port in str(w.message)]  # closed, not collected


def _comparable(entries: list[dict]) -> list[dict]:
    return [{k: v for k, v in e.items() if k not in ("timestamps", "latency_ms")}
            for e in entries]


def _comparable_ledger(ledger: dict) -> dict:
    # the latency buckets depend on the machine's speed; their total does not
    histogram = ledger.pop("latency_histogram_ms")
    return {**ledger, "latencies": sum(histogram.values())}


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_pass_writes_what_explaining_each_flow_in_turn_writes(ingested, records, malicious,
                                                              data):
    selection = data.draw(st.lists(st.sampled_from(malicious[:12]), min_size=1, max_size=8))
    workers = data.draw(st.sampled_from([1, 2, 4]))
    delays = data.draw(st.lists(st.sampled_from([0.0, 0.002, 0.005, 0.01]), min_size=1,
                                max_size=4))
    fail = {data.draw(st.integers(0, len(selection) - 1))}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "Gateway", functools.partial(Gateway, retry=FAST_RETRY))
        with KeepAliveServer(chat_answer, delays=delays, fail=fail) as server:
            result = run_explain(
                config_for(ingested, server.url("/v1"), workers), "augmented",
                flow_ids=selection, run_id="pass",
            )
        with KeepAliveServer(chat_answer, delays=delays, fail=fail) as server:
            runtime = Runtime(config_for(ingested, server.url("/v1"), workers))
            try:
                by_id = {r.flow_id: r for r in records}
                expected = [
                    runtime.explain_record(by_id[flow_id], "augmented", f"pass:{flow_id}")
                    for flow_id in selection
                ]
                expected_ledger = runtime.gateway.ledger.to_dict()
            finally:
                runtime.close()
    assert _comparable(log_of(result)) == _comparable(expected)
    assert _comparable_ledger(json.loads(result.ledger_path.read_text())) == (
        _comparable_ledger(expected_ledger))
