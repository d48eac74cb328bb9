import json
import threading
import time
import warnings
from decimal import Decimal
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowexplain.gateway import (
    AuthenticationError,
    BackendServerError,
    BackendTimeoutError,
    Gateway,
    GenerationRequest,
    GenerationResult,
    HTTPBackend,
    HTTPBackendProfile,
    MalformedResponseError,
    MockBackend,
    PricingTable,
    RateLimitError,
    RetryPolicy,
    TokenUsage,
    UsageLedger,
    estimate_cost,
)
from flowexplain.prompts import count_tokens

from .conftest import run_fresh
from .loopback import KeepAliveServer, SilentServer, refused_port

PRICING = PricingTable.per_million("2.50", "10.00")
FAST_RETRY = RetryPolicy(attempts=3, delays=(0.0, 0.0, 0.0))


class TestRequestValidation:
    def test_temperature_range(self):
        with pytest.raises(ValueError):
            GenerationRequest(prompt="p", temperature=2.5)

    def test_max_tokens_minimum(self):
        with pytest.raises(ValueError):
            GenerationRequest(prompt="p", max_tokens=0)

    @pytest.mark.parametrize("field", ["temperature", "max_tokens"])
    def test_none_is_not_a_setting(self, field):
        assert GenerationRequest(prompt="p") == GenerationRequest(
            prompt="p", temperature=0.7, max_tokens=2048
        )
        with pytest.raises(TypeError):
            GenerationRequest(prompt="p", **{field: None})

    def test_usage_conservation_enforced(self):
        with pytest.raises(ValueError):
            TokenUsage(prompt_tokens=10, completion_tokens=5, total_tokens=16)


class _CapturingBackend:
    backend_id = "capture"
    model = "capture-model"

    def __init__(self):
        self.seen = []

    def complete(self, request):
        self.seen.append(request)
        usage = TokenUsage(1, 1, 2)
        return GenerationResult("ok", usage, 0.0, self.backend_id, self.model)


class _FlakyBackend:
    backend_id = "flaky"
    model = "flaky-model"

    def __init__(self, errors):
        self.errors = list(errors)
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        if self.errors:
            raise self.errors.pop(0)
        usage = TokenUsage(1, 1, 2)
        return GenerationResult("recovered", usage, 0.0, self.backend_id, self.model)


class TestGenerate:
    def test_defaults_applied(self):
        backend = _CapturingBackend()
        Gateway(backend).generate(GenerationRequest(prompt="p"))
        effective = backend.seen[0]
        assert effective.temperature == 0.7
        assert effective.max_tokens == 2048

    def test_explicit_values_respected(self):
        backend = _CapturingBackend()
        Gateway(backend).generate(GenerationRequest(prompt="p", temperature=0.1, max_tokens=5))
        assert backend.seen[0].temperature == 0.1
        assert backend.seen[0].max_tokens == 5

    def test_rate_limit_exhausts_after_three_attempts(self):
        backend = _FlakyBackend([RateLimitError("slow down")] * 3)
        sleeps = []
        with pytest.raises(RateLimitError):
            Gateway(
                backend,
                retry=RetryPolicy(attempts=3, delays=(1.0, 2.0, 4.0)),
                sleep=sleeps.append,
            ).generate(GenerationRequest(prompt="p"))
        assert backend.calls == 3
        assert sleeps == [1.0, 2.0]

    def test_transient_failure_recovers(self):
        backend = _FlakyBackend([BackendTimeoutError("t"), BackendServerError("s")])
        result = Gateway(backend, retry=FAST_RETRY).generate(GenerationRequest(prompt="p"))
        assert result.text == "recovered"
        assert backend.calls == 3

    def test_auth_error_not_retried(self):
        backend = _FlakyBackend([AuthenticationError("denied")])
        with pytest.raises(AuthenticationError):
            Gateway(backend, retry=FAST_RETRY).generate(GenerationRequest(prompt="p"))
        assert backend.calls == 1

    def test_policy_without_delays_is_rejected(self):
        with pytest.raises(ValueError, match="at least one delay"):
            RetryPolicy(attempts=2, delays=())


class TestMockBackend:
    def test_canned_response_by_prompt_text(self):
        backend = MockBackend(canned={"the prompt": "a canned explanation"})
        result = Gateway(backend).generate(GenerationRequest(prompt="the prompt"))
        assert result.text == "a canned explanation"
        assert result.usage.prompt_tokens == count_tokens("the prompt")
        assert result.usage.completion_tokens == count_tokens("a canned explanation")

    def test_canned_response_by_hash(self):
        import hashlib

        digest = hashlib.sha256(b"xyz").hexdigest()
        backend = MockBackend(canned={digest: "hash hit"})
        assert backend.complete(GenerationRequest(prompt="xyz")).text == "hash hit"

    def test_default_response_is_deterministic(self):
        backend = MockBackend()
        first = backend.complete(GenerationRequest(prompt="same"))
        second = backend.complete(GenerationRequest(prompt="same"))
        assert first.text == second.text
        assert backend.complete(GenerationRequest(prompt="other")).text != first.text

    def test_latency_is_zero(self):
        assert MockBackend().complete(GenerationRequest(prompt="p")).latency_ms == 0.0


class _ScriptedHTTPServer:
    """Serves scripted (status, body[, headers]) responses for backend tests."""

    def __init__(self, script):
        self.script = list(script)
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                server.last_request = json.loads(self.rfile.read(length))
                server.auth_header = self.headers.get("Authorization")
                status, body, *headers = server.script.pop(0)
                payload = body.encode("utf-8")
                self.send_response(status)
                for name, value in dict(*headers).items():
                    self.send_header(name, value)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.last_request = None
        self.auth_header = None

    @property
    def url(self):
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self):
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()
        return self

    def __exit__(self, *exc):
        self.httpd.shutdown()
        self.httpd.server_close()


def _ok_body(text="generated text", prompt_tokens=12, completion_tokens=8):
    return json.dumps(
        {
            "choices": [{"message": {"content": text}}],
            "usage": {
                "prompt_tokens": prompt_tokens,
                "completion_tokens": completion_tokens,
            },
        }
    )


class TestHTTPBackend:
    def _profile(self, url, **kwargs):
        return HTTPBackendProfile(backend_id="http-test", url=url, model="m1", **kwargs)

    def test_success_parses_text_and_usage(self):
        with _ScriptedHTTPServer([(200, _ok_body())]) as server:
            backend = HTTPBackend(self._profile(server.url))
            result = backend.complete(
                GenerationRequest(prompt="hello", temperature=0.7, max_tokens=64)
            )
        assert result.text == "generated text"
        assert result.usage == TokenUsage(12, 8, 20)
        assert server.last_request["model"] == "m1"
        assert server.last_request["messages"] == [{"role": "user", "content": "hello"}]
        assert server.last_request["temperature"] == 0.7
        assert server.last_request["max_tokens"] == 64

    def test_rate_limit_maps_to_retryable_error(self):
        with _ScriptedHTTPServer([(429, "{}")]) as server:
            backend = HTTPBackend(self._profile(server.url))
            with pytest.raises(RateLimitError):
                backend.complete(GenerationRequest(prompt="p"))

    def test_server_error_maps(self):
        with _ScriptedHTTPServer([(500, "{}")]) as server:
            backend = HTTPBackend(self._profile(server.url))
            with pytest.raises(BackendServerError):
                backend.complete(GenerationRequest(prompt="p"))

    def test_auth_rejection_maps(self):
        with _ScriptedHTTPServer([(401, "{}")]) as server:
            backend = HTTPBackend(self._profile(server.url))
            with pytest.raises(AuthenticationError):
                backend.complete(GenerationRequest(prompt="p"))

    def test_malformed_payload_maps(self):
        with _ScriptedHTTPServer([(200, '{"unexpected": true}')]) as server:
            backend = HTTPBackend(self._profile(server.url))
            with pytest.raises(MalformedResponseError):
                backend.complete(GenerationRequest(prompt="p"))

    def test_missing_auth_env_is_auth_error(self, monkeypatch):
        monkeypatch.delenv("FLOWEXPLAIN_TEST_TOKEN", raising=False)
        backend = HTTPBackend(
            self._profile("http://127.0.0.1:1/unused", auth_env="FLOWEXPLAIN_TEST_TOKEN")
        )
        with pytest.raises(AuthenticationError, match="FLOWEXPLAIN_TEST_TOKEN"):
            backend.complete(GenerationRequest(prompt="p"))

    def test_auth_token_sent_as_bearer(self, monkeypatch):
        monkeypatch.setenv("FLOWEXPLAIN_TEST_TOKEN", "sekret")
        with _ScriptedHTTPServer([(200, _ok_body())]) as server:
            backend = HTTPBackend(
                self._profile(server.url, auth_env="FLOWEXPLAIN_TEST_TOKEN")
            )
            backend.complete(GenerationRequest(prompt="p"))
        assert server.auth_header == "Bearer sekret"

    def test_retry_then_success_through_generate(self):
        with _ScriptedHTTPServer([(429, "{}"), (200, _ok_body("second try"))]) as server:
            backend = HTTPBackend(self._profile(server.url))
            result = Gateway(backend, retry=FAST_RETRY).generate(GenerationRequest(prompt="p"))
        assert result.text == "second try"

    def test_redirect_is_not_followed(self):
        with _ScriptedHTTPServer([(302, _ok_body(), {"Location": "/elsewhere"})]) as server:
            backend = HTTPBackend(self._profile(server.url))
            with pytest.raises(MalformedResponseError, match="HTTP 302"):
                backend.complete(GenerationRequest(prompt="p"))


class TestRetryAfter:
    POLICY = RetryPolicy(attempts=3, delays=(0.5, 2.0, 4.0))

    def _sleeps(self, retry_after):
        script = [(429, "{}", {"Retry-After": retry_after}), (200, _ok_body("after the wait"))]
        sleeps = []
        with _ScriptedHTTPServer(script) as server:
            backend = HTTPBackend(HTTPBackendProfile("http-test", server.url, "m1"))
            result = Gateway(backend, retry=self.POLICY, sleep=sleeps.append).generate(
                GenerationRequest(prompt="p")
            )
        assert result.text == "after the wait"
        return sleeps

    def test_numeric_hint_replaces_the_policy_delay(self):
        assert self._sleeps("1") == [1.0]

    def test_hint_is_capped_at_the_largest_policy_delay(self):
        assert self._sleeps("3600") == [4.0]

    @pytest.mark.parametrize("value", ["soon", "Wed, 21 Oct 2026 07:28:00 GMT", "-3", "nan"])
    def test_unusable_hint_falls_back_to_the_policy_delay(self, value):
        assert self._sleeps(value) == [0.5]

    def test_rate_limit_error_carries_the_hint(self):
        with _ScriptedHTTPServer([(429, "{}", {"Retry-After": "7"})]) as server:
            backend = HTTPBackend(HTTPBackendProfile("http-test", server.url, "m1"))
            with pytest.raises(RateLimitError) as caught:
                backend.complete(GenerationRequest(prompt="p"))
        assert caught.value.retry_after == 7.0


class TestTransport:
    OK = _ok_body().encode("utf-8")

    def _backend(self, url, timeout_s=60.0):
        return HTTPBackend(HTTPBackendProfile("http-test", url, "m1", timeout_s=timeout_s))

    def test_silent_server_times_out(self):
        with SilentServer() as server:
            backend = self._backend(server.url("/v1/chat/completions"), timeout_s=0.2)
            started = time.monotonic()
            with pytest.raises(BackendTimeoutError, match="timed out"):
                backend.complete(GenerationRequest(prompt="p"))
        assert time.monotonic() - started < 2.0

    def test_refused_port_is_server_error(self):
        backend = self._backend(f"http://127.0.0.1:{refused_port()}/v1/chat/completions")
        with pytest.raises(BackendServerError, match="http-test request failed"):
            backend.complete(GenerationRequest(prompt="p"))

    @pytest.mark.parametrize("url", ["ftp://127.0.0.1/x", "http:///x", "http://127.0.0.1:99999/x"])
    def test_unusable_url_is_server_error(self, url):
        with pytest.raises(BackendServerError, match="request failed"):
            self._backend(url).complete(GenerationRequest(prompt="p"))

    def test_idle_closed_connection_is_reopened_once(self):
        with KeepAliveServer(self.OK, close_after_reply=True) as server:
            backend = self._backend(server.url("/v1/chat/completions"))
            texts = [backend.complete(GenerationRequest(prompt="p")).text for _ in range(3)]
        assert texts == ["generated text"] * 3
        assert (server.requests, server.connections) == (3, 3)

    def test_one_thread_keeps_one_connection(self):
        with KeepAliveServer(self.OK) as server:
            backend = self._backend(server.url("/v1/chat/completions"))
            for _ in range(5):
                backend.complete(GenerationRequest(prompt="p"))
        assert (server.requests, server.connections) == (5, 1)

    def _threads(self, backend, count, calls_each):
        def calls():
            for _ in range(calls_each):
                backend.complete(GenerationRequest(prompt="p"))

        threads = [threading.Thread(target=calls) for _ in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()

    def test_two_threads_in_flight_use_two_connections(self):
        # each reply waits until both threads' requests have arrived
        with KeepAliveServer(self.OK, together=2) as server:
            backend = self._backend(server.url("/v1/chat/completions"))
            self._threads(backend, count=2, calls_each=3)
        assert (server.requests, server.connections) == (6, 2)

    def test_threads_taking_turns_share_one_connection(self):
        with KeepAliveServer(self.OK) as server:
            backend = self._backend(server.url("/v1/chat/completions"))
            for _ in range(3):
                self._threads(backend, count=1, calls_each=2)
        assert (server.requests, server.connections) == (6, 1)

    def test_dropped_backend_closes_its_connections(self):
        with KeepAliveServer(self.OK, together=2) as server, warnings.catch_warnings(
            record=True
        ) as caught:
            warnings.simplefilter("always", ResourceWarning)
            backend = self._backend(server.url("/v1/chat/completions"))
            self._threads(backend, count=2, calls_each=1)
            del backend
            deadline = time.monotonic() + 5
            while server.ended < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert server.ended == 2
        port = str(server.httpd.server_address[1])
        assert not [w for w in caught if port in str(w.message)]  # closed, not collected


def test_importing_the_pipeline_leaves_requests_unloaded():
    result = run_fresh("import sys, flowexplain.pipeline; print('requests' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


class TestEstimateCost:
    def test_reproduces_reference_per_thousand_costs(self):
        assert estimate_cost(1000, 461, 460, PRICING) == Decimal("5.75")
        assert estimate_cost(1000, 2308, 460, PRICING) == Decimal("10.37")

    def test_zero_queries_cost_nothing(self):
        assert estimate_cost(0, 10_000, 10_000, PRICING) == Decimal("0.00")

    def test_rounding_is_half_up(self):
        # 1000 * 2 * 2.50 / 1e6 = 0.005, the exact midpoint of a cent
        assert estimate_cost(1000, 2, 0, PRICING) == Decimal("0.01")

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            estimate_cost(-1, 1, 1, PRICING)

    def test_negative_prices_rejected(self):
        with pytest.raises(ValueError):
            PricingTable.per_million("-1", "1")

    def test_doubled_prices_double_cost(self):
        doubled = PricingTable.per_million("5.00", "20.00")
        assert estimate_cost(1000, 2308, 460, doubled) == Decimal("20.74")
        # the basic pair lands on a half cent, so doubling shifts by the
        # half-up rounding of 2 * 5.7525
        assert estimate_cost(1000, 461, 460, doubled) == Decimal("11.51")

    @settings(max_examples=40, deadline=None)
    @given(
        queries=st.integers(min_value=0, max_value=10_000),
        extra=st.integers(min_value=1, max_value=1000),
        tokens_in=st.integers(min_value=0, max_value=10_000),
        tokens_out=st.integers(min_value=0, max_value=10_000),
    )
    def test_linear_in_queries_and_monotone(self, queries, extra, tokens_in, tokens_out):
        base = estimate_cost(queries, tokens_in, tokens_out, PRICING)
        assert estimate_cost(queries + extra, tokens_in, tokens_out, PRICING) >= base
        assert estimate_cost(queries, tokens_in + extra, tokens_out, PRICING) >= base
        assert estimate_cost(queries, tokens_in, tokens_out + extra, PRICING) >= base


class TestUsageLedger:
    def _result(self, prompt_tokens=100, completion_tokens=50):
        return GenerationResult(
            text="t",
            usage=TokenUsage(
                prompt_tokens, completion_tokens, prompt_tokens + completion_tokens
            ),
            latency_ms=42.0,
            backend_id="mock",
            model="m",
        )

    def test_single_result_totals(self):
        ledger = UsageLedger()
        ledger.record(self._result(100, 50))
        assert ledger.total_tokens == 150
        assert ledger.prompt_tokens == 100
        assert ledger.completion_tokens == 50
        assert ledger.results == 1

    def test_two_identical_results_double_totals(self):
        ledger = UsageLedger()
        ledger.record(self._result())
        ledger.record(self._result())
        assert ledger.total_tokens == 300
        assert ledger.results == 2

    def test_latency_histogram_buckets(self):
        ledger = UsageLedger()
        ledger.record(self._result())
        assert ledger.latency_histogram_ms == {"<=100": 1}

    def test_roundtrip_serialization(self):
        ledger = UsageLedger()
        ledger.record(self._result())
        clone = UsageLedger.from_dict(ledger.to_dict())
        assert clone.total_tokens == ledger.total_tokens
        assert clone.latency_histogram_ms == ledger.latency_histogram_ms


class TestGatewayHandle:
    def test_gateway_records_usage(self):
        gateway = Gateway(MockBackend(), retry=FAST_RETRY)
        gateway.generate(GenerationRequest(prompt="p"))
        assert gateway.ledger.results == 1
        assert gateway.ledger.total_tokens > 0

    def test_gateway_records_failures(self):
        gateway = Gateway(_FlakyBackend([RateLimitError("x")] * 3), retry=FAST_RETRY)
        with pytest.raises(RateLimitError):
            gateway.generate(GenerationRequest(prompt="p"))
        assert gateway.ledger.failures == 1

    def test_parallel_generation_is_bit_reproducible(self):
        from concurrent.futures import ThreadPoolExecutor

        prompts = [f"prompt {i}" for i in range(20)]

        def run():
            gateway = Gateway(MockBackend(), retry=FAST_RETRY, max_in_flight=4)
            with ThreadPoolExecutor(max_workers=4) as pool:
                texts = list(
                    pool.map(
                        lambda p: gateway.generate(GenerationRequest(prompt=p)).text, prompts
                    )
                )
            return texts, gateway.ledger.to_dict()

        first_texts, first_ledger = run()
        second_texts, second_ledger = run()
        assert first_texts == second_texts
        assert first_ledger == second_ledger

    def test_slot_is_free_while_a_request_sleeps_in_backoff(self):
        asleep, wake = threading.Event(), threading.Event()

        def sleep(seconds):
            asleep.set()
            wake.wait(10)

        gateway = Gateway(
            _FlakyBackend([RateLimitError("slow down")]),
            retry=RetryPolicy(attempts=2, delays=(1.0,)),
            max_in_flight=1,
            sleep=sleep,
        )
        texts = {}

        def explain(name):
            texts[name] = gateway.generate(GenerationRequest(prompt=name)).text

        first = threading.Thread(target=explain, args=("first",))
        first.start()
        try:
            assert asleep.wait(10)
            second = threading.Thread(target=explain, args=("second",))
            second.start()
            second.join(5)
            assert texts == {"second": "recovered"}  # done while the first sleeps
        finally:
            wake.set()
            first.join(10)
        assert texts == {"first": "recovered", "second": "recovered"}
        assert gateway.ledger.results == 2
