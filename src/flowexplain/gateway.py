"""Dispatch of prompts to pluggable LLM backends, with usage accounting.

Two concrete backends speak the common chat-completion wire shape over
HTTP (remote API or local inference server, distinguished only by their
profile); a deterministic mock backend keyed by prompt hash makes the
whole pipeline reproducible offline.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import threading
import time
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from typing import Callable, Mapping, Protocol

from ._http import Transport
from .config import DEFAULT_MAX_TOKENS, DEFAULT_TEMPERATURE
from .prompts import count_tokens
from .providers import _dig

LATENCY_BUCKETS_MS = (10, 100, 500, 1000, 2000, 5000, 10000)


class BackendError(RuntimeError):
    """Base class for generation failures."""


class AuthenticationError(BackendError):
    """Credentials rejected or missing; never retried."""


class RateLimitError(BackendError):
    """Backend asked us to slow down; retried with backoff.

    ``retry_after`` is the wait in seconds that the backend asked for, if it
    sent a numeric ``Retry-After`` header.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class BackendTimeoutError(BackendError):
    """No response in time; retried with backoff."""


class BackendServerError(BackendError):
    """Transient server-side failure (5xx-equivalent); retried."""


class MalformedResponseError(BackendError):
    """Response did not match the expected wire shape; not retried."""


RETRYABLE_ERRORS = (RateLimitError, BackendTimeoutError, BackendServerError)


@dataclass(frozen=True)
class GenerationRequest:
    """One prompt to send."""

    prompt: str
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS
    request_id: str = ""

    def __post_init__(self) -> None:
        if not 0 <= self.temperature <= 2:
            raise ValueError(f"temperature must be in [0, 2], got {self.temperature}")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")


@dataclass(frozen=True)
class TokenUsage:
    prompt_tokens: int
    completion_tokens: int
    total_tokens: int

    def __post_init__(self) -> None:
        if self.total_tokens != self.prompt_tokens + self.completion_tokens:
            raise ValueError(
                "usage must conserve tokens: "
                f"{self.prompt_tokens} + {self.completion_tokens} != {self.total_tokens}"
            )

    def to_dict(self) -> dict:
        return {
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "total_tokens": self.total_tokens,
        }


@dataclass(frozen=True)
class GenerationResult:
    text: str
    usage: TokenUsage
    latency_ms: float
    backend_id: str
    model: str


class Backend(Protocol):
    backend_id: str
    model: str

    def complete(self, request: GenerationRequest) -> GenerationResult: ...


@dataclass(frozen=True)
class RetryPolicy:
    """Up to ``attempts`` tries; sleeps ``delays[i]`` between them."""

    attempts: int = 3
    delays: tuple[float, ...] = (1.0, 2.0, 4.0)

    def __post_init__(self) -> None:
        if not self.delays:
            raise ValueError("a retry policy needs at least one delay")


DEFAULT_RETRY = RetryPolicy()


class MockBackend:
    """Deterministic offline backend keyed by prompt hash.

    Responses come from a canned table (keyed by the prompt's SHA-256 hex
    digest, or by the full prompt text for convenience); anything unkeyed
    gets a synthesized, hash-derived explanation. Usage is computed with
    the token-counting heuristic, latency is always zero, so runs are
    bit-reproducible.
    """

    backend_id = "mock"

    def __init__(
        self,
        canned: Mapping[str, str] | None = None,
        model: str = "mock-model",
    ):
        self.model = model
        self.canned = dict(canned or {})
        self.calls = 0

    def complete(self, request: GenerationRequest) -> GenerationResult:
        self.calls += 1
        digest = hashlib.sha256(request.prompt.encode("utf-8")).hexdigest()
        text = self.canned.get(digest)
        if text is None:
            text = self.canned.get(request.prompt)
        if text is None:
            text = (
                f"Assessment {digest[:12]}: the flow's recorded feature values are "
                "consistent with the malicious classification reported by the detector. "
                "Review the quoted features against the connection history before acting."
            )
        prompt_tokens = count_tokens(request.prompt)
        completion_tokens = count_tokens(text)
        return GenerationResult(
            text=text,
            usage=TokenUsage(
                prompt_tokens=prompt_tokens,
                completion_tokens=completion_tokens,
                total_tokens=prompt_tokens + completion_tokens,
            ),
            latency_ms=0.0,
            backend_id=self.backend_id,
            model=self.model,
        )


@dataclass(frozen=True)
class HTTPBackendProfile:
    """Wire configuration for a chat-completion style HTTP endpoint.

    The request carries the standard ``model``, ``messages``,
    ``temperature`` and ``max_tokens`` keys; the response paths are
    configurable so the same class covers hosted APIs and local inference
    servers that imitate them. The auth token is read
    from the environment variable named by ``auth_env``; tokens never
    live in config files.
    """

    backend_id: str
    url: str
    model: str = "default"
    auth_env: str | None = None
    timeout_s: float = 60.0
    text_path: str = "choices.0.message.content"
    prompt_tokens_path: str = "usage.prompt_tokens"
    completion_tokens_path: str = "usage.completion_tokens"


class HTTPBackend:
    """Chat-completion HTTP client for remote APIs and local servers."""

    def __init__(self, profile: HTTPBackendProfile):
        self.profile = profile
        self.backend_id = profile.backend_id
        self.model = profile.model
        self._http = Transport(profile.timeout_s)

    def complete(self, request: GenerationRequest) -> GenerationResult:
        profile = self.profile
        headers = {"Content-Type": "application/json"}
        if profile.auth_env:
            token = os.environ.get(profile.auth_env)
            if not token:
                raise AuthenticationError(
                    f"environment variable {profile.auth_env} is not set"
                )
            headers["Authorization"] = f"Bearer {token}"
        payload = {
            "model": profile.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        started = time.monotonic()
        try:
            status, reply_headers, reply = self._http.request(
                "POST", profile.url, headers, json.dumps(payload).encode("utf-8")
            )
        except TimeoutError as exc:
            raise BackendTimeoutError(f"{self.backend_id} timed out") from exc
        except (OSError, http.client.HTTPException) as exc:
            raise BackendServerError(f"{self.backend_id} request failed: {exc}") from exc
        latency_ms = (time.monotonic() - started) * 1000.0

        if status in (401, 403):
            raise AuthenticationError(f"{self.backend_id} rejected credentials")
        if status == 429:
            raise RateLimitError(
                f"{self.backend_id} rate limited the request",
                retry_after=_retry_after_seconds(reply_headers.get("retry-after")),
            )
        if status >= 500:
            raise BackendServerError(f"{self.backend_id} returned HTTP {status}")
        if status >= 300:  # redirects are not followed
            raise MalformedResponseError(
                f"{self.backend_id} rejected the request: HTTP {status}"
            )
        try:
            body = json.loads(reply)
            text = _dig(body, profile.text_path)
            if not isinstance(text, str):
                raise TypeError("generated text is not a string")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(f"{self.backend_id} response shape: {exc}") from exc
        try:
            prompt_tokens = int(_dig(body, profile.prompt_tokens_path))
            completion_tokens = int(_dig(body, profile.completion_tokens_path))
        except (ValueError, KeyError, IndexError, TypeError):
            # endpoints that omit usage fall back to the counting heuristic
            prompt_tokens = count_tokens(request.prompt)
            completion_tokens = count_tokens(text)
        return GenerationResult(
            text=text,
            usage=TokenUsage(
                prompt_tokens=prompt_tokens,
                completion_tokens=completion_tokens,
                total_tokens=prompt_tokens + completion_tokens,
            ),
            latency_ms=latency_ms,
            backend_id=self.backend_id,
            model=self.model,
        )


def _retry_after_seconds(retry_after: str | None) -> float | None:
    """A ``Retry-After`` value in seconds; ``None`` for a date or garbage."""
    try:
        seconds = float(retry_after)
    except (TypeError, ValueError):
        return None
    return seconds if 0 <= seconds < math.inf else None


@dataclass(frozen=True)
class PricingTable:
    """Prices in currency units per million input/output tokens."""

    input_price: Decimal
    output_price: Decimal

    def __post_init__(self) -> None:
        if self.input_price < 0 or self.output_price < 0:
            raise ValueError("prices must be non-negative")

    @classmethod
    def per_million(cls, input_price: float | str, output_price: float | str) -> "PricingTable":
        return cls(Decimal(str(input_price)), Decimal(str(output_price)))


def estimate_cost(
    queries: int | float,
    avg_input_tokens: int | float,
    avg_output_tokens: int | float,
    pricing: PricingTable,
) -> Decimal:
    """Cost of ``queries`` requests at the given average token counts.

    ``queries * (avg_input * input_price + avg_output * output_price) / 1e6``,
    rounded half-up to cents.
    """
    if queries < 0 or avg_input_tokens < 0 or avg_output_tokens < 0:
        raise ValueError("cost inputs must be non-negative")
    amount = (
        Decimal(str(queries))
        * (
            Decimal(str(avg_input_tokens)) * pricing.input_price
            + Decimal(str(avg_output_tokens)) * pricing.output_price
        )
        / Decimal(10) ** 6
    )
    return amount.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)


@dataclass
class UsageLedger:
    """Accumulated token, latency and request totals for one run."""

    results: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    total_tokens: int = 0
    failures: int = 0
    latency_histogram_ms: dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def record(self, result: GenerationResult) -> None:
        """Add one result's usage to the totals."""
        bucket = _latency_bucket(result.latency_ms)
        with self._lock:
            self.results += 1
            self.prompt_tokens += result.usage.prompt_tokens
            self.completion_tokens += result.usage.completion_tokens
            self.total_tokens += result.usage.total_tokens
            self.latency_histogram_ms[bucket] = self.latency_histogram_ms.get(bucket, 0) + 1

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1

    def to_dict(self) -> dict:
        return {
            "results": self.results,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "total_tokens": self.total_tokens,
            "failures": self.failures,
            "latency_histogram_ms": dict(sorted(self.latency_histogram_ms.items())),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "UsageLedger":
        ledger = cls()
        ledger.results = int(data.get("results", 0))
        ledger.prompt_tokens = int(data.get("prompt_tokens", 0))
        ledger.completion_tokens = int(data.get("completion_tokens", 0))
        ledger.total_tokens = int(data.get("total_tokens", 0))
        ledger.failures = int(data.get("failures", 0))
        ledger.latency_histogram_ms = dict(data.get("latency_histogram_ms", {}))
        return ledger


def _latency_bucket(latency_ms: float) -> str:
    for upper in LATENCY_BUCKETS_MS:
        if latency_ms <= upper:
            return f"<={upper}"
    return f">{LATENCY_BUCKETS_MS[-1]}"


class Gateway:
    """Backend plus retry policy, in-flight cap and ledger in one handle."""

    def __init__(
        self,
        backend: Backend,
        retry: RetryPolicy = DEFAULT_RETRY,
        max_in_flight: int = 4,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.backend = backend
        self.retry = retry
        self.ledger = UsageLedger()
        self._sleep = sleep
        self._slots = threading.BoundedSemaphore(max_in_flight)

    def generate(self, request: GenerationRequest) -> GenerationResult:
        """Send one request under the retry policy and account for it.

        Rate limits, timeouts and server errors are retried with backoff up
        to the attempt cap, then surfaced; authentication and malformed
        responses fail immediately. A rate limit's ``retry_after`` replaces
        the policy's delay, capped at the policy's largest delay. A slot is
        held per attempt, so a request sleeping in backoff leaves it to
        others.
        """
        retry, attempt = self.retry, 0
        while True:
            try:
                with self._slots:
                    result = self.backend.complete(request)
            except BackendError as exc:
                attempt += 1
                if not isinstance(exc, RETRYABLE_ERRORS) or attempt >= retry.attempts:
                    self.ledger.record_failure()
                    raise
                hint = getattr(exc, "retry_after", None)
                if hint is None:
                    self._sleep(retry.delays[min(attempt - 1, len(retry.delays) - 1)])
                else:
                    self._sleep(min(hint, max(retry.delays)))
            else:
                self.ledger.record(result)
                return result
