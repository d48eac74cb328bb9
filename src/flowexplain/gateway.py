"""Dispatch of prompts to pluggable LLM backends, with usage accounting.

Two concrete backends speak the common chat-completion wire shape over
HTTP (remote API or local inference server, distinguished only by their
profile); a deterministic mock backend keyed by prompt hash makes the
whole pipeline reproducible offline.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Protocol

from ._http import Exchange, Target, Transport, dig, json_body, request_target
from .config import DEFAULT_MAX_TOKENS, DEFAULT_TEMPERATURE, UsageLedger
from .prompts import count_tokens


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
    """What the gateway calls. A backend that waits on a socket may also
    offer the ``send``, ``receive`` and ``timed_out`` halves of ``complete``
    that :class:`HTTPBackend` has, so that one thread can wait on many of
    its requests at once."""

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
    """Chat-completion HTTP client for remote APIs and local servers.

    :meth:`complete` sends a request and waits for its answer. A caller
    that waits on several requests at once calls its halves itself:
    :meth:`send`, then, once the exchange it returns is readable,
    :meth:`receive`.
    """

    def __init__(self, profile: HTTPBackendProfile):
        self.profile = profile
        self.backend_id = profile.backend_id
        self.model = profile.model
        self._http = Transport(profile.timeout_s)
        self._paths = tuple(
            path.split(".")
            for path in (profile.text_path, profile.prompt_tokens_path,
                         profile.completion_tokens_path)
        )

    @functools.cached_property
    def _target(self) -> Target:
        """Where every request goes; a URL that cannot be sent fails each request."""
        return request_target("POST", self.profile.url, {"Content-Type": "application/json"})

    def complete(self, request: GenerationRequest) -> GenerationResult:
        exchange = self.send(request)
        while True:
            result = self.receive(exchange, request)
            if result is not None:
                return result

    def send(self, request: GenerationRequest) -> Exchange:
        """Send ``request`` to the endpoint without waiting for the answer."""
        profile = self.profile
        headers = {}
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
        return self._transported(
            lambda: self._http.send_to(self._target, json.dumps(payload).encode("utf-8"), headers)
        )

    def receive(self, exchange: Exchange, request: GenerationRequest) -> GenerationResult | None:
        """Read and check the answer to ``request``, blocking until it is in.

        ``None`` when the request had to go out again on a new connection;
        the exchange's socket and deadline are then those of the new one.
        """
        reply = self._transported(lambda: self._http.receive(exchange))
        if reply is None:
            return None
        status, reply_headers, reply = reply
        latency_ms = (time.monotonic() - exchange.started) * 1000.0

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
        text_path, prompt_tokens_path, completion_tokens_path = self._paths
        try:
            body = json_body(reply)
            text = dig(body, text_path)
            if not isinstance(text, str):
                raise TypeError("generated text is not a string")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise MalformedResponseError(f"{self.backend_id} response shape: {exc}") from exc
        try:
            prompt_tokens = int(dig(body, prompt_tokens_path))
            completion_tokens = int(dig(body, completion_tokens_path))
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

    def timed_out(self, exchange: Exchange) -> BackendTimeoutError:
        """Give up ``exchange`` past its deadline; the error to record for it."""
        exchange.close()
        return BackendTimeoutError(f"{self.backend_id} timed out")

    def close(self) -> None:
        """Close the idle kept-alive connections."""
        self._http.close()

    def _transported(self, half):
        """``half()`` of a transport exchange, its failures as backend errors."""
        try:
            return half()
        except TimeoutError as exc:
            raise BackendTimeoutError(f"{self.backend_id} timed out") from exc
        except (OSError, http.client.HTTPException) as exc:
            raise BackendServerError(f"{self.backend_id} request failed: {exc}") from exc


def _retry_after_seconds(retry_after: str | None) -> float | None:
    """A ``Retry-After`` value in seconds; ``None`` for a date or garbage."""
    try:
        seconds = float(retry_after)
    except (TypeError, ValueError):
        return None
    return seconds if 0 <= seconds < math.inf else None


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

        A slot is held per attempt, so a request sleeping in backoff leaves
        it to others. :meth:`backoff` decides what is retried and how long
        each retry waits.
        """
        attempt = 0
        while True:
            try:
                with self._slots:
                    result = self.backend.complete(request)
            except BackendError as exc:
                attempt += 1
                delay = self.backoff(exc, attempt)
                if delay is None:
                    raise
                self._sleep(delay)
            else:
                self.ledger.record(result)
                return result

    def backoff(self, exc: BackendError, attempt: int) -> float | None:
        """Seconds to wait before retrying a request whose ``attempt``-th try raised ``exc``.

        ``None`` when the request has failed for good, which the ledger
        records. Rate limits, timeouts and server errors are retried up to
        the attempt cap; authentication and malformed responses are not. A
        rate limit's ``retry_after`` replaces the policy's delay, capped at
        the policy's largest delay.
        """
        retry = self.retry
        if not isinstance(exc, RETRYABLE_ERRORS) or attempt >= retry.attempts:
            self.ledger.record_failure()
            return None
        hint = getattr(exc, "retry_after", None)
        if hint is None:
            return retry.delays[min(attempt - 1, len(retry.delays) - 1)]
        return min(hint, max(retry.delays))
