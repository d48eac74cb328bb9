"""Geolocation and threat-intelligence providers.

Every piece of IP knowledge either carries provenance (which provider said
it, and when) or is reported as unavailable; nothing is ever synthesized.
Two implementations are bundled per provider kind: a static fixture file
for offline runs and tests, and a generic HTTPS endpoint with a templated
request. A disabled provider is ``None``.
"""

from __future__ import annotations

import http.client
import os
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Mapping, Protocol

from ._http import Transport, dig, json_body
from .config import read_jsonl

CTI_VERDICTS = ("malicious", "suspicious", "unknown", "benign")


class ProviderError(RuntimeError):
    """Lookup failed; mapped to an unavailability reason, never a fabrication."""

    reason = "provider_error"


class ProviderTimeout(ProviderError):
    reason = "timeout"


class ProviderNotFound(ProviderError):
    reason = "not_found"


class ProviderAuthError(ProviderError):
    """Authentication or configuration problem, distinct from a miss."""

    reason = "auth_error"


class ProviderMalformed(ProviderError):
    """The answer is not JSON, or a field holds a value of the wrong kind."""

    reason = "malformed"


@dataclass(frozen=True)
class Provenance:
    provider_id: str
    retrieved_at: str  # ISO-8601

    def __str__(self) -> str:
        return f"{self.provider_id}@{self.retrieved_at}"


@dataclass(frozen=True)
class GeoInfo:
    ip: str
    country: str | None
    city: str | None
    asn: int | None
    as_name: str | None
    provenance: Provenance


@dataclass(frozen=True)
class ThreatIntel:
    ip: str
    verdict: str
    categories: tuple[str, ...]
    last_seen: str | None
    provenance: Provenance

    def __post_init__(self) -> None:
        if self.verdict not in CTI_VERDICTS:
            raise ValueError(f"verdict must be one of {CTI_VERDICTS}, got {self.verdict!r}")


class GeolocationProvider(Protocol):
    provider_id: str

    def lookup(self, ip: str) -> GeoInfo: ...


class ThreatIntelProvider(Protocol):
    provider_id: str

    def lookup(self, ip: str) -> ThreatIntel: ...


_EPOCH = "1970-01-01T00:00:00Z"


# -- answer shapes: every value check of an answer, for fixture rows and HTTP
# payloads alike. ``get`` reads a field, ``None`` when it is absent; a field
# of the wrong kind is a ValueError.


def _malformed(name: str, value: Any) -> ValueError:
    return ValueError(f"malformed {name} {value!r:.80}")


def _text(get: Callable[[str], Any], name: str) -> str | None:
    """A field that holds a string, or nothing when the answer has none."""
    value = get(name)
    if value is not None and not isinstance(value, str):
        raise _malformed(name, value)
    return value


#: an autonomous system number as providers write it: 15169, "15169" or "AS15169"
_ASN = re.compile(r"(?:AS)?([0-9]{1,10})", re.IGNORECASE)


def _asn(value: Any) -> int | None:
    if value is None:
        return None
    match = _ASN.fullmatch(value) if isinstance(value, str) else None
    asn = int(match.group(1)) if match else value
    if type(asn) is not int or not 0 <= asn < 2**32:  # by type: a bool is no number
        raise _malformed("asn", value)
    return asn


def _geo_answer(ip: str, get: Callable[[str], Any], provenance: Provenance) -> GeoInfo:
    return GeoInfo(
        ip=ip,
        country=_text(get, "country"),
        city=_text(get, "city"),
        asn=_asn(get("asn")),
        as_name=_text(get, "as_name"),
        provenance=provenance,
    )


def _threat_answer(ip: str, get: Callable[[str], Any], provenance: Provenance) -> ThreatIntel:
    verdict = get("verdict")
    if not isinstance(verdict, str) or verdict.lower() not in CTI_VERDICTS:  # null is no verdict
        raise _malformed("verdict", verdict)
    categories = get("categories")
    if categories is None or categories == "":
        categories = []
    elif isinstance(categories, str):
        categories = [categories]
    # numbered categories (as some feeds give them) are kept as their digits
    if not isinstance(categories, list) or any(type(c) not in (str, int) for c in categories):
        raise _malformed("categories", categories)
    return ThreatIntel(
        ip=ip,
        verdict=verdict.lower(),
        categories=tuple(str(c) for c in categories),
        last_seen=_text(get, "last_seen"),
        provenance=provenance,
    )


class _FixtureProvider:
    """Answers from a static JSONL file keyed by address.

    Each row is checked as the file loads, with the value rules of the
    HTTP providers, so a malformed row is a ``ValueError`` naming the file
    and the line. A row with ``"simulate": "timeout"`` or ``"error"``
    fails its lookups as that. The ``calls`` counter exists so tests can
    assert how often the provider was consulted.
    """

    _parse: Callable[[str, Callable[[str], Any], Provenance], Any]
    _defaults: dict[str, Any] = {}

    def __init__(self, source: str | Path, provider_id: str):
        self.provider_id = provider_id
        self.calls = 0
        #: by address, the answer or the (error class, message) a lookup raises
        self._answers: dict[str, Any] = dict(
            read_jsonl(source, ValueError, "malformed fixture row", ("ip",), self._entry)
        )

    def _entry(self, row: dict) -> tuple[str, Any]:
        ip = row["ip"]
        if row.get("simulate") == "timeout":
            return ip, (ProviderTimeout, f"{self.provider_id} timed out for {ip}")
        if row.get("simulate") == "error":
            return ip, (ProviderError, f"{self.provider_id} failed for {ip}")
        get = {**self._defaults, **row}.get
        provenance = Provenance(self.provider_id, _text(get, "retrieved_at") or _EPOCH)
        return ip, self._parse(ip, get, provenance)

    def _stored(self, ip: str):
        """The answer stored for ``ip``, ``None`` if there is none."""
        self.calls += 1
        answer = self._answers.get(ip)
        if type(answer) is tuple:
            error, message = answer
            raise error(message)
        return answer


class FixtureGeoProvider(_FixtureProvider):
    """Geolocation answers from a static JSONL file keyed by address.

    Each line: ``{"ip": ..., "country": ..., "city": ..., "asn": ...,
    "as_name": ..., "retrieved_at": ...}``. Misses raise not-found.
    """

    _parse = staticmethod(_geo_answer)

    def __init__(self, source: str | Path, provider_id: str = "fixture-geo"):
        super().__init__(source, provider_id)

    def lookup(self, ip: str) -> GeoInfo:
        answer = self._stored(ip)
        if answer is None:
            raise ProviderNotFound(f"{self.provider_id} has no record for {ip}")
        return answer


class FixtureThreatProvider(_FixtureProvider):
    """Threat-intelligence answers from a static JSONL feed.

    Addresses absent from the feed get an ``unknown`` verdict (a valid
    answer, not a failure), mirroring how reputation feeds behave; so does
    a row without a verdict.
    """

    _parse = staticmethod(_threat_answer)
    _defaults = {"verdict": "unknown"}

    def __init__(self, source: str | Path, provider_id: str = "fixture-cti"):
        super().__init__(source, provider_id)

    def lookup(self, ip: str) -> ThreatIntel:
        answer = self._stored(ip)
        if answer is None:
            return ThreatIntel(
                ip=ip,
                verdict="unknown",
                categories=(),
                last_seen=None,
                provenance=Provenance(self.provider_id, _EPOCH),
            )
        return answer


@dataclass(frozen=True)
class HTTPProviderProfile:
    """How to talk to a generic HTTPS knowledge endpoint.

    ``url_template`` contains ``{ip}``; the auth token (if any) is read
    from the environment variable named by ``auth_env`` and sent as a
    bearer token. ``field_paths`` maps logical fields to dotted paths in
    the JSON response.
    """

    provider_id: str
    url_template: str
    field_paths: Mapping[str, str] = field(default_factory=dict)
    auth_env: str | None = None
    timeout_ms: int = 5000


class _HTTPProviderBase:
    def __init__(self, profile: HTTPProviderProfile):
        self.profile = profile
        self.provider_id = profile.provider_id
        self.calls = 0
        self._http = Transport(profile.timeout_ms / 1000.0)

    def _fetch(self, ip: str) -> Any:
        self.calls += 1
        headers = {}
        if self.profile.auth_env:
            token = os.environ.get(self.profile.auth_env)
            if not token:
                raise ProviderAuthError(
                    f"environment variable {self.profile.auth_env} is not set"
                )
            headers["Authorization"] = f"Bearer {token}"
        url = self.profile.url_template.format(ip=ip)
        try:
            status, _, body = self._http.request("GET", url, headers)
        except TimeoutError as exc:
            raise ProviderTimeout(f"{self.provider_id} timed out for {ip}") from exc
        except (OSError, http.client.HTTPException) as exc:
            raise ProviderError(f"{self.provider_id} request failed: {exc}") from exc
        if status in (401, 403):
            raise ProviderAuthError(f"{self.provider_id} rejected credentials")
        if status == 404:
            raise ProviderNotFound(f"{self.provider_id} has no record for {ip}")
        if status >= 300:  # redirects are not followed
            raise ProviderError(f"{self.provider_id} returned HTTP {status}")
        try:
            return json_body(body)
        except ValueError as exc:
            raise ProviderMalformed(f"{self.provider_id} returned a malformed payload") from exc

    def _extract(self, payload: Any, field: str, required: bool = False) -> Any:
        path = self.profile.field_paths.get(field)
        if path is None:
            if required:
                raise ProviderError(f"{self.provider_id} profile lacks a path for {field!r}")
            return None
        try:
            return dig(payload, path.split("."))
        except (KeyError, IndexError, ValueError, TypeError):
            if required:
                raise ProviderError(
                    f"{self.provider_id} payload missing field {field!r} at {path!r}"
                ) from None
            return None

    def _answer(self, parse, ip: str, get: Callable[[str], Any]):
        """``parse`` of the payload that ``get`` reads; a wrong kind is ``malformed``."""
        try:
            return parse(ip, get, Provenance(self.provider_id, self._now()))
        except ValueError as exc:
            raise ProviderMalformed(f"{self.provider_id} returned {exc}") from None

    @staticmethod
    def _now() -> str:
        return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


class HTTPGeoProvider(_HTTPProviderBase):
    """Generic HTTPS geolocation client with configurable response paths."""

    def lookup(self, ip: str) -> GeoInfo:
        payload = self._fetch(ip)
        return self._answer(_geo_answer, ip, lambda name: self._extract(payload, name))


class HTTPThreatProvider(_HTTPProviderBase):
    """Generic HTTPS threat-intelligence client."""

    def lookup(self, ip: str) -> ThreatIntel:
        payload = self._fetch(ip)
        return self._answer(
            _threat_answer, ip, lambda name: self._extract(payload, name, name == "verdict")
        )


#: the most entries a TTLCache holds; a put past it drops the least recently used
CACHE_ENTRIES = 8192


class TTLCache:
    """Thread-safe TTL cache keyed by (provider id, ip); last writer wins.

    It holds at most ``CACHE_ENTRIES`` entries, so a service asked about
    ever new addresses does not grow without bound.
    """

    def __init__(self, ttl_seconds: float = 86400.0, clock: Callable[[], float] = time.monotonic):
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple[str, str], tuple[float, Any]] = OrderedDict()

    def get(self, provider_id: str, ip: str) -> Any | None:
        key = (provider_id, ip)
        with self._lock:
            hit = self._entries.get(key)
            if hit is None:
                return None
            expires_at, value = hit
            if self._clock() >= expires_at:
                del self._entries[key]
                return None
            self._entries.move_to_end(key)
            return value

    def put(self, provider_id: str, ip: str, value: Any) -> None:
        key = (provider_id, ip)
        with self._lock:
            self._entries[key] = (self._clock() + self.ttl_seconds, value)
            self._entries.move_to_end(key)
            if len(self._entries) > CACHE_ENTRIES:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
