"""Geolocation and threat-intelligence providers.

Every piece of IP knowledge either carries provenance (which provider said
it, and when) or is reported as unavailable; nothing is ever synthesized.
Two implementations are bundled per provider kind: a static fixture file
for offline runs and tests, and a generic HTTPS endpoint with a templated
request. A disabled provider is ``None``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, BinaryIO, Callable, Mapping, Protocol, TextIO

from ._http import Transport

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


def read_jsonl(
    source: str | Path | TextIO | BinaryIO,
    error: type[Exception],
    what: str,
    required: tuple[str, ...] = (),
) -> list[dict]:
    """The JSON objects of a line-delimited file or stream; blank lines are skipped.

    A line that is not UTF-8, not a JSON object, or that lacks a string
    value for a key in ``required``, raises ``error("<what> in <file> on
    line N: ...")``; the `` in <file>`` part is left out for a stream
    without a ``name``.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            return read_jsonl(fh, error, what, required)
    where = f" in {source.name}" if hasattr(source, "name") else ""
    rows = []
    for line_no, line in enumerate(source, start=1):
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            if not line.strip():
                continue
            row = json.loads(line)
            if not isinstance(row, dict):
                raise ValueError("not a JSON object")
            for key in required:
                if not isinstance(row.get(key), str):
                    raise ValueError(f"no string {key!r}")
        except ValueError as exc:
            raise error(f"{what}{where} on line {line_no}: {exc}") from exc
        rows.append(row)
    return rows


_EPOCH = "1970-01-01T00:00:00Z"


def _fixture_table(source: str | Path | Mapping[str, dict]) -> dict[str, dict]:
    """A fixture's rows by address, from a JSONL file or a mapping."""
    if isinstance(source, (str, Path)):
        rows = read_jsonl(source, ValueError, "malformed fixture row", ("ip",))
        return {row["ip"]: row for row in rows}
    return {ip: dict(row, ip=ip) for ip, row in source.items()}


class FixtureGeoProvider:
    """Geolocation answers from a static JSONL file keyed by address.

    Each line: ``{"ip": ..., "country": ..., "city": ..., "asn": ...,
    "as_name": ..., "retrieved_at": ...}``. Misses raise not-found. The
    ``calls`` counter exists so tests can assert how often the provider
    was consulted.
    """

    def __init__(self, source: str | Path | Mapping[str, dict], provider_id: str = "fixture-geo"):
        self.provider_id = provider_id
        self.calls = 0
        self._table = _fixture_table(source)

    def lookup(self, ip: str) -> GeoInfo:
        self.calls += 1
        row = self._table.get(ip)
        if row is None:
            raise ProviderNotFound(f"{self.provider_id} has no record for {ip}")
        if row.get("simulate") == "timeout":
            raise ProviderTimeout(f"{self.provider_id} timed out for {ip}")
        if row.get("simulate") == "error":
            raise ProviderError(f"{self.provider_id} failed for {ip}")
        return GeoInfo(
            ip=ip,
            country=row.get("country"),
            city=row.get("city"),
            asn=row.get("asn"),
            as_name=row.get("as_name"),
            provenance=Provenance(self.provider_id, row.get("retrieved_at", _EPOCH)),
        )


class FixtureThreatProvider:
    """Threat-intelligence answers from a static JSONL feed.

    Addresses absent from the feed get an ``unknown`` verdict (a valid
    answer, not a failure), mirroring how reputation feeds behave.
    """

    def __init__(self, source: str | Path | Mapping[str, dict], provider_id: str = "fixture-cti"):
        self.provider_id = provider_id
        self.calls = 0
        self._table = _fixture_table(source)

    def lookup(self, ip: str) -> ThreatIntel:
        self.calls += 1
        row = self._table.get(ip)
        if row is None:
            return ThreatIntel(
                ip=ip,
                verdict="unknown",
                categories=(),
                last_seen=None,
                provenance=Provenance(self.provider_id, _EPOCH),
            )
        if row.get("simulate") == "timeout":
            raise ProviderTimeout(f"{self.provider_id} timed out for {ip}")
        if row.get("simulate") == "error":
            raise ProviderError(f"{self.provider_id} failed for {ip}")
        verdict = row.get("verdict", "unknown")
        if verdict not in CTI_VERDICTS:
            raise ProviderError(f"{self.provider_id} returned malformed verdict {verdict!r}")
        return ThreatIntel(
            ip=ip,
            verdict=verdict,
            categories=tuple(row.get("categories", ())),
            last_seen=row.get("last_seen"),
            provenance=Provenance(self.provider_id, row.get("retrieved_at", _EPOCH)),
        )


def _dig(payload: Any, dotted_path: str) -> Any:
    """Walk a dotted path ("a.b.0.c") through nested dicts and lists.

    Raises ``KeyError``, ``IndexError`` or ``ValueError`` when the path
    does not exist, including when it runs into a scalar.
    """
    node = payload
    for part in dotted_path.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        elif isinstance(node, dict):
            node = node[part]
        else:
            raise KeyError(dotted_path)
    return node


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
            return json.loads(body)
        except ValueError as exc:
            raise ProviderMalformed(f"{self.provider_id} returned a malformed payload") from exc

    def _extract(self, payload: Any, field: str, required: bool = False) -> Any:
        path = self.profile.field_paths.get(field)
        if path is None:
            if required:
                raise ProviderError(f"{self.provider_id} profile lacks a path for {field!r}")
            return None
        try:
            return _dig(payload, path)
        except (KeyError, IndexError, ValueError, TypeError):
            if required:
                raise ProviderError(
                    f"{self.provider_id} payload missing field {field!r} at {path!r}"
                ) from None
            return None

    def _text(self, payload: Any, field: str, required: bool = False) -> str | None:
        """A field that holds a string, or nothing when the payload has none."""
        value = self._extract(payload, field, required)
        if value is not None and not isinstance(value, str):
            raise self._malformed(field, value)
        return value

    def _malformed(self, field: str, value: Any) -> ProviderMalformed:
        return ProviderMalformed(f"{self.provider_id} returned malformed {field} {value!r:.80}")

    @staticmethod
    def _now() -> str:
        return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


#: an autonomous system number as providers write it: 15169, "15169" or "AS15169"
_ASN = re.compile(r"(?:AS)?([0-9]{1,10})", re.IGNORECASE)


class HTTPGeoProvider(_HTTPProviderBase):
    """Generic HTTPS geolocation client with configurable response paths."""

    def lookup(self, ip: str) -> GeoInfo:
        payload = self._fetch(ip)
        return GeoInfo(
            ip=ip,
            country=self._text(payload, "country"),
            city=self._text(payload, "city"),
            asn=self._asn(payload),
            as_name=self._text(payload, "as_name"),
            provenance=Provenance(self.provider_id, self._now()),
        )

    def _asn(self, payload: Any) -> int | None:
        value = self._extract(payload, "asn")
        if value is None:
            return None
        match = _ASN.fullmatch(value) if isinstance(value, str) else None
        asn = int(match.group(1)) if match else value
        if type(asn) is not int or not 0 <= asn < 2**32:  # by type: a bool is no number
            raise self._malformed("asn", value)
        return asn


class HTTPThreatProvider(_HTTPProviderBase):
    """Generic HTTPS threat-intelligence client."""

    def lookup(self, ip: str) -> ThreatIntel:
        payload = self._fetch(ip)
        verdict = self._text(payload, "verdict", required=True)
        if verdict is None or verdict.lower() not in CTI_VERDICTS:  # JSON null is no verdict
            raise self._malformed("verdict", verdict)
        categories = self._extract(payload, "categories")
        if categories is None or categories == "":
            categories = []
        elif isinstance(categories, str):
            categories = [categories]
        # numbered categories (as some feeds give them) are kept as their digits
        if not isinstance(categories, list) or any(type(c) not in (str, int) for c in categories):
            raise self._malformed("categories", categories)
        return ThreatIntel(
            ip=ip,
            verdict=verdict.lower(),
            categories=tuple(str(c) for c in categories),
            last_seen=self._text(payload, "last_seen"),
            provenance=Provenance(self.provider_id, self._now()),
        )


class TTLCache:
    """Thread-safe TTL cache keyed by (provider id, ip); last writer wins."""

    def __init__(self, ttl_seconds: float = 86400.0, clock: Callable[[], float] = time.monotonic):
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: dict[tuple[str, str], tuple[float, Any]] = {}

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
            return value

    def put(self, provider_id: str, ip: str, value: Any) -> None:
        with self._lock:
            self._entries[(provider_id, ip)] = (self._clock() + self.ttl_seconds, value)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
