"""Assembly of per-flow contextual knowledge for prompt augmentation.

For each flagged flow this module gathers protocol names, per-address
classification, geolocation, threat intelligence and recent connection
history. Provider failures degrade to explicit unavailability entries; the
context build itself never fails because of a provider.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from functools import lru_cache

from .flows import FlowRecord, clip
from .history import FlowHistoryEntry, FlowHistoryStore
from .protocols import ProtocolInfo, map_l4_protocol, map_l7_protocol
from .providers import (
    GeoInfo,
    GeolocationProvider,
    ProviderError,
    ThreatIntel,
    ThreatIntelProvider,
    TTLCache,
)

#: columns every record carries; the history entry of a flow reads them too
SRC_IP_FEATURE = "IPV4_SRC_ADDR"
DST_IP_FEATURE = "IPV4_DST_ADDR"
L4_FEATURE = "PROTOCOL"
L7_FEATURE = "L7_PROTO"

DEFAULT_HISTORY_K = 5


@lru_cache(maxsize=4096)
def classify_ip(ip: str) -> str:
    """Classify an address against the standard reserved-range tables.

    Memoised as :func:`flows.checked_address` is: a rejection is not cached
    and raises each time.
    """
    try:
        parsed = ipaddress.ip_address(ip)
    except ValueError:
        raise ValueError(f"invalid IP address text: {clip(ip, repr)}") from None
    if parsed.is_loopback:
        return "loopback"
    if parsed.is_link_local:
        return "link_local"
    if parsed.is_multicast:
        return "multicast"
    if parsed.is_unspecified or parsed.is_reserved:
        return "reserved"
    if parsed.is_private:
        return "private"
    return "public"


@dataclass(frozen=True)
class Unavailability:
    """A knowledge component that could not be populated, and why."""

    component: str
    reason: str


@dataclass(frozen=True)
class IpKnowledge:
    """Everything gathered about one endpoint address.

    ``unavailable`` maps each component that could not be populated
    (``geo``, ``cti``, ``history``, in that order) to the reason.
    """

    ip: str
    classification: str
    geo: GeoInfo | None
    threat: ThreatIntel | None
    history: tuple[FlowHistoryEntry, ...]
    unavailable: dict[str, str]


@dataclass(frozen=True)
class EnrichmentContext:
    """Assembled contextual knowledge for one flow.

    Every component is either populated with provenance or listed in
    ``unavailable``; there is no third state.
    """

    flow_id: str
    l4: ProtocolInfo
    l7: ProtocolInfo
    src: IpKnowledge
    dst: IpKnowledge
    provider_ids: dict[str, str | None]

    @property
    def unavailable(self) -> tuple[Unavailability, ...]:
        """The unpopulated components of both endpoints, source first."""
        return tuple(
            Unavailability(f"{component}.{side}", reason)
            for side, knowledge in (("src", self.src), ("dst", self.dst))
            for component, reason in knowledge.unavailable.items()
        )


class ContextBuilder:
    """Builds :class:`EnrichmentContext` values for flow records.

    Holds the provider handles (``None`` for a disabled one) and the lookup
    cache so repeated builds in one run share cached answers. Providers are
    asked only about public addresses. ``include_benign=False`` leaves benign
    entries out of the history (for deployments that only want the
    malicious back-story).
    """

    def __init__(
        self,
        store: FlowHistoryStore | None = None,
        geo_provider: GeolocationProvider | None = None,
        cti_provider: ThreatIntelProvider | None = None,
        k: int = DEFAULT_HISTORY_K,
        cache: TTLCache | None = None,
        include_benign: bool = True,
    ):
        if k < 0:
            raise ValueError("history limit k must be non-negative")
        self.store = store
        self.geo_provider = geo_provider
        self.cti_provider = cti_provider
        self.k = k
        self.cache = cache if cache is not None else TTLCache()
        self.include_benign = include_benign

    def build(self, record: FlowRecord) -> EnrichmentContext:
        for needed in (SRC_IP_FEATURE, DST_IP_FEATURE, L4_FEATURE, L7_FEATURE):
            if needed not in record.values:
                raise KeyError(f"record {record.flow_id} lacks required feature {needed}")

        return EnrichmentContext(
            flow_id=record.flow_id,
            l4=map_l4_protocol(int(record.values[L4_FEATURE])),
            l7=map_l7_protocol(record.values[L7_FEATURE]),
            src=self._gather_side(str(record.values[SRC_IP_FEATURE]), record),
            dst=self._gather_side(str(record.values[DST_IP_FEATURE]), record),
            provider_ids={
                "geo": None if self.geo_provider is None else self.geo_provider.provider_id,
                "cti": None if self.cti_provider is None else self.cti_provider.provider_id,
            },
        )

    def _lookup(self, provider: GeolocationProvider | ThreatIntelProvider, ip: str):
        """The provider's answer for ``ip``, from the cache when it holds one."""
        answer = self.cache.get(provider.provider_id, ip)
        if answer is None:
            answer = provider.lookup(ip)
            self.cache.put(provider.provider_id, ip, answer)
        return answer

    def _gather_side(self, ip: str, record: FlowRecord) -> IpKnowledge:
        classification = classify_ip(ip)
        unavailable: dict[str, str] = {}

        geo: GeoInfo | None = None
        if classification != "public":
            unavailable["geo"] = "non-public"
        elif self.geo_provider is None:
            unavailable["geo"] = "no provider"
        else:
            try:
                geo = self._lookup(self.geo_provider, ip)
            except ProviderError as exc:
                unavailable["geo"] = exc.reason

        threat: ThreatIntel | None = None
        if self.cti_provider is None:
            unavailable["cti"] = "no provider"
        elif classification != "public":
            # non-public addresses never trigger provider calls
            unavailable["cti"] = "non-public"
        else:
            try:
                threat = self._lookup(self.cti_provider, ip)
            except ProviderError as exc:
                unavailable["cti"] = exc.reason

        history: tuple[FlowHistoryEntry, ...] = ()
        if self.store is None:
            unavailable["history"] = "no store"
        else:
            history = tuple(
                self.store.query_history(ip, self.k, record.timestamp, self.include_benign)
            )

        return IpKnowledge(
            ip=ip,
            classification=classification,
            geo=geo,
            threat=threat,
            history=history,
            unavailable=unavailable,
        )
