"""Assembly of per-flow contextual knowledge for prompt augmentation.

For each flagged flow this module gathers protocol names, per-address
classification, geolocation and threat intelligence, and a handle on the
recent connection history that reads the store when first asked for.
Provider failures degrade to explicit unavailability entries; the context
build itself never fails because of a provider.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .config import DST_IP_FEATURE, L4_FEATURE, L7_FEATURE, SRC_IP_FEATURE
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
class FlowHistories:
    """The connection history of a flow's endpoint addresses, read from the
    store when first asked for: one statement reads every address's count
    of entries, or every address's entries."""

    store: FlowHistoryStore
    ips: tuple[str, ...]
    k: int
    before: int | None
    include_benign: bool

    @cached_property
    def entries(self) -> tuple[tuple[FlowHistoryEntry, ...], ...]:
        """Each address's newest entries, newest first."""
        read = self.store.query_histories(self.ips, self.k, self.before, self.include_benign)
        return tuple(map(tuple, read))

    @property
    def counts(self) -> tuple[int, ...]:
        """How many entries each address has in :attr:`entries`; the store
        counts them unless they are read already."""
        if "entries" in self.__dict__:
            return tuple(map(len, self.entries))
        return self._counted

    @cached_property
    def _counted(self) -> tuple[int, ...]:
        return tuple(
            self.store.count_histories(self.ips, self.k, self.before, self.include_benign)
        )


@dataclass(frozen=True)
class IpKnowledge:
    """Everything gathered about one endpoint address.

    ``unavailable`` maps each component that could not be populated
    (``geo``, ``cti``, ``history``, in that order) to the reason. The
    connection history is read when it is first asked for (see
    :class:`FlowHistories`).
    """

    ip: str
    classification: str
    geo: GeoInfo | None
    threat: ThreatIntel | None
    unavailable: dict[str, str]
    #: the flow's histories and this endpoint's place in them; ``None``
    #: without a store
    histories: tuple[FlowHistories, int] | None = field(default=None, repr=False)

    @property
    def history(self) -> tuple[FlowHistoryEntry, ...]:
        """The newest entries touching the address, newest first."""
        if self.histories is None:
            return ()
        histories, index = self.histories
        return histories.entries[index]

    @property
    def history_count(self) -> int:
        """``len(self.history)``, counted by the store unless the entries
        are read already."""
        if self.histories is None:
            return 0
        histories, index = self.histories
        return histories.counts[index]


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

        ips = (str(record.values[SRC_IP_FEATURE]), str(record.values[DST_IP_FEATURE]))
        histories = None
        if self.store is not None:
            histories = FlowHistories(
                self.store, ips, self.k, record.timestamp, self.include_benign
            )
        return EnrichmentContext(
            flow_id=record.flow_id,
            l4=map_l4_protocol(int(record.values[L4_FEATURE])),
            l7=map_l7_protocol(record.values[L7_FEATURE]),
            src=self._gather_side(ips[0], None if histories is None else (histories, 0)),
            dst=self._gather_side(ips[1], None if histories is None else (histories, 1)),
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

    def _gather_side(
        self, ip: str, histories: tuple[FlowHistories, int] | None
    ) -> IpKnowledge:
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

        if histories is None:
            unavailable["history"] = "no store"

        return IpKnowledge(
            ip=ip,
            classification=classification,
            geo=geo,
            threat=threat,
            unavailable=unavailable,
            histories=histories,
        )
