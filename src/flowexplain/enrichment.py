"""Assembly of per-flow contextual knowledge for prompt augmentation.

For each flagged flow this module gathers feature specifications, protocol
names, per-address classification, geolocation, threat intelligence and
recent connection history. Provider failures degrade to explicit
unavailability entries; the context build itself never fails because of a
provider.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass

from .catalog import FeatureCatalog, FeatureSpec
from .flows import FlowRecord, validate_record
from .history import FlowHistoryEntry, FlowHistoryStore, HistoryQuery
from .protocols import ProtocolInfo, map_l4_protocol, map_l7_protocol
from .providers import (
    DisabledProvider,
    GeoInfo,
    GeolocationProvider,
    NonPublicAddressError,
    ProviderError,
    ThreatIntel,
    ThreatIntelProvider,
    TTLCache,
)

IP_CLASSIFICATIONS = ("public", "private", "loopback", "link_local", "multicast", "reserved")

DEFAULT_SRC_IP_FEATURE = "IPV4_SRC_ADDR"
DEFAULT_DST_IP_FEATURE = "IPV4_DST_ADDR"
DEFAULT_L4_FEATURE = "PROTOCOL"
DEFAULT_L7_FEATURE = "L7_PROTO"

DEFAULT_HISTORY_K = 5


def classify_ip(ip: str) -> str:
    """Classify an address against the standard reserved-range tables."""
    try:
        parsed = ipaddress.ip_address(ip)
    except ValueError:
        raise ValueError(f"invalid IP address text: {ip!r}") from None
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


def geolocate(
    ip: str, provider: GeolocationProvider, cache: TTLCache | None = None
) -> GeoInfo:
    """Look up geolocation for a public address, with optional caching.

    Callers must not pass non-public addresses; doing so is a caller error
    reported distinctly from provider failures.
    """
    if classify_ip(ip) != "public":
        raise NonPublicAddressError(f"geolocation requires a public address, got {ip}")
    if cache is not None:
        hit = cache.get(provider.provider_id, ip)
        if hit is not None:
            return hit
    info = provider.lookup(ip)
    if cache is not None:
        cache.put(provider.provider_id, ip, info)
    return info


def threat_lookup(
    ip: str, provider: ThreatIntelProvider, cache: TTLCache | None = None
) -> ThreatIntel:
    """Look up threat intelligence for an address, with optional caching."""
    ipaddress.ip_address(ip)  # validates syntax
    if cache is not None:
        hit = cache.get(provider.provider_id, ip)
        if hit is not None:
            return hit
    intel = provider.lookup(ip)
    if cache is not None:
        cache.put(provider.provider_id, ip, intel)
    return intel


@dataclass(frozen=True)
class Unavailability:
    """A knowledge component that could not be populated, and why."""

    component: str
    reason: str


@dataclass(frozen=True)
class IpKnowledge:
    """Everything gathered about one endpoint address."""

    ip: str
    classification: str
    geo: GeoInfo | None
    threat: ThreatIntel | None
    history: tuple[FlowHistoryEntry, ...]


@dataclass(frozen=True)
class EnrichmentContext:
    """Assembled contextual knowledge for one flow.

    Every component is either populated with provenance or listed in
    ``unavailable``; there is no third state.
    """

    flow_id: str
    spec_entries: tuple[FeatureSpec, ...]
    l4: ProtocolInfo
    l7: ProtocolInfo
    src: IpKnowledge
    dst: IpKnowledge
    unavailable: tuple[Unavailability, ...]
    k: int
    provider_ids: dict[str, str | None]


def _is_disabled(provider: object | None) -> bool:
    return provider is None or isinstance(provider, DisabledProvider)


class ContextBuilder:
    """Builds :class:`EnrichmentContext` values for flow records.

    Holds the provider handles and the lookup cache so repeated builds in
    one run share cached answers. ``history_labels`` optionally restricts
    which history entries are surfaced (for deployments that only want the
    malicious back-story).
    """

    def __init__(
        self,
        catalog: FeatureCatalog,
        store: FlowHistoryStore | None = None,
        geo_provider: GeolocationProvider | None = None,
        cti_provider: ThreatIntelProvider | None = None,
        k: int = DEFAULT_HISTORY_K,
        cache: TTLCache | None = None,
        history_labels: tuple[str, ...] | None = None,
        src_ip_feature: str = DEFAULT_SRC_IP_FEATURE,
        dst_ip_feature: str = DEFAULT_DST_IP_FEATURE,
        l4_feature: str = DEFAULT_L4_FEATURE,
        l7_feature: str = DEFAULT_L7_FEATURE,
    ):
        if k < 0:
            raise ValueError("history limit k must be non-negative")
        self.catalog = catalog
        self.store = store
        self.geo_provider = geo_provider
        self.cti_provider = cti_provider
        self.k = k
        self.cache = cache if cache is not None else TTLCache()
        self.history_labels = history_labels
        self.src_ip_feature = src_ip_feature
        self.dst_ip_feature = dst_ip_feature
        self.l4_feature = l4_feature
        self.l7_feature = l7_feature

    def build(self, record: FlowRecord) -> EnrichmentContext:
        validate_record(record, self.catalog)
        for needed in (
            self.src_ip_feature,
            self.dst_ip_feature,
            self.l4_feature,
            self.l7_feature,
        ):
            if needed not in record.values:
                raise KeyError(f"record {record.flow_id} lacks required feature {needed}")

        spec_entries = tuple(
            self.catalog.get(spec.name)
            for spec in self.catalog.features
            if spec.name in record.values
        )
        l4 = map_l4_protocol(int(record.values[self.l4_feature]))
        l7 = map_l7_protocol(record.values[self.l7_feature])

        unavailable: list[Unavailability] = []
        src = self._gather_side("src", str(record.values[self.src_ip_feature]), record, unavailable)
        dst = self._gather_side("dst", str(record.values[self.dst_ip_feature]), record, unavailable)

        return EnrichmentContext(
            flow_id=record.flow_id,
            spec_entries=spec_entries,
            l4=l4,
            l7=l7,
            src=src,
            dst=dst,
            unavailable=tuple(unavailable),
            k=self.k,
            provider_ids={
                "geo": None if _is_disabled(self.geo_provider) else self.geo_provider.provider_id,
                "cti": None if _is_disabled(self.cti_provider) else self.cti_provider.provider_id,
            },
        )

    def _gather_side(
        self,
        side: str,
        ip: str,
        record: FlowRecord,
        unavailable: list[Unavailability],
    ) -> IpKnowledge:
        classification = classify_ip(ip)

        geo: GeoInfo | None = None
        if classification != "public":
            unavailable.append(Unavailability(f"geo.{side}", "non-public"))
        elif _is_disabled(self.geo_provider):
            unavailable.append(Unavailability(f"geo.{side}", "no provider"))
        else:
            try:
                geo = geolocate(ip, self.geo_provider, self.cache)
            except ProviderError as exc:
                unavailable.append(Unavailability(f"geo.{side}", exc.reason))

        threat: ThreatIntel | None = None
        if _is_disabled(self.cti_provider):
            unavailable.append(Unavailability(f"cti.{side}", "no provider"))
        elif classification != "public":
            # non-public addresses never trigger provider calls
            unavailable.append(Unavailability(f"cti.{side}", "non-public"))
        else:
            try:
                threat = threat_lookup(ip, self.cti_provider, self.cache)
            except ProviderError as exc:
                unavailable.append(Unavailability(f"cti.{side}", exc.reason))

        history: tuple[FlowHistoryEntry, ...] = ()
        if self.store is None:
            unavailable.append(Unavailability(f"history.{side}", "no store"))
        else:
            entries = self.store.query_history(
                HistoryQuery(ip=ip, k=self.k, before=record.timestamp),
                labels=self.history_labels,
            )
            history = tuple(entries)

        return IpKnowledge(
            ip=ip,
            classification=classification,
            geo=geo,
            threat=threat,
            history=history,
        )


def build_context(
    record: FlowRecord,
    catalog: FeatureCatalog,
    store: FlowHistoryStore | None = None,
    geo_provider: GeolocationProvider | None = None,
    cti_provider: ThreatIntelProvider | None = None,
    k: int = DEFAULT_HISTORY_K,
    cache: TTLCache | None = None,
) -> EnrichmentContext:
    """One-shot context assembly; see :class:`ContextBuilder`."""
    builder = ContextBuilder(
        catalog,
        store=store,
        geo_provider=geo_provider,
        cti_provider=cti_provider,
        k=k,
        cache=cache,
    )
    return builder.build(record)

