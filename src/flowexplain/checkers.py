"""Machine-assisted consistency checks over generated explanations.

The checkers pre-flag likely problems: feature values quoted differently
from the record, bits/bytes unit confusion, wrong duration conversions,
wrong well-known-port claims and wrong TCP-flag decodings. They are
deliberately conservative; prose they cannot parse yields no finding.
Findings are advisory and never substitute for a human verdict.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, Overflow, localcontext
from functools import lru_cache
from importlib import resources

from .catalog import FeatureCatalog
from .flows import FlowRecord, clip

FINDING_KINDS = (
    "value_mismatch",
    "unknown_feature",
    "unit_mismatch",
    "arithmetic_error",
    "fact_error",
)

TCP_FLAG_BITS = {
    "FIN": 1,
    "SYN": 2,
    "RST": 4,
    "PSH": 8,
    "ACK": 16,
    "URG": 32,
    "ECE": 64,
    "CWR": 128,
}

#: Relative tolerance for verified arithmetic claims (duration conversions).
CONVERSION_TOLERANCE = Decimal("0.05")

#: Relative tolerance for value comparisons that involved unit scaling,
#: allowing for rounding in prose ("1.2 KB" for 1204 bytes stays flagged,
#: "1.2 KB" for 1200 does not).
SCALED_VALUE_TOLERANCE = Decimal("0.01")

def decode_tcp_flags(value: int) -> frozenset[str]:
    """Flag names whose bit is set in a cumulative TCP flag bitmask."""
    if not 0 <= value <= 255:
        raise ValueError(f"TCP flag bitmask out of range 0..255: {value}")
    return frozenset(name for name, bit in TCP_FLAG_BITS.items() if value & bit)


def format_flag_set(flags: frozenset[str]) -> str:
    ordered = sorted(flags, key=lambda name: TCP_FLAG_BITS[name])
    return ", ".join(ordered) if ordered else "none"


@lru_cache(maxsize=1)
def well_known_ports() -> dict[str, int]:
    """Bundled service-name to port subset used for port-claim checking."""
    table: dict[str, int] = {}
    text = resources.files("flowexplain").joinpath("data/well_known_ports.tsv").read_text("utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        service, port, _ = line.split("\t", 2)
        table[service.upper()] = int(port)
    return table


_MS_PER_UNIT = {
    "second": Decimal(1000),
    "minute": Decimal(60000),
    "hour": Decimal(3600000),
}


def _canonical_time_unit(token: str) -> str | None:
    token = token.lower().rstrip(".")
    if token in ("s", "sec", "secs", "second", "seconds"):
        return "second"
    if token in ("min", "mins", "minute", "minutes"):
        return "minute"
    if token in ("h", "hr", "hrs", "hour", "hours"):
        return "hour"
    if token in ("ms", "msec", "msecs", "millisecond", "milliseconds"):
        return "millisecond"
    return None


def milliseconds_to(value_ms: int | float | Decimal, unit: str) -> Decimal:
    """Exact conversion of a millisecond count into seconds/minutes/hours."""
    canonical = _canonical_time_unit(unit)
    if canonical is None or canonical == "millisecond":
        raise ValueError(f"unsupported duration unit {unit!r}")
    return Decimal(str(value_ms)) / _MS_PER_UNIT[canonical]


@dataclass(frozen=True)
class FeatureMention:
    """One reference to a (catalog or unknown) feature in explanation text."""

    feature: str
    known: bool
    span: tuple[int, int]
    raw_value: str | None = None
    value: Decimal | str | None = None
    unit: str | None = None


@dataclass(frozen=True)
class CheckFinding:
    """A single pre-flagged problem, anchored to a span of the text."""

    kind: str
    detail: str
    span: tuple[int, int]
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.kind not in FINDING_KINDS:
            raise ValueError(f"unknown finding kind {self.kind!r}")
        if self.severity not in ("error", "warning"):
            raise ValueError(f"severity must be error or warning, got {self.severity!r}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "span": list(self.span),
            "severity": self.severity,
        }


# Written-unit grammar. The bits/bytes letter is case-sensitive ("bps" is
# bits per second, "Bps" bytes per second); everything around it is not.
_SCALE = {"": 1, "k": 10**3, "m": 10**6, "g": 10**9, "t": 10**12}
_IEC_SCALE = {"ki": 2**10, "mi": 2**20, "gi": 2**30, "ti": 2**40}

_UNIT_TOKEN = re.compile(r"^([A-Za-z]+(?:/s)?)$")


def parse_written_unit(token: str) -> tuple[str, Decimal] | None:
    """Classify a written unit into (dimension, multiplier to base unit).

    Dimensions: ``bytes`` (base byte), ``byte_rate`` (base byte/s),
    ``bit_rate`` (base bit/s), ``bits`` (base bit), ``time`` (base ms),
    ``count``. Unrecognised tokens return None.
    """
    if not token or not _UNIT_TOKEN.match(token):
        return None
    time_unit = _canonical_time_unit(token)
    if time_unit == "millisecond":
        return ("time", Decimal(1))
    if time_unit is not None:
        return ("time", _MS_PER_UNIT[time_unit])
    lowered = token.lower()
    if lowered in ("packet", "packets", "pkt", "pkts"):
        return ("count", Decimal(1))
    if lowered in ("byte", "bytes"):
        return ("bytes", Decimal(1))
    if lowered in ("bit", "bits"):
        return ("bits", Decimal(1))

    rate = False
    core = token
    if core.endswith("/s"):
        rate = True
        core = core[:-2]
    elif len(core) > 2 and core[-2:] in ("ps", "PS"):
        rate = True
        core = core[:-2]
    if not core:
        return None
    # the final letter decides bits vs bytes and must be unambiguous
    letter = core[-1]
    prefix = core[:-1].lower()
    if letter == "b":
        dimension = "bit_rate" if rate else "bits"
    elif letter == "B":
        dimension = "byte_rate" if rate else "bytes"
    else:
        return None
    if prefix in _SCALE:
        return (dimension, Decimal(_SCALE[prefix]))
    if prefix in _IEC_SCALE:
        return (dimension, Decimal(_IEC_SCALE[prefix]))
    return None


_CATALOG_UNIT_DIMENSION = {
    "bytes": "bytes",
    "bits-per-second": "bit_rate",
    "milliseconds": "time",
    "count": "count",
}

_BITSY = {"bits", "bit_rate"}
_BYTESY = {"bytes", "byte_rate"}


_WORD = re.compile(r"\w+")
_UNKNOWN_FEATURE = re.compile(r"[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+")

_NUMBER_VALUE = re.compile(
    r"\s*[:=(]\s*(?P<value>-?\d[\d,]*(?:\.\d+)?)(?:\s*(?P<unit>[A-Za-z]+(?:/s)?))?"
)
_ADDRESS_VALUE = re.compile(r"\s*[:=(]\s*(?P<value>\d{1,3}(?:\.\d{1,3}){3})")


def extract_feature_mentions(text: str, catalog: FeatureCatalog) -> list[FeatureMention]:
    """Find catalog feature references and catalog-shaped unknown tokens, in text order.

    One scan over the identifiers (``\\w+`` runs) of the text: an identifier
    that spells a catalog name in any letter case is a known mention; one
    shaped like a catalog name (upper-case words joined by underscores) is
    an unknown mention. Adjacent ``name: value``, ``name = value`` and
    ``name (value)`` forms capture the quoted value and, when present, the
    unit as written.
    """
    mentions: list[FeatureMention] = []
    for match in _WORD.finditer(text):
        token = match.group()
        name = catalog.name_for(token)
        if name is not None:
            mentions.append(_mention_with_value(text, *match.span(), name, True, catalog))
        elif _UNKNOWN_FEATURE.fullmatch(token):
            mentions.append(_mention_with_value(text, *match.span(), token, False, catalog))
    return mentions


def _mention_with_value(
    text: str,
    start: int,
    end: int,
    feature: str,
    known: bool,
    catalog: FeatureCatalog,
) -> FeatureMention:
    is_address = known and catalog.get(feature).value_kind == "address"
    value_re = _ADDRESS_VALUE if is_address else _NUMBER_VALUE
    value_match = value_re.match(text, end)
    if value_match is None:
        return FeatureMention(feature=feature, known=known, span=(start, end))
    raw = value_match.group("value")
    unit = None
    if not is_address:
        unit_token = value_match.group("unit")
        if unit_token and parse_written_unit(unit_token) is not None:
            unit = unit_token
    span_end = value_match.end("unit") if unit else value_match.end("value")
    if is_address:
        parsed: Decimal | str | None = raw
    else:
        try:
            parsed = Decimal(raw.replace(",", ""))
        except InvalidOperation:
            parsed = None
    return FeatureMention(
        feature=feature,
        known=known,
        span=(start, span_end),
        raw_value=raw,
        value=parsed,
        unit=unit,
    )


def check_feature_consistency(
    mentions: list[FeatureMention],
    record: FlowRecord,
    catalog: FeatureCatalog,
) -> list[CheckFinding]:
    """Compare quoted feature values and units against the record.

    Emits ``value_mismatch`` when a quoted value disagrees with the record
    after unit normalization, ``unit_mismatch`` for bits/bytes confusion
    against the catalog unit, and ``unknown_feature`` for catalog-shaped
    names that are not in the catalog.
    """
    findings: list[CheckFinding] = []
    for mention in mentions:
        if not mention.known:
            findings.append(
                CheckFinding(
                    kind="unknown_feature",
                    detail=f"{mention.feature} is not a feature of this flow schema",
                    span=mention.span,
                    severity="warning",
                )
            )
            continue
        spec = catalog.get(mention.feature)
        recorded = record.values.get(mention.feature)

        if mention.unit is not None:
            written = parse_written_unit(mention.unit)
            catalog_dim = _CATALOG_UNIT_DIMENSION.get(spec.unit)
            if written is not None and catalog_dim is not None:
                written_dim, multiplier = written
                if _bits_bytes_conflict(catalog_dim, written_dim):
                    findings.append(
                        CheckFinding(
                            kind="unit_mismatch",
                            detail=(
                                f"{mention.feature} is measured in {spec.unit}, "
                                f"but the explanation writes it as {mention.unit!r}"
                            ),
                            span=mention.span,
                        )
                    )
                    continue
                if not _compatible(catalog_dim, written_dim):
                    continue  # unrelated unit; too ambiguous to judge
                if mention.value is not None and isinstance(recorded, (int, Decimal)):
                    # a quoted value scaled past the exponent range becomes
                    # Infinity, which then differs from any recorded value
                    with localcontext() as ctx:
                        ctx.traps[Overflow] = False
                        normalized = Decimal(mention.value) * multiplier
                    finding = _compare_values(mention, normalized, recorded, multiplier)
                    if finding:
                        findings.append(finding)
                continue

        if mention.value is None or recorded is None:
            continue
        if isinstance(recorded, (int, Decimal)) and isinstance(mention.value, Decimal):
            finding = _compare_values(mention, mention.value, recorded, Decimal(1))
            if finding:
                findings.append(finding)
        elif isinstance(recorded, str) and isinstance(mention.value, str):
            if mention.value != recorded:
                findings.append(
                    CheckFinding(
                        kind="value_mismatch",
                        detail=(
                            f"explanation quotes {mention.feature} as {mention.value}, "
                            f"but the record has {recorded}"
                        ),
                        span=mention.span,
                    )
                )
    return findings


def _bits_bytes_conflict(catalog_dim: str, written_dim: str) -> bool:
    return (catalog_dim in _BITSY and written_dim in _BYTESY) or (
        catalog_dim in _BYTESY and written_dim in _BITSY
    )


def _compatible(catalog_dim: str, written_dim: str) -> bool:
    if catalog_dim == written_dim:
        return True
    if catalog_dim in _BYTESY and written_dim in _BYTESY:
        return True
    if catalog_dim in _BITSY and written_dim in _BITSY:
        return True
    return False


def _compare_values(
    mention: FeatureMention,
    normalized: Decimal,
    recorded: int | Decimal,
    multiplier: Decimal,
) -> CheckFinding | None:
    recorded_dec = Decimal(recorded)
    if multiplier == 1:
        equal = normalized == recorded_dec
    elif recorded_dec == 0:
        equal = normalized == 0
    else:
        equal = abs(normalized - recorded_dec) <= abs(recorded_dec) * SCALED_VALUE_TOLERANCE
    if equal:
        return None
    quoted = clip(mention.raw_value or str(mention.value))
    if mention.unit:
        quoted += f" {mention.unit}"
    return CheckFinding(
        kind="value_mismatch",
        detail=(
            f"explanation quotes {mention.feature} as {quoted}, "
            f"but the record has {recorded}"
        ),
        span=mention.span,
    )


_NUM = r"\d[\d,]*(?:\.\d+)?"

# A claim may start only where a run of digits and commas begins: starting
# at every digit inside the run would make a long run cost quadratic time.
# The leading lookahead adds no condition, as a claim starts with a digit or
# a comma; it lets the regex engine skip fast to such positions. The unit is
# matched in ASCII only: ignoring case, U+017F (long s) would match the "s"
# of "mins", and milliseconds_to converts no such spelling.
_DURATION_CLAIM = re.compile(
    rf"(?=[\d,])(?<![\d,]),*(?P<ms>{_NUM})\s*(?:ms|msecs?|milliseconds?)\b"
    rf"(?:,?\s+which)?\s+"
    rf"(?:is\s+(?:equivalent\s+to\s+|equal\s+to\s+)?|equals?\s+|corresponds?\s+to\s+"
    rf"|translates?\s+(?:in)?to\s+|amounts?\s+to\s+|=\s*|≈\s*|~\s*)"
    rf"(?:about\s+|approximately\s+|roughly\s+|around\s+|~\s*)?"
    rf"(?P<qty>{_NUM})\s*(?P<unit>(?a:seconds?|secs?|minutes?|mins?|hours?|hrs?))\b",
    re.IGNORECASE,
)

_SERVICE = r"[A-Za-z][A-Za-z0-9+\-]{1,15}"

_PORT_CLAIMS = (
    re.compile(
        rf"\b(?P<svc>{_SERVICE})\s+port(?:\s+number)?(?:\s+is|\s*[:=])?\s*(?P<port>\d{{1,5}})\b",
        re.IGNORECASE,
    ),
    re.compile(
        rf"\b(?P<svc>{_SERVICE})\s*\(\s*port\s+(?P<port>\d{{1,5}})\s*\)", re.IGNORECASE
    ),
    re.compile(
        rf"\bport\s+(?P<port>\d{{1,5}})\s*\(\s*(?P<svc>{_SERVICE})\s*\)", re.IGNORECASE
    ),
)

_FLAG = r"(?:FIN|SYN|RST|PSH|ACK|URG|ECE|CWR)"
_FLAG_LIST = rf"{_FLAG}(?:\s*(?:,|\+|\||/|and|&)\s*{_FLAG})*"

_TCP_FLAGS_CLAIM = re.compile(
    rf"(?i:\btcp[\s_]?flags?\b)[^.\n]{{0,60}}?\b(?P<value>\d{{1,3}})\b"
    rf"[^.\n]{{0,40}}?(?i:\(|\bmeans?\b|\bindicates?\b|\bdecodes?\s+to\b"
    rf"|\bcorresponds?\s+to\b|\brepresents?\b|[:=])\s*"
    rf"(?P<flags>{_FLAG_LIST})\)?"
)

# No flag name contains "and", so it splits "SYNandACK" as well as "SYN and ACK".
_FLAG_SPLIT = re.compile(r"[,+|/&]|and")


def check_factual_claims(text: str) -> list[CheckFinding]:
    """Verify checkable factual claims in the explanation text.

    Covers millisecond duration conversions (5% tolerance), well-known
    service port numbers against the bundled subset, and TCP flag-bitmask
    decodings. Prose that matches none of the claim patterns produces no
    finding.
    """
    findings: list[CheckFinding] = []
    port_table = well_known_ports()

    for match in _DURATION_CLAIM.finditer(text):
        ms = Decimal(match.group("ms").replace(",", ""))
        claimed = Decimal(match.group("qty").replace(",", ""))
        unit = match.group("unit")
        actual = milliseconds_to(ms, unit)
        if actual == 0:
            ok = claimed == 0
        else:
            ok = abs(claimed - actual) <= actual * CONVERSION_TOLERANCE
        if not ok:
            findings.append(
                CheckFinding(
                    kind="arithmetic_error",
                    detail=(
                        f"{match.group('ms')} ms is {actual:.2f} "
                        f"{unit}, not {match.group('qty')}"
                    ),
                    span=(match.start("ms"), match.end()),
                )
            )

    for claim_re in _PORT_CLAIMS:
        for match in claim_re.finditer(text):
            service = match.group("svc").upper()
            expected = port_table.get(service)
            if expected is None:
                continue
            claimed_port = int(match.group("port"))
            if claimed_port != expected:
                findings.append(
                    CheckFinding(
                        kind="fact_error",
                        detail=f"{service} uses port {expected}, not {claimed_port}",
                        span=match.span(),
                    )
                )

    for match in _TCP_FLAGS_CLAIM.finditer(text):
        value = int(match.group("value"))
        if value > 255:
            continue
        claimed_flags = frozenset(
            token.strip().upper()
            for token in _FLAG_SPLIT.split(match.group("flags"))
            if token.strip()
        )
        actual_flags = decode_tcp_flags(value)
        if claimed_flags != actual_flags:
            findings.append(
                CheckFinding(
                    kind="fact_error",
                    detail=(
                        f"TCP flag bitmask {value} decodes to "
                        f"{format_flag_set(actual_flags)}, "
                        f"not {format_flag_set(claimed_flags)}"
                    ),
                    span=match.span(),
                )
            )
    return findings


def run_all_checks(text: str, record: FlowRecord, catalog: FeatureCatalog) -> list[CheckFinding]:
    """Feature consistency plus factual claims, ordered by span."""
    mentions = extract_feature_mentions(text, catalog)
    findings = check_feature_consistency(mentions, record, catalog)
    findings.extend(check_factual_claims(text))
    findings.sort(key=lambda f: f.span)
    return findings
