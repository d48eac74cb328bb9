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
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, Overflow, localcontext
from functools import lru_cache
from typing import Iterator

from .catalog import FeatureCatalog
from .flows import FlowRecord, clip
from .protocols import registry_rows

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
    rows = registry_rows("well_known_ports.tsv")
    return {service.upper(): int(port) for service, port, _ in rows}


#: Milliseconds per duration unit, by every spelling the checkers accept.
_MS_PER = {
    **dict.fromkeys(("ms", "msec", "msecs", "millisecond", "milliseconds"), Decimal(1)),
    **dict.fromkeys(("s", "sec", "secs", "second", "seconds"), Decimal(1000)),
    **dict.fromkeys(("min", "mins", "minute", "minutes"), Decimal(60000)),
    **dict.fromkeys(("h", "hr", "hrs", "hour", "hours"), Decimal(3600000)),
}


def milliseconds_to(value_ms: int | float | Decimal, unit: str) -> Decimal:
    """Exact conversion of a millisecond count into seconds/minutes/hours."""
    per = _MS_PER.get(unit.lower().rstrip("."))
    if per is None or per == 1:
        raise ValueError(f"unsupported duration unit {unit!r}")
    return Decimal(str(value_ms)) / per


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


# Written-unit grammar. Whole words (durations, packets, bytes, bits) match
# in any letter case. Other units are a decimal or binary prefix, then the
# case-sensitive bits/bytes letter ("bps" is bits per second, "Bps" bytes
# per second), then an optional rate suffix. The ASCII gate comes first:
# lower-cased, the Kelvin sign U+212A would spell a "k".
_UNIT_TOKEN = re.compile(r"^([A-Za-z]+(?:/s)?)$")
_DATA_UNIT = re.compile(r"(?:([kKmMgGtT])([iI]?))?([bB])(ps|PS|/s)?")
_PREFIX_POWER = {"": 0, "k": 1, "m": 2, "g": 3, "t": 4}

_WORD_UNITS = {
    **{word: ("time", per) for word, per in _MS_PER.items()},
    **dict.fromkeys(("packet", "packets", "pkt", "pkts"), ("count", Decimal(1))),
    **dict.fromkeys(("byte", "bytes"), ("bytes", Decimal(1))),
    **dict.fromkeys(("bit", "bits"), ("bits", Decimal(1))),
}


def parse_written_unit(token: str) -> tuple[str, Decimal] | None:
    """Classify a written unit into (dimension, multiplier to base unit).

    Dimensions: ``bytes`` (base byte), ``byte_rate`` (base byte/s),
    ``bit_rate`` (base bit/s), ``bits`` (base bit), ``time`` (base ms),
    ``count``. Unrecognised tokens return None.
    """
    if not token or not _UNIT_TOKEN.match(token):
        return None
    word = _WORD_UNITS.get(token.lower())
    if word is not None:
        return word
    match = _DATA_UNIT.fullmatch(token)
    if match is None:
        return None
    prefix, binary, letter, rate = match.groups(default="")
    name = "bit" if letter == "b" else "byte"
    base = 1024 if binary else 1000
    return (f"{name}_rate" if rate else f"{name}s", Decimal(base ** _PREFIX_POWER[prefix.lower()]))


#: The quantity each catalog unit tag and each written dimension measures.
#: Bits against bytes is a unit mismatch; other unequal quantities are not
#: judged.
_QUANTITY = {
    "bytes": "bytes",
    "byte_rate": "bytes",
    "bits": "bits",
    "bit_rate": "bits",
    "bits-per-second": "bits",
    "time": "time",
    "milliseconds": "time",
    "count": "count",
}


_WORD_CHARS = re.compile(r"\w*")
_UNKNOWN_FEATURE = re.compile(r"[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+")

_NUMBER_VALUE = re.compile(
    r"\s*[:=(]\s*(?P<value>-?\d[\d,]*(?:\.\d+)?)(?:\s*(?P<unit>[A-Za-z]+(?:/s)?))?"
)
_ADDRESS_VALUE = re.compile(r"\s*[:=(]\s*(?P<value>\d{1,3}(?:\.\d{1,3}){3})")


def _underscored_words(text: str) -> Iterator[tuple[int, int]]:
    """Spans of the identifiers (``\\w`` runs) of ``text`` that hold a ``_``.

    Each ``_`` found is widened to its run: back to the end of the run
    before (read in a reversed copy of the gap, so no character is read
    twice), and forward with one match.
    """
    end = 0
    while (found := text.find("_", end)) >= 0:
        start = found - _WORD_CHARS.match(text[end:found][::-1]).end()
        end = _WORD_CHARS.match(text, found).end()
        yield start, end


def extract_feature_mentions(text: str, catalog: FeatureCatalog) -> list[FeatureMention]:
    """Find catalog feature references and catalog-shaped unknown tokens, in text order.

    An identifier (a ``\\w`` run) that spells a catalog name in any letter
    case is a known mention; one shaped like a catalog name (upper-case
    words joined by underscores) is an unknown mention. Only identifiers
    that hold a ``_``, and those the catalog finds for its names without
    one, are looked at: no other identifier can be either. Adjacent
    ``name: value``, ``name = value`` and ``name (value)`` forms capture
    the quoted value and, when present, the unit as written.
    """
    spans = list(_underscored_words(text))
    plain = [word.span() for word in catalog.plain_name_words(text)]
    if plain:
        spans = sorted(spans + plain)
    mentions: list[FeatureMention] = []
    for start, end in spans:
        token = text[start:end]
        name = catalog.name_for(token)
        if name is not None:
            mentions.append(_mention_with_value(text, start, end, name, True, catalog))
        elif _UNKNOWN_FEATURE.fullmatch(token):
            mentions.append(_mention_with_value(text, start, end, token, False, catalog))
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
    return FeatureMention(
        feature=feature,
        known=known,
        span=(start, span_end),
        raw_value=raw,
        value=raw if is_address else Decimal(raw.replace(",", "")),
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
        value, multiplier = mention.value, Decimal(1)

        written = parse_written_unit(mention.unit) if mention.unit is not None else None
        quantity = _QUANTITY.get(spec.unit)
        if written is not None and quantity is not None:
            dimension, multiplier = written
            if _QUANTITY[dimension] != quantity:
                if {_QUANTITY[dimension], quantity} == {"bits", "bytes"}:
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
                continue  # any other unrelated unit is too ambiguous to judge
            if value is None or not isinstance(recorded, (int, Decimal)):
                continue
            # multiplying by 1 would round a value of over 28 digits; a value
            # scaled past the exponent range becomes Infinity, which then
            # differs from any recorded value
            if multiplier != 1:
                with localcontext() as ctx:
                    ctx.traps[Overflow] = False
                    value = Decimal(value) * multiplier

        if value is None or recorded is None:
            continue
        if isinstance(recorded, (int, Decimal)) and isinstance(value, Decimal):
            finding = _compare_values(mention, value, recorded, multiplier)
            if finding:
                findings.append(finding)
        elif isinstance(recorded, str) and isinstance(value, str) and value != recorded:
            findings.append(
                CheckFinding(
                    kind="value_mismatch",
                    detail=(
                        f"explanation quotes {mention.feature} as {value}, "
                        f"but the record has {recorded}"
                    ),
                    span=mention.span,
                )
            )
    return findings


def _compare_values(
    mention: FeatureMention,
    normalized: Decimal,
    recorded: int | Decimal,
    multiplier: Decimal,
) -> CheckFinding | None:
    recorded_dec = Decimal(recorded)
    if multiplier == 1:
        equal = normalized == recorded_dec
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
# a comma. The second unit is matched in ASCII only: ignoring case, U+017F
# (long s) would match the "s" of "mins", and milliseconds_to converts no
# such spelling. Claims are found from their first unit (_duration_claims).
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
_LONGEST_SERVICE = 16

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


def _duration_error(match: re.Match) -> str | None:
    claimed = Decimal(match["qty"].replace(",", ""))
    # a quoted number's exponent is at most its length, far inside this range,
    # so the arithmetic cannot overflow however long the number is
    with localcontext(Context(Emax=MAX_EMAX, Emin=MIN_EMIN)):
        actual = milliseconds_to(Decimal(match["ms"].replace(",", "")), match["unit"])
        if abs(claimed - actual) <= actual * CONVERSION_TOLERANCE:
            return None
    ms, converted, qty = clip(match["ms"]), clip(f"{actual:.2f}"), clip(match["qty"])
    return f"{ms} ms is {converted} {match['unit']}, not {qty}"


def _port_error(match: re.Match) -> str | None:
    service = match["svc"].upper()
    expected = well_known_ports().get(service)
    claimed = int(match["port"])
    if expected is None or claimed == expected:
        return None
    return f"{service} uses port {expected}, not {claimed}"


def _flags_error(match: re.Match) -> str | None:
    value = int(match["value"])
    if value > 255:
        return None
    claimed = frozenset(
        token.strip().upper() for token in _FLAG_SPLIT.split(match["flags"]) if token.strip()
    )
    actual = decode_tcp_flags(value)
    if claimed == actual:
        return None
    return (
        f"TCP flag bitmask {value} decodes to {format_flag_set(actual)}, "
        f"not {format_flag_set(claimed)}"
    )


def _anchored(pattern: re.Pattern[str], anchor: str, back: int = 0):
    """A finder of the claims ``pattern.finditer`` would find, looked for
    only near the matches of ``anchor``.

    Every claim holds its anchor, which begins at most ``back`` characters
    past the claim's start (for ``back`` > 0, once the whitespace just
    before the anchor is stepped over: that is where a service name ends,
    and one is at most ``_LONGEST_SERVICE`` characters long). A window
    pattern tries the ``back`` + 1 starts from where it is matched; group
    ``claim`` is a match of ``pattern``.

    After a claim ending at ``end``, the next one starts at ``end`` or later,
    so its anchor does too. The first anchor from there, stepped back over
    whitespace and by ``back``, bounds where that claim can start: no claim
    starts in between. Either it starts in the window there, or its anchor
    lies past this one. Each anchor is found once and each window holds at
    most ``back`` + 1 starts, so the time stays linear in the text length.
    """
    window = re.compile(rf"(?s:.){{0,{back}}}?(?P<claim>{pattern.pattern})", pattern.flags)
    anchor_pattern = re.compile(anchor, re.IGNORECASE)

    def claims(text: str) -> Iterator[re.Match[str]]:
        end = after = 0
        while (hit := anchor_pattern.search(text, after)) is not None:
            start = hit.start()
            if back:
                while start > end and text[start - 1].isspace():
                    start -= 1
            match = window.match(text, max(end, start - back))
            if match is None:
                after = hit.start() + 1
            else:
                yield match
                end = after = match.end()

    return claims


#: the first unit of a duration claim, as _DURATION_CLAIM matches it
_DURATION_UNIT = re.compile("ms|millisecond", re.IGNORECASE)


def _duration_claims(text: str) -> Iterator[re.Match[str]]:
    """The claims ``_DURATION_CLAIM.finditer`` would find, looked for from
    their first unit.

    A claim's number runs up to the whitespace before that unit, and holds
    only digits, commas and at most one point. So from each unit, step back
    over whitespace and then over digits, commas and points: the claim
    starts in there, where the stepping stopped or just after a point, and
    the first such start that matches is the one ``finditer`` finds. Each
    character is stepped over from one unit only (a unit begins with a
    letter), and only the last two starts read up to the unit, so the time
    stays linear in the text length.
    """
    end = after = 0
    while (hit := _DURATION_UNIT.search(text, after)) is not None:
        after = hit.start() + 1
        number_end = hit.start()
        while number_end > end and text[number_end - 1].isspace():
            number_end -= 1
        start = number_end
        while start > end and (text[start - 1] in ",." or text[start - 1].isdecimal()):
            start -= 1
        while start < number_end:
            match = _DURATION_CLAIM.match(text, start)
            if match is not None:
                yield match
                end = after = match.end()
                break
            start = text.find(".", start, number_end) + 1 or number_end


#: Claim finders in scan order: (finder, finding kind, the group whose start
#: begins the finding's span, check returning the detail or None). Each port
#: pattern scans on its own: one text can hold overlapping claims.
_CLAIMS = (
    (_duration_claims, "arithmetic_error", "ms", _duration_error),
    (_anchored(_PORT_CLAIMS[0], r"\sport", _LONGEST_SERVICE), "fact_error", "claim", _port_error),
    (_anchored(_PORT_CLAIMS[1], r"\(\s*port", _LONGEST_SERVICE), "fact_error", "claim",
     _port_error),
    (_anchored(_PORT_CLAIMS[2], "port"), "fact_error", "claim", _port_error),
    (_anchored(_TCP_FLAGS_CLAIM, "tcp"), "fact_error", "claim", _flags_error),
)


def check_factual_claims(text: str) -> list[CheckFinding]:
    """Verify checkable factual claims in the explanation text.

    Covers millisecond duration conversions (5% tolerance), well-known
    service port numbers against the bundled subset, and TCP flag-bitmask
    decodings. Prose that matches none of the claim patterns produces no
    finding.
    """
    return [
        CheckFinding(kind=kind, detail=detail, span=(match.start(start), match.end()))
        for claims, kind, start, check in _CLAIMS
        for match in claims(text)
        if (detail := check(match)) is not None
    ]


def run_all_checks(text: str, record: FlowRecord, catalog: FeatureCatalog) -> list[CheckFinding]:
    """Feature consistency plus factual claims, ordered by span."""
    mentions = extract_feature_mentions(text, catalog)
    findings = check_feature_consistency(mentions, record, catalog)
    findings.extend(check_factual_claims(text))
    findings.sort(key=lambda f: f.span)
    return findings
