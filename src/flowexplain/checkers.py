"""Machine-assisted consistency checks over generated explanations.

The checkers pre-flag likely problems: feature values quoted differently
from the record, bits/bytes unit confusion, wrong duration conversions,
wrong well-known-port claims and wrong TCP-flag decodings. They are
deliberately conservative; prose they cannot parse yields no finding.
Findings are advisory and never substitute for a human verdict.
"""

from __future__ import annotations

import re
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, Overflow, localcontext
from functools import lru_cache
from operator import itemgetter
from typing import Iterator, NamedTuple

from .catalog import FeatureCatalog, fold
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


class FeatureMention(NamedTuple):
    """One reference to a (catalog or unknown) feature in explanation text."""

    feature: str
    known: bool
    span: tuple[int, int]
    raw_value: str | None = None
    value: Decimal | str | None = None
    unit: str | None = None


class CheckFinding(NamedTuple):
    """A single pre-flagged problem, anchored to a span of the text.

    ``kind`` is one of :data:`FINDING_KINDS`; ``severity`` is ``error`` or
    ``warning``.
    """

    kind: str
    detail: str
    span: tuple[int, int]
    severity: str = "error"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "span": list(self.span),
            "severity": self.severity,
        }


#: builds a record from a tuple of its fields, without the keyword handling
#: of its constructor
_new = tuple.__new__
_SPAN = itemgetter(2)


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
    return _ascii_unit(token)


def _ascii_unit(token: str) -> tuple[str, Decimal] | None:
    """:func:`parse_written_unit` of a token that passed its ASCII gate."""
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

# the unit group is what _UNIT_TOKEN lets through
_NUMBER_VALUE = re.compile(
    r"\s*[:=(]\s*(?P<value>-?\d[\d,]*(?:\.\d+)?)(?:\s*(?P<unit>[A-Za-z]+(?:/s)?))?"
)
_ADDRESS_VALUE = re.compile(r"\s*[:=(]\s*(?P<value>\d{1,3}(?:\.\d{1,3}){3})")


def _identifiers(text: str, folded: str, catalog: FeatureCatalog) -> list[tuple[int, int]]:
    """Spans, in text order, of the identifiers (``\\w`` runs) of ``text``
    that can be mentions: those that hold a ``_`` and those the catalog
    finds for its names without one.

    Each ``_`` found is widened to its identifier: back to the end of the
    one before (read in a reversed copy of the text, so no character is
    read twice), and forward with one match.
    """
    spans = []
    end = 0
    found = text.find("_")
    if found >= 0:
        size, backwards, word = len(text), text[::-1], _WORD_CHARS.match
        while found >= 0:
            start = size - word(backwards, size - found, size - end).end()
            end = word(text, found).end()
            spans.append((start, end))
            found = text.find("_", end)
    plain = [word.span() for word in catalog.plain_name_words(text, folded)]
    return sorted(spans + plain) if plain else spans


def _mentions(text: str, folded: str, catalog: FeatureCatalog) -> list[tuple]:
    """The mentions of :func:`extract_feature_mentions`, each as its
    fields, then its feature's spec (None for an unknown feature) and its
    written unit, parsed once (None without one)."""
    mentions = []
    name_for, spec_of = catalog.name_for, catalog.get
    for start, end in _identifiers(text, folded, catalog):
        token = text[start:end]
        feature = name_for(token)
        if feature is not None:
            spec = spec_of(feature)
        elif _UNKNOWN_FEATURE.fullmatch(token):
            feature, spec = token, None
        else:
            continue
        known = spec is not None
        if known and spec.value_kind == "address":
            value = _ADDRESS_VALUE.match(text, end)
            if value is not None:
                raw = value["value"]
                mentions.append((feature, True, (start, value.end()), raw, raw, None, spec, None))
                continue
        elif (value := _NUMBER_VALUE.match(text, end)) is not None:
            raw, unit = value.group("value", "unit")
            written = None if unit is None else _ascii_unit(unit)
            if written is None:
                unit, end = None, value.end("value")
            else:
                end = value.end()
            number = Decimal(raw.replace(",", ""))
            mentions.append((feature, known, (start, end), raw, number, unit, spec, written))
            continue
        mentions.append((feature, known, (start, end), None, None, None, spec, None))
    return mentions


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
    return [_new(FeatureMention, mention[:6]) for mention in _mentions(text, fold(text), catalog)]


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
    checked = [
        (
            *mention,
            catalog.get(mention.feature) if mention.known else None,
            None if mention.unit is None else parse_written_unit(mention.unit),
        )
        for mention in mentions
    ]
    return _mention_findings(checked, record.values)


def _mention_findings(mentions: list[tuple], values: dict) -> list[CheckFinding]:
    """The findings of :func:`check_feature_consistency` for ``mentions``
    as :func:`_mentions` gives them."""
    findings: list[CheckFinding] = []
    for feature, _, span, raw, value, unit, spec, written in mentions:
        if spec is None:
            detail = f"{feature} is not a feature of this flow schema"
            findings.append(_new(CheckFinding, ("unknown_feature", detail, span, "warning")))
            continue
        recorded = values.get(feature)
        multiplier = 1
        if written is not None and (quantity := _QUANTITY.get(spec.unit)) is not None:
            dimension, multiplier = written
            if _QUANTITY[dimension] != quantity:
                if {_QUANTITY[dimension], quantity} == {"bits", "bytes"}:
                    detail = (
                        f"{feature} is measured in {spec.unit}, "
                        f"but the explanation writes it as {unit!r}"
                    )
                    findings.append(_new(CheckFinding, ("unit_mismatch", detail, span, "error")))
                continue  # any other unrelated unit is too ambiguous to judge
            if value is None or not isinstance(recorded, (int, Decimal)):
                continue
            # multiplying by 1 would round a value of over 28 digits; a value
            # scaled past the exponent range becomes Infinity, which then
            # differs from any recorded value
            if multiplier != 1:
                with localcontext() as ctx:
                    ctx.traps[Overflow] = False
                    value = value * multiplier
        # an equal value is within any tolerance
        if value is None or recorded is None or value == recorded:
            continue
        if isinstance(value, Decimal) and isinstance(recorded, (int, Decimal)):
            if multiplier != 1 and abs(value - recorded) <= abs(recorded) * SCALED_VALUE_TOLERANCE:
                continue
            quoted = clip(raw or str(value))
            if unit:
                quoted += f" {unit}"
        elif isinstance(value, str) and isinstance(recorded, str):
            quoted = value
        else:
            continue
        detail = f"explanation quotes {feature} as {quoted}, but the record has {recorded}"
        findings.append(_new(CheckFinding, ("value_mismatch", detail, span, "error")))
    return findings


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
_FLAG_SETS = [decode_tcp_flags(value) for value in range(256)]


#: the decimal context of duration arithmetic: a quoted number's exponent is
#: at most its length, far inside this range, so the arithmetic cannot
#: overflow however long the number is
_DURATION_CONTEXT = Context(Emax=MAX_EMAX, Emin=MIN_EMIN)


def _duration_error(match: re.Match) -> str | None:
    """:func:`milliseconds_to`, checked against the claimed quantity; each
    step is an operation of ``_DURATION_CONTEXT``."""
    ms, qty, unit = match.group("ms", "qty", "unit")
    context = _DURATION_CONTEXT
    claimed = Decimal(qty.replace(",", ""))
    actual = context.divide(Decimal(ms.replace(",", "")), _MS_PER[unit.lower()])
    error = context.abs(context.subtract(claimed, actual))
    if error <= context.multiply(actual, CONVERSION_TOLERANCE):
        return None
    return f"{clip(ms)} ms is {clip(f'{actual:.2f}')} {unit}, not {clip(qty)}"


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
        map(str.upper, filter(None, map(str.strip, _FLAG_SPLIT.split(match["flags"]))))
    )
    actual = _FLAG_SETS[value]
    if claimed == actual:
        return None
    return (
        f"TCP flag bitmask {value} decodes to {format_flag_set(actual)}, "
        f"not {format_flag_set(claimed)}"
    )


def _hits(folded: str, literal: str) -> list[int]:
    """Every offset at which ``literal`` occurs in ``folded``, in order.

    Each search starts one past the last hit, so no character is searched
    twice for one literal.
    """
    hits = []
    at = folded.find(literal)
    while at >= 0:
        hits.append(at)
        at = folded.find(literal, at + 1)
    return hits


def _anchored(pattern: re.Pattern[str], back: int = 0):
    """A finder of the claims ``pattern.finditer`` would find, looked for
    only near the anchors it is given.

    Every claim holds its anchor, which begins at most ``back`` characters
    past the claim's start (for ``back`` > 0, once the whitespace just
    before the anchor is stepped over: that is where a service name ends,
    and one is at most ``_LONGEST_SERVICE`` characters long). The finder
    takes the text and the offsets of every anchor in it, in order. A window
    pattern tries the ``back`` + 1 starts from where it is matched; group
    ``claim`` is a match of ``pattern``.

    After a claim ending at ``end``, the next one starts at ``end`` or later,
    so its anchor does too. The first anchor from there, stepped back over
    whitespace and by ``back``, bounds where that claim can start: no claim
    starts in between. Either it starts in the window there, or its anchor
    lies past this one. Each anchor is taken once and each window holds at
    most ``back`` + 1 starts, so the time stays linear in the text length.
    """
    window = re.compile(rf"(?s:.){{0,{back}}}?(?P<claim>{pattern.pattern})", pattern.flags)

    def claims(text: str, anchors: list[int]) -> Iterator[re.Match[str]]:
        end = 0
        for start in anchors:
            if start < end:
                continue
            if back:
                while start > end and text[start - 1].isspace():
                    start -= 1
            match = window.match(text, max(end, start - back))
            if match is not None:
                yield match
                end = match.end()

    return claims


def _duration_claims(text: str, folded: str) -> Iterator[re.Match[str]]:
    """The claims ``_DURATION_CLAIM.finditer`` would find, looked for from
    their first unit: each ``ms`` and ``millisecond`` of ``folded``, which
    is ``fold(text)``.

    A claim's number runs up to the whitespace before that unit, and holds
    only digits, commas and at most one point. So from each unit, step back
    over whitespace and then over digits, commas and points: the claim
    starts in there, where the stepping stopped or just after a point, and
    the first such start that matches is the one ``finditer`` finds. Each
    character is stepped over from one unit only (a unit begins with a
    letter), and only the last two starts read up to the unit, so the time
    stays linear in the text length.
    """
    end = 0
    for number_end in sorted(_hits(folded, "ms") + _hits(folded, "millisecond")):
        if number_end < end:
            continue
        while number_end > end and text[number_end - 1].isspace():
            number_end -= 1
        start = number_end
        while start > end and (text[start - 1] in ",." or text[start - 1].isdecimal()):
            start -= 1
        while start < number_end:
            match = _DURATION_CLAIM.match(text, start)
            if match is not None:
                yield match
                end = match.end()
                break
            start = text.find(".", start, number_end) + 1 or number_end


_SERVICE_PORT = _anchored(_PORT_CLAIMS[0], _LONGEST_SERVICE)
_SERVICE_PAREN_PORT = _anchored(_PORT_CLAIMS[1], _LONGEST_SERVICE)
_PORT_PAREN_SERVICE = _anchored(_PORT_CLAIMS[2])
_TCP_FLAGS = _anchored(_TCP_FLAGS_CLAIM)


def _parenthesised(text: str, ports: list[int]) -> list[int]:
    """The offset of the ``(`` before each of ``ports`` that has only
    whitespace between them. A whitespace run lies before one port only,
    so each character is stepped over once."""
    found = []
    for at in ports:
        while at and text[at - 1].isspace():
            at -= 1
        if at and text[at - 1] == "(":
            found.append(at - 1)
    return found


def check_factual_claims(text: str) -> list[CheckFinding]:
    """Verify checkable factual claims in the explanation text.

    Covers millisecond duration conversions (5% tolerance), well-known
    service port numbers against the bundled subset, and TCP flag-bitmask
    decodings. Prose that matches none of the claim patterns produces no
    finding.
    """
    return _claim_findings(text, fold(text))


def _claim_findings(text: str, folded: str) -> list[CheckFinding]:
    """:func:`check_factual_claims`, with ``folded`` = ``fold(text)``.

    The anchors are found in ``folded`` with ``str.find``: ``ms`` and
    ``millisecond`` for durations; ``port`` after whitespace, ``(`` then
    ``port``, and ``port`` for the three port forms; ``tcp`` for flags.
    Each port form scans on its own: one text can hold overlapping claims.
    """
    ports = _hits(folded, "port")
    spaced = [at - 1 for at in ports if at and text[at - 1].isspace()]
    parenthesised = _parenthesised(text, ports)
    # (finding kind, the group whose start begins the finding's span, check
    # returning the detail or None, claims), one claim family after another
    claims = (
        ("arithmetic_error", "ms", _duration_error, _duration_claims(text, folded)),
        ("fact_error", "claim", _port_error, _SERVICE_PORT(text, spaced)),
        ("fact_error", "claim", _port_error, _SERVICE_PAREN_PORT(text, parenthesised)),
        ("fact_error", "claim", _port_error, _PORT_PAREN_SERVICE(text, ports)),
        ("fact_error", "claim", _flags_error, _TCP_FLAGS(text, _hits(folded, "tcp"))),
    )
    return [
        _new(CheckFinding, (kind, detail, (match.start(start), match.end()), "error"))
        for kind, start, check, matches in claims
        for match in matches
        if (detail := check(match)) is not None
    ]


def run_all_checks(text: str, record: FlowRecord, catalog: FeatureCatalog) -> list[CheckFinding]:
    """Feature consistency plus factual claims, ordered by span.

    The text is folded once (:func:`flowexplain.catalog.fold`), and every
    literal anchor, of a claim or of a feature name without ``_``, is found
    in the folded copy.
    """
    folded = fold(text)
    findings = _mention_findings(_mentions(text, folded, catalog), record.values)
    findings.extend(_claim_findings(text, folded))
    findings.sort(key=_SPAN)
    return findings
