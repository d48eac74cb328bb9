"""Reference written-unit grammar and duration conversion for differential tests.

These are the suffix-stripping ``parse_written_unit`` and the spelling-list
``milliseconds_to`` that the checkers used before their units became
tables. ``tests/test_checkers.py`` checks that the table-driven versions in
``flowexplain.checkers`` answer exactly as these do. Do not edit them to
match a change in the package: they are the behaviour the package keeps.
"""

from __future__ import annotations

import re
from decimal import Decimal

_MS_PER_UNIT = {
    "second": Decimal(1000),
    "minute": Decimal(60000),
    "hour": Decimal(3600000),
}

_SCALE = {"": 1, "k": 10**3, "m": 10**6, "g": 10**9, "t": 10**12}
_IEC_SCALE = {"ki": 2**10, "mi": 2**20, "gi": 2**30, "ti": 2**40}

_UNIT_TOKEN = re.compile(r"^([A-Za-z]+(?:/s)?)$")


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
    canonical = _canonical_time_unit(unit)
    if canonical is None or canonical == "millisecond":
        raise ValueError(f"unsupported duration unit {unit!r}")
    return Decimal(str(value_ms)) / _MS_PER_UNIT[canonical]


def parse_written_unit(token: str) -> tuple[str, Decimal] | None:
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
