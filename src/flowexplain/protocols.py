"""Numeric protocol identifier to name mapping.

Both registries ship as versioned snapshot files inside the package, so
lookups are deterministic and never touch the network. Mapping is total:
unregistered identifiers fall back to ``protocol <id>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from functools import lru_cache
from importlib import resources
from typing import Iterator


@dataclass(frozen=True)
class ProtocolInfo:
    """Resolved protocol identity for a transport or application id."""

    numeric_id: int | tuple[int, int]
    name: str
    layer: str  # "L4" or "L7"
    description: str


def registry_rows(resource_name: str) -> Iterator[list[str]]:
    """The three TAB-separated fields of each row of a bundled registry file.

    Blank lines and ``#`` comment lines are skipped.
    """
    text = resources.files("flowexplain").joinpath(f"data/{resource_name}").read_text("utf-8")
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            yield line.split("\t", 2)


def _load_registry(resource_name: str) -> dict[int, tuple[str, str]]:
    rows = registry_rows(resource_name)
    return {int(ident): (name, description) for ident, name, description in rows}


@lru_cache(maxsize=1)
def _l4_registry() -> dict[int, tuple[str, str]]:
    return _load_registry("l4_protocols.tsv")


@lru_cache(maxsize=1)
def _l7_registry() -> dict[int, tuple[str, str]]:
    return _load_registry("l7_protocols.tsv")


def map_l4_protocol(protocol_id: int) -> ProtocolInfo:
    """Resolve a transport protocol number (0..255) to its name."""
    if not 0 <= protocol_id <= 255:
        raise ValueError(f"transport protocol id out of range 0..255: {protocol_id}")
    entry = _l4_registry().get(protocol_id)
    if entry is None:
        return ProtocolInfo(
            numeric_id=protocol_id,
            name=f"protocol {protocol_id}",
            layer="L4",
            description="unregistered transport protocol number",
        )
    name, description = entry
    return ProtocolInfo(numeric_id=protocol_id, name=name, layer="L4", description=description)


def parse_l7_code(code: str | Decimal | int) -> tuple[int, int]:
    """Split an application protocol code into its (master, sub) pair.

    Codes are written ``master`` or ``master.sub``; both parts are
    non-negative integers. The dot is a separator, not a decimal point,
    so the raw text is split rather than interpreted numerically.
    """
    text = str(code).strip()
    master_text, _, sub_text = text.partition(".")
    try:
        master = int(master_text)
        sub = int(sub_text) if sub_text else 0
    except ValueError:
        raise ValueError(f"unparsable application protocol code: {code!r}") from None
    if master < 0 or sub < 0:
        raise ValueError(f"application protocol code parts must be non-negative: {code!r}")
    return master, sub


def map_l7_protocol(code: str | Decimal | int) -> ProtocolInfo:
    """Resolve an application protocol code to its name by master id."""
    master, sub = parse_l7_code(code)
    entry = _l7_registry().get(master)
    if entry is None:
        name = f"protocol {master}"
        description = "unregistered application protocol code"
    else:
        name, description = entry
    if sub:
        description = (
            f"{description}; sub-classification id {sub}" if description
            else f"sub-classification id {sub}"
        )
    return ProtocolInfo(numeric_id=(master, sub), name=name, layer="L7", description=description)
