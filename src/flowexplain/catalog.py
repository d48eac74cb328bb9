"""Feature-specification catalog for NetFlow records.

The catalog is the single source of truth for feature names, definitions,
units and value kinds. It drives dataset parsing, flow rendering, the
specification section of augmented prompts, and the consistency checkers.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterator

from .errors import InputError

UNITS = frozenset(
    {
        "bytes",
        "bits-per-second",
        "milliseconds",
        "count",
        "port",
        "address",
        "protocol-id",
        "flag-bitmask",
        "dimensionless",
    }
)

VALUE_KINDS = frozenset({"integer", "decimal", "address", "string"})

#: Unit tags whose numeric values must be non-negative.
NON_NEGATIVE_UNITS = frozenset({"bytes", "count", "milliseconds"})

#: Human-readable unit labels used when the catalog is rendered into a prompt.
UNIT_LABELS = {
    "bytes": "bytes",
    "bits-per-second": "bits per second",
    "milliseconds": "milliseconds",
    "count": "count",
    "port": "port number",
    "address": "IP address",
    "protocol-id": "protocol identifier",
    "flag-bitmask": "flag bitmask",
    "dimensionless": "dimensionless",
}

DEFAULT_CATALOG_RESOURCE = "nfv2_catalog.json"

#: Feature names are single identifiers, which is what lets the checkers
#: find them in prose as whole word runs.
_FEATURE_NAME = re.compile(r"\w+")
_WORD_START = re.compile(r"(?<!\w)\w+")


def fold(text: str) -> str:
    """``text`` in lower case, with ``İ``, ``ı`` and ``ſ`` folded to ``i``,
    ``i`` and ``s``: one character for each of ``text``'s, at its offset.

    A character folds to an ASCII letter exactly when ``re.IGNORECASE``
    matches it to that letter: the only other characters it matches to one
    are those three and the Kelvin sign, which ``str.lower`` maps to ``k``.
    ``"İ".lower()`` is two characters long, hence the first replacement.
    So a case-insensitive literal of ASCII letters matches where its lower
    case occurs in the folded text.
    """
    return text.replace("İ", "i").lower().replace("ı", "i").replace("ſ", "s")


class CatalogError(InputError, ValueError):
    """Raised when a catalog document is malformed or violates its invariants."""


@dataclass(frozen=True)
class FeatureSpec:
    """Name, definition, unit and value kind of one flow feature."""

    name: str
    definition: str
    unit: str
    value_kind: str

    def __post_init__(self) -> None:
        if not _FEATURE_NAME.fullmatch(self.name):
            raise CatalogError(
                f"feature name {self.name!r} must be non-empty letters, digits and underscores"
            )
        if self.unit not in UNITS:
            raise CatalogError(f"unknown unit tag {self.unit!r} for feature {self.name}")
        if self.value_kind not in VALUE_KINDS:
            raise CatalogError(
                f"unknown value kind {self.value_kind!r} for feature {self.name}"
            )


@dataclass(frozen=True)
class FeatureCatalog:
    """Versioned, ordered feature schema.

    Feature order is fixed and equals the dataset column order. Lookup by
    name is total over the listed features.
    """

    version: str
    features: tuple[FeatureSpec, ...]
    label_column: str
    attack_column: str
    _by_name: dict[str, FeatureSpec] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _by_upper_name: dict[str, str] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _plain_names: re.Pattern[str] | None = field(
        init=False, repr=False, compare=False, default=None
    )
    _plain_literals: tuple[str, ...] = field(init=False, repr=False, compare=False, default=())
    #: the features' names, in catalog order
    feature_names: tuple[str, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        if not self.version:
            raise CatalogError("catalog version must be present")
        if not self.features:
            raise CatalogError("empty catalog: at least one feature is required")
        by_name: dict[str, FeatureSpec] = {}
        by_upper_name: dict[str, str] = {}
        for spec in self.features:
            if spec.name in by_name:
                raise CatalogError(f"duplicate feature name {spec.name!r}")
            by_name[spec.name] = spec
            by_upper_name.setdefault(spec.name.upper(), spec.name)
        object.__setattr__(self, "_by_name", by_name)
        object.__setattr__(self, "feature_names", tuple(by_name))
        object.__setattr__(self, "_by_upper_name", by_upper_name)
        plain = [(upper, len(name)) for upper, name in by_upper_name.items() if "_" not in name]
        if not all(upper.isascii() and len(upper) == length for upper, length in plain):
            object.__setattr__(self, "_plain_names", _words_matching(plain))
        else:
            object.__setattr__(self, "_plain_literals", tuple(upper.lower() for upper, _ in plain))

    def __len__(self) -> int:
        return len(self.features)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def name_for(self, token: str) -> str | None:
        """The feature name ``token`` spells letter for letter in any case, or None.

        Of names that differ only in case, the first in catalog order wins. A
        token whose upper-case form is longer than itself spells no name:
        "\\ufb02OW", with the ligature U+FB02, upper-cases to "FLOW".
        """
        name = self._by_upper_name.get(token.upper())
        return name if name is not None and len(name) == len(token) else None

    def plain_name_words(self, text: str, folded: str | None = None) -> Iterator[re.Match[str]]:
        """The words of ``text`` that match a name without ``_``, ignoring
        case, in no set order; ``folded`` is ``fold(text)``, if at hand.

        A word is a whole ``\\w`` run. Every word that :meth:`name_for` maps
        to such a name is among them, and only a word with ``_`` can spell
        any other name. When each such name upper-cases to as many ASCII
        characters, each is found in ``folded`` with ``str.find``: a word
        that upper-cases to it letter for letter folds to its lower case.
        Otherwise one pattern built from the names is searched.
        """
        if self._plain_names is not None:
            yield from self._plain_names.finditer(text)
            return
        if folded is None and self._plain_literals:
            folded = fold(text)
        for name in self._plain_literals:
            end = len(name)
            at = folded.find(name)
            while at >= 0:
                word = _WORD_START.match(text, at, at + end + 1)
                if word is not None and word.end() == at + end:
                    yield word
                at = folded.find(name, at + 1)

    def get(self, name: str) -> FeatureSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(f"feature {name!r} is not in catalog {self.version}") from None


def _words_matching(names: list[tuple[str, int]]) -> re.Pattern[str]:
    """A pattern for the whole words that match one of ``names``, ignoring case.

    ``names`` holds (upper-case form, length) pairs. Ignoring case, each
    letter matches every letter that upper-cases to it. A name whose upper
    case is longer than itself (it holds a letter such as "ß") stands for
    every word of its length instead. Each name is followed by a look back
    at the whole word it ends, so that a search can skip ahead to the names'
    first letters.
    """
    words = "|".join(
        rf"{re.escape(upper) if len(upper) == length else '.' * length}"
        rf"(?<=(?<!\w)\w{{{length}}})"
        for upper, length in names
    )
    return re.compile(rf"(?:{words})(?!\w)", re.IGNORECASE)


def load_catalog(source: str | Path | dict) -> FeatureCatalog:
    """Load a catalog from a JSON document (path or already-parsed mapping).

    Rejects documents with a missing version, an empty feature list,
    duplicate feature names, or unknown unit / value-kind tags.
    """
    if isinstance(source, (str, Path)):
        try:
            document = json.loads(Path(source).read_text(encoding="utf-8"))
        # ValueError: malformed JSON or UTF-8; RecursionError: JSON nested too deep
        except (OSError, ValueError, RecursionError) as exc:
            raise CatalogError(f"malformed catalog document {source}: {exc}") from exc
    else:
        document = source
    if not isinstance(document, dict):
        raise CatalogError("catalog document must be a JSON object")

    try:
        version = document["version"]
        raw_features = document["features"]
    except KeyError as exc:
        raise CatalogError(f"catalog document missing required key {exc}") from exc
    label_column = document.get("label_column", "Label")
    attack_column = document.get("attack_column", "Attack")

    if not isinstance(raw_features, list) or not raw_features:
        raise CatalogError("empty catalog: 'features' must be a non-empty list")
    features = []
    for entry in raw_features:
        try:
            features.append(
                FeatureSpec(
                    name=entry["name"],
                    definition=entry["definition"],
                    unit=entry["unit"],
                    value_kind=entry["value_kind"],
                )
            )
        except (KeyError, TypeError) as exc:
            raise CatalogError(f"malformed feature entry {entry!r}: {exc}") from exc
    return FeatureCatalog(
        version=version,
        features=tuple(features),
        label_column=label_column,
        attack_column=attack_column,
    )


@lru_cache(maxsize=1)
def default_catalog() -> FeatureCatalog:
    """The packaged 43-feature NetFlow-v2 catalog."""
    resource = resources.files("flowexplain").joinpath(f"data/{DEFAULT_CATALOG_RESOURCE}")
    return load_catalog(json.loads(resource.read_text(encoding="utf-8")))
