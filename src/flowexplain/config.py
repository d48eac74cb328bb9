"""Run configuration, and the commands that need only the catalog, the flow
parser and the history store: ingest and sample.

This module imports nothing of the explain stack (prompts, providers,
gateway, checkers, evaluation), so ``flowexplain ingest`` and ``sample``
load none of it. :mod:`flowexplain.pipeline` re-exports every name here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import flows
from .catalog import CatalogError, FeatureCatalog, default_catalog, load_catalog
from .errors import InputError
from .flows import LABEL_MALICIOUS, FlowRecord, sample_malicious, scan_dataset
from .history import FlowHistoryEntry, FlowHistoryStore

#: columns every record carries; the history entry of a flow reads them too
SRC_IP_FEATURE = "IPV4_SRC_ADDR"
DST_IP_FEATURE = "IPV4_DST_ADDR"
L4_FEATURE = "PROTOCOL"
L7_FEATURE = "L7_PROTO"

DEFAULT_TEMPERATURE = 0.7
DEFAULT_MAX_TOKENS = 2048

#: prices in currency units per million input/output tokens
_DEFAULT_PRICING = {"input_per_million": "2.50", "output_per_million": "10.00"}

#: config keys holding paths, resolved against the config file's directory
_PATH_KEYS = ("dataset", "output_dir", "catalog", "basic_template", "augmented_template")

#: config keys whose value is a JSON object
_SECTION_KEYS = ("geo_provider", "cti_provider", "backend", "pricing")

#: config keys whose value is an integer (``store_max_entries`` may also be null)
_INTEGER_KEYS = (
    "k_history",
    "token_budget",
    "sample_size",
    "seed",
    "workers",
    "max_in_flight",
    "max_tokens",
    "store_max_entries",
)

#: config keys whose value is JSON ``true`` or ``false``
_BOOLEAN_KEYS = ("stratified_sampling", "history_include_benign")


class ConfigError(InputError, ValueError):
    """Raised when the pipeline configuration is unusable."""


class PipelineError(InputError, RuntimeError):
    """Raised for fatal (whole-run) pipeline failures."""


@dataclass
class PipelineConfig:
    """Declarative run configuration; secrets come from the environment."""

    dataset: Path
    store: Path | str = ":memory:"
    output_dir: Path = Path("out")
    catalog: Path | None = None
    basic_template: Path | None = None
    augmented_template: Path | None = None
    geo_provider: dict = field(default_factory=lambda: {"kind": "disabled"})
    cti_provider: dict = field(default_factory=lambda: {"kind": "disabled"})
    backend: dict = field(default_factory=lambda: {"kind": "mock"})
    pricing: dict = field(default_factory=lambda: dict(_DEFAULT_PRICING))
    k_history: int = 5
    token_budget: int = 2048
    sample_size: int = 50
    seed: int = 7
    workers: int = 4
    max_in_flight: int = 4
    temperature: float = DEFAULT_TEMPERATURE
    max_tokens: int = DEFAULT_MAX_TOKENS
    stratified_sampling: bool = True
    history_include_benign: bool = True
    store_max_entries: int | None = None

    @classmethod
    def from_file(cls, path: str | Path, **overrides) -> "PipelineConfig":
        path = Path(path)
        raw = _read_json_object(path, "config", ConfigError)
        return cls.from_dict(raw, base_dir=path.parent, **overrides)

    @classmethod
    def from_dict(cls, raw: dict, base_dir: Path | None = None, **overrides) -> "PipelineConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, not {type(raw).__name__}")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in _SECTION_KEYS:
            if key in raw and not isinstance(raw[key], dict):
                raise ConfigError(
                    f"config key {key!r} must be a JSON object, not {type(raw[key]).__name__}"
                )

        def resolve(value: str) -> Path:
            p = Path(value)
            if base_dir is not None and not p.is_absolute():
                p = base_dir / p
            return p

        # a path set to null takes its default
        known = {k: v for k, v in raw.items() if not (k in _PATH_KEYS and v is None)}
        for key in _PATH_KEYS:
            if key in known:
                known[key] = resolve(known[key])
        if known.get("store", ":memory:") != ":memory:":
            known["store"] = resolve(str(known["store"]))
        known.update({k: v for k, v in overrides.items() if v is not None})
        if known.get("dataset") is None:
            raise ConfigError("config must name a dataset path")
        config = cls(**known)
        config.validate()
        return config

    def validate(self) -> None:
        for label, path in (
            ("dataset", self.dataset),
            ("catalog", self.catalog),
            ("basic_template", self.basic_template),
            ("augmented_template", self.augmented_template),
        ):
            if path is not None and not Path(path).exists():
                raise ConfigError(f"configured {label} path does not exist: {path}")
        # by type, not isinstance: JSON's true and false are bools, which are ints
        for name in _INTEGER_KEYS:
            value = getattr(self, name)
            if type(value) is not int and not (name == "store_max_entries" and value is None):
                raise ConfigError(
                    f"config key {name!r} must be an integer, not {type(value).__name__}"
                )
        for name in _BOOLEAN_KEYS:
            value = getattr(self, name)
            if type(value) is not bool:
                raise ConfigError(
                    f"config key {name!r} must be true or false, not {type(value).__name__}"
                )
        if type(self.temperature) not in (int, float):
            kind = type(self.temperature).__name__
            raise ConfigError(f"config key 'temperature' must be a number, not {kind}")
        if self.k_history < 0:
            raise ConfigError("k_history must be non-negative")
        if self.token_budget <= 0:
            raise ConfigError("token_budget must be positive")
        if not 0 <= self.temperature <= 2:
            raise ConfigError("temperature must be within [0, 2]")
        for name in ("workers", "max_in_flight", "max_tokens", "store_max_entries"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be at least 1")


def _read_json_object(path: Path, what: str, error: type[Exception]) -> dict:
    """The JSON object in the file at ``path``; any other content raises ``error``."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: malformed JSON or UTF-8
        raise error(f"cannot read {what} {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise error(f"{what} must be a JSON object, not {type(payload).__name__}")
    return payload


#: what a catalog must hold for history entries and enrichment: each column,
#: with the value kind and unit it must have
_REQUIRED_COLUMNS = {
    SRC_IP_FEATURE: {"value_kind": "address"},
    DST_IP_FEATURE: {"value_kind": "address"},
    L4_FEATURE: {"value_kind": "integer", "unit": "protocol-id"},
    L7_FEATURE: {},
}


def _catalog_for(config: PipelineConfig) -> FeatureCatalog:
    catalog = load_catalog(config.catalog) if config.catalog else default_catalog()
    for name, required in _REQUIRED_COLUMNS.items():
        if name not in catalog:
            raise CatalogError(
                f"catalog has no {name} column, which history entries and prompts read"
            )
        spec = catalog.get(name)
        for attribute, value in required.items():
            if getattr(spec, attribute) != value:
                raise CatalogError(
                    f"catalog column {name} must have {attribute} {value!r}, "
                    f"not {getattr(spec, attribute)!r}"
                )
    return catalog


#: the cells a store row reads, which are all that ingest types
_HISTORY_FEATURES = (
    SRC_IP_FEATURE,
    DST_IP_FEATURE,
    L4_FEATURE,
    "IN_BYTES",
    "OUT_BYTES",
    "FLOW_DURATION_MILLISECONDS",
)


def history_row(record: FlowRecord) -> tuple:
    """The store row of one parsed flow, in the order of FlowHistoryEntry's fields.

    A record typed by the catalog holds values an entry accepts, since the
    catalog gives the addresses and the protocol the kinds an entry holds;
    the store stamps a row without a timestamp.
    """
    return _store_row(
        None, record.flow_id, record.label, None, record.timestamp, None, record.values
    )


def _store_row(row, flow_id, label, attack_class, timestamp, lines, values) -> tuple:
    """The store row of a row of the export: a builder for flows.parse_dataset."""
    summary = (
        f"{values.get('IN_BYTES', '?')}B in / {values.get('OUT_BYTES', '?')}B out, "
        f"{values.get('FLOW_DURATION_MILLISECONDS', '?')} ms"
    )
    return (
        flow_id,
        timestamp,
        values[SRC_IP_FEATURE],
        values[DST_IP_FEATURE],
        values[L4_FEATURE],
        label,
        summary,
    )


def history_entry_for(record: FlowRecord) -> FlowHistoryEntry:
    """The checked store entry of one parsed flow."""
    return FlowHistoryEntry(*history_row(record))


@dataclass
class IngestSummary:
    total: int
    malicious: int
    benign: int
    quarantined: int
    store_entries: int
    report_path: Path | None = None

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "malicious": self.malicious,
            "benign": self.benign,
            "quarantined": self.quarantined,
            "store_entries": self.store_entries,
            "report_path": str(self.report_path) if self.report_path else None,
        }


def _is_blank(path: Path) -> bool:
    """Whether a text file holds only whitespace after any byte-order mark;
    reading stops at its first other line."""
    with open(path, encoding="utf-8-sig") as stream:
        return not any(line.strip() for line in stream)


def run_ingest(config: PipelineConfig, rebuild_store: bool = True) -> IngestSummary:
    """Parse the dataset, bootstrap the history store, write a parse report."""
    dataset = Path(config.dataset)
    if not dataset.exists():
        raise PipelineError(f"dataset not readable: {dataset}")
    config.output_dir.mkdir(parents=True, exist_ok=True)
    if _is_blank(dataset):
        return IngestSummary(total=0, malicious=0, benign=0, quarantined=0, store_entries=0)

    catalog = _catalog_for(config)
    store = FlowHistoryStore(config.store, max_entries=config.store_max_entries)
    try:
        # through the module, so that a tracer wrapping flows.parse_dataset sees the call
        features = [name for name in _HISTORY_FEATURES if name in catalog]
        rows, report = flows.parse_dataset(config.dataset, catalog, features, _store_row)
        store.append_many(rows, replace=rebuild_store)
        report_path = config.output_dir / "parse_report.json"
        report_path.write_text(json.dumps(report.to_dict(), indent=2), encoding="utf-8")
        malicious = sum(1 for row in rows if row[5] == LABEL_MALICIOUS)  # a row's label
        return IngestSummary(
            total=report.rows_total,
            malicious=malicious,
            benign=len(rows) - malicious,
            quarantined=report.rows_quarantined,
            store_entries=store.count(),
            report_path=report_path,
        )
    finally:
        store.close()


def run_sample(config: PipelineConfig, out_path: Path | None = None) -> dict:
    """Draw the evaluation sample and write its flow ids to a sample file."""
    rows, _ = scan_dataset(config.dataset, _catalog_for(config))
    sample = sample_malicious(
        rows, config.sample_size, config.seed, stratified=config.stratified_sampling
    )
    payload = {
        "n": config.sample_size,
        "seed": config.seed,
        "stratified": config.stratified_sampling,
        "flow_ids": [row.flow_id for row in sample],
    }
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    return payload
