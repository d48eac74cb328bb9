"""End-to-end orchestration shared by the command line and the service.

The pipeline is: ingest a labelled NetFlow export and bootstrap the
connection-history store, sample malicious flows, build (optionally
augmented) prompts, generate explanations through the configured backend,
pre-flag the output with the consistency checkers, and aggregate human
annotations into a results table.
"""

from __future__ import annotations

import json
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Callable, Iterable

from .catalog import FeatureCatalog, default_catalog, load_catalog
from .checkers import run_all_checks
from .enrichment import DST_IP_FEATURE, L4_FEATURE, SRC_IP_FEATURE, ContextBuilder
from .evaluation import (
    AggregationError,
    AnnotationSet,
    MetricsReport,
    aggregate_metrics,
    ingest_annotations,
    render_metrics_table,
)
from .flows import (
    FlowRecord,
    LABEL_MALICIOUS,
    ScannedRow,
    clip,
    format_value,
    parse_dataset,
    parse_label,
    parse_value,
    row_parser,
    sample_malicious,
    scan_dataset,
    type_rows,
)
from .gateway import (
    DEFAULT_MAX_TOKENS,
    DEFAULT_TEMPERATURE,
    Gateway,
    GenerationRequest,
    HTTPBackend,
    HTTPBackendProfile,
    MockBackend,
    PricingTable,
    UsageLedger,
    estimate_cost,
)
from .history import FlowHistoryEntry, FlowHistoryStore
from .prompts import (
    AUGMENTED_SLOTS,
    BASIC_SLOTS,
    MODE_AUGMENTED,
    MODE_BASIC,
    PromptBundle,
    PromptTemplate,
    build_augmented_prompt,
    build_basic_prompt,
    default_augmented_template,
    default_basic_template,
    enforce_budget,
    load_template,
)
from .providers import (
    FixtureGeoProvider,
    FixtureThreatProvider,
    HTTPGeoProvider,
    HTTPProviderProfile,
    HTTPThreatProvider,
    read_jsonl,
)

MODES = (MODE_BASIC, MODE_AUGMENTED)


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


class ConfigError(ValueError):
    """Raised when the pipeline configuration is unusable."""


class PipelineError(RuntimeError):
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
        for name in ("workers", "max_in_flight", "max_tokens"):
            if getattr(self, name) < 1:
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


#: provider family -> (name in error messages, fixture class, HTTP class)
_PROVIDER_FAMILIES = {
    "geo": ("geolocation", FixtureGeoProvider, HTTPGeoProvider),
    "cti": ("threat-intel", FixtureThreatProvider, HTTPThreatProvider),
}


def _settings(section: str, config: dict, keys: Iterable[str]) -> dict:
    """The keys of a config section besides ``kind``; each must be one of ``keys``."""
    settings = {key: value for key, value in config.items() if key != "kind"}
    unknown = settings.keys() - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {sorted(unknown)}")
    return settings


def _profile(cls, section: str, config: dict, **defaults):
    """``cls`` built from a config section whose keys are fields of ``cls``.

    ``defaults`` fill fields the section leaves out; a field whose default
    is a number takes the section's value converted to that type.
    """
    settings = {**defaults, **_settings(section, config, [f.name for f in fields(cls)])}
    for f in fields(cls):
        if f.name not in settings:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{section} needs a {f.name!r} key")
        elif type(f.default) in (int, float):
            try:
                settings[f.name] = type(f.default)(settings[f.name])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{section} {f.name} must be a number: {exc}") from exc
    return cls(**settings)


def _build_provider(family: str, config: dict):
    """The configured provider of ``family``, or ``None`` when it is disabled."""
    label, fixture_class, http_class = _PROVIDER_FAMILIES[family]
    section = f"{family}_provider"
    kind = config.get("kind", "disabled")
    if kind == "disabled":
        _settings(section, config, ())
        return None
    if kind == "fixture":
        settings = _settings(section, config, ("fixture", "provider_id"))
        if "fixture" not in settings:
            raise ConfigError(f"{section} needs a 'fixture' key")
        try:
            return fixture_class(
                settings["fixture"], provider_id=settings.get("provider_id", f"fixture-{family}")
            )
        except (OSError, ValueError) as exc:  # an unreadable file or a malformed line
            raise ConfigError(f"{section}: {exc}") from exc
    if kind == "http":
        return http_class(
            _profile(HTTPProviderProfile, section, config, provider_id=f"http-{family}")
        )
    raise ConfigError(f"unknown {label} provider kind {kind!r}")


def build_backend(config: dict):
    kind = config.get("kind", "mock")
    if kind == "mock":
        settings = _settings("backend", config, ("canned", "model"))
        if isinstance(settings.get("canned"), str):
            settings["canned"] = _read_canned(settings["canned"])
        return MockBackend(**settings)
    if kind in ("http", "local"):
        return HTTPBackend(_profile(HTTPBackendProfile, "backend", config, backend_id=kind))
    raise ConfigError(f"unknown backend kind {kind!r}")


def _read_canned(path: str) -> dict[str, str]:
    """The mock's canned table: one ``{"key": ..., "text": ...}`` object per line."""
    rows = read_jsonl(path, ConfigError, "malformed canned response", ("key", "text"))
    return {row["key"]: row["text"] for row in rows}


def pricing_from_config(config: dict) -> PricingTable:
    unknown = config.keys() - _DEFAULT_PRICING.keys()
    if unknown:
        raise ConfigError(f"unknown keys in pricing: {sorted(unknown)}")
    prices = {**_DEFAULT_PRICING, **config}
    try:
        return PricingTable.per_million(prices["input_per_million"], prices["output_per_million"])
    except (InvalidOperation, ValueError) as exc:  # not a number, or negative
        quoted = ", ".join(f"{key}={clip(str(prices[key]))}" for key in _DEFAULT_PRICING)
        raise ConfigError(f"pricing must be non-negative numbers, got {quoted}") from exc


#: the cells history_entry_for reads, which are all that ingest types
_HISTORY_FEATURES = (
    SRC_IP_FEATURE,
    DST_IP_FEATURE,
    L4_FEATURE,
    "IN_BYTES",
    "OUT_BYTES",
    "FLOW_DURATION_MILLISECONDS",
)


def history_entry_for(record: FlowRecord) -> FlowHistoryEntry:
    """Derive the store entry for one parsed flow; the store stamps one without a timestamp."""
    values = record.values
    summary = (
        f"{values.get('IN_BYTES', '?')}B in / {values.get('OUT_BYTES', '?')}B out, "
        f"{values.get('FLOW_DURATION_MILLISECONDS', '?')} ms"
    )
    return FlowHistoryEntry(
        flow_id=record.flow_id,
        timestamp=record.timestamp,
        src_ip=str(values[SRC_IP_FEATURE]),
        dst_ip=str(values[DST_IP_FEATURE]),
        l4_protocol_id=int(values[L4_FEATURE]),
        label=record.label,
        summary=summary,
    )


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


class Runtime:
    """Loaded catalog, templates, providers, store and gateway for one run."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.catalog: FeatureCatalog = _catalog_for(config)
        self.basic_template: PromptTemplate = (
            load_template(config.basic_template, "basic-custom", BASIC_SLOTS)
            if config.basic_template
            else default_basic_template()
        )
        self.augmented_template: PromptTemplate = (
            load_template(config.augmented_template, "augmented-custom", AUGMENTED_SLOTS)
            if config.augmented_template
            else default_augmented_template()
        )
        self.geo_provider = _build_provider("geo", config.geo_provider)
        self.cti_provider = _build_provider("cti", config.cti_provider)
        self.backend = build_backend(config.backend)
        # opened last, so that a bad provider or backend config leaks no store
        self.store = FlowHistoryStore(config.store, max_entries=config.store_max_entries)
        self.context_builder = ContextBuilder(
            store=self.store,
            geo_provider=self.geo_provider,
            cti_provider=self.cti_provider,
            k=config.k_history,
            history_labels=None if config.history_include_benign else ("malicious", "unlabeled"),
        )
        self.gateway = Gateway(self.backend, max_in_flight=config.max_in_flight)
        self._parse_posted = row_parser(self.catalog, self.catalog.feature_names)

    def close(self) -> None:
        self.store.close()

    def build_prompt(self, record: FlowRecord, mode: str) -> PromptBundle:
        if mode == MODE_BASIC:
            bundle = build_basic_prompt(record, self.catalog, self.basic_template)
        elif mode == MODE_AUGMENTED:
            context = self.context_builder.build(record)
            bundle = build_augmented_prompt(
                record, context, self.catalog, self.basic_template, self.augmented_template
            )
        else:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        return enforce_budget(bundle, self.config.token_budget)

    def explain_record(
        self,
        record: FlowRecord,
        mode: str,
        explanation_id: str,
        append_history: bool = False,
    ) -> dict:
        """Explain one malicious flow; returns the loggable record."""
        if record.label != LABEL_MALICIOUS:
            raise PipelineError(f"flow {record.flow_id} is not malicious; only malicious "
                                "flows are explained")
        started = _utc_now()
        bundle = self.build_prompt(record, mode)
        request = GenerationRequest(
            prompt=bundle.text,
            temperature=self.config.temperature,
            max_tokens=self.config.max_tokens,
            request_id=explanation_id,
        )
        result = self.gateway.generate(request)
        findings = run_all_checks(result.text, record, self.catalog)
        if append_history:
            self.store.append(history_entry_for(record))
        return {
            "explanation_id": explanation_id,
            "flow_id": record.flow_id,
            "mode": mode,
            "model": result.model,
            "backend": result.backend_id,
            "attack_class": record.attack_class,
            "flow": {name: format_value(value) for name, value in record.values.items()},
            "prompt": bundle.to_record(),
            "explanation": result.text,
            "usage": result.usage.to_dict(),
            "latency_ms": result.latency_ms,
            "findings": [finding.to_dict() for finding in findings],
            "status": "ok",
            "error": None,
            "timestamps": {"started": started, "finished": _utc_now()},
        }

    def record_from_row(self, row: dict, flow_id: str) -> FlowRecord:
        """Build a validated record from a dataset-shaped column mapping."""
        values, errors = self._parse_posted(
            [str(row[name]) if name in row else None for name in self.catalog.feature_names]
        )
        extra = set(row) - set(self.catalog.feature_names)
        extra -= {self.catalog.label_column, self.catalog.attack_column}
        for name in sorted(extra):
            errors[clip(name)] = "unknown feature"
        if errors:
            raise FieldValidationError(errors)
        label_raw = row.get(self.catalog.label_column)
        if label_raw is None:
            label = LABEL_MALICIOUS  # stub classifier: unlabelled posts are assumed malicious
        else:
            try:
                label = parse_label(str(label_raw))
            except ValueError as exc:
                raise FieldValidationError({self.catalog.label_column: str(exc)}) from exc
        attack = row.get(self.catalog.attack_column)
        return FlowRecord(
            flow_id=flow_id,
            values=values,
            label=label,
            attack_class=str(attack) if attack is not None else None,
        )


class FieldValidationError(ValueError):
    """Per-field problems with an externally supplied flow."""

    def __init__(self, errors: dict[str, str]):
        super().__init__(f"invalid flow fields: {sorted(errors)}")
        self.errors = errors


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def _catalog_for(config: PipelineConfig) -> FeatureCatalog:
    return load_catalog(config.catalog) if config.catalog else default_catalog()


def _is_blank(path: Path) -> bool:
    """Whether a text file holds only whitespace; reading stops at its first other line."""
    with open(path, encoding="utf-8") as stream:
        return not any(line.strip() for line in stream)


def run_ingest(config: PipelineConfig, rebuild_store: bool = True) -> IngestSummary:
    """Parse the dataset, bootstrap the history store, write a parse report."""
    dataset = Path(config.dataset)
    if not dataset.exists():
        raise PipelineError(f"dataset not readable: {dataset}")
    config.output_dir.mkdir(parents=True, exist_ok=True)
    if _is_blank(dataset):
        return IngestSummary(total=0, malicious=0, benign=0, quarantined=0, store_entries=0)

    runtime = Runtime(config)
    try:
        records, report = parse_dataset(
            config.dataset,
            runtime.catalog,
            [name for name in _HISTORY_FEATURES if name in runtime.catalog],
        )
        if rebuild_store:
            runtime.store.clear()
        runtime.store.append_many(history_entry_for(record) for record in records)
        report_path = config.output_dir / "parse_report.json"
        report_path.write_text(json.dumps(report.to_dict(), indent=2), encoding="utf-8")
        malicious = sum(1 for r in records if r.label == LABEL_MALICIOUS)
        return IngestSummary(
            total=report.rows_total,
            malicious=malicious,
            benign=len(records) - malicious,
            quarantined=report.rows_quarantined,
            store_entries=runtime.store.count(),
            report_path=report_path,
        )
    finally:
        runtime.close()


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


@dataclass
class ExplainRunResult:
    run_id: str
    log_path: Path
    ledger_path: Path
    written: int
    failed: int
    ledger: UsageLedger


def _select_records(
    config: PipelineConfig,
    catalog: FeatureCatalog,
    flow_ids: Iterable[str] | None,
    sample_file: Path | None,
) -> list[FlowRecord]:
    """The flows to explain: scan the dataset, pick rows, and type only those."""
    rows, _ = scan_dataset(config.dataset, catalog)
    if flow_ids:
        picked = _rows_by_id(rows, list(flow_ids), "unknown flow ids")
    elif sample_file is not None:
        wanted = _read_json_object(sample_file, "sample file", PipelineError).get("flow_ids")
        if not isinstance(wanted, list) or not all(isinstance(fid, str) for fid in wanted):
            raise PipelineError(f"sample file {sample_file} needs a 'flow_ids' list of strings")
        picked = _rows_by_id(rows, wanted, "sample file references unknown flow ids")
    else:
        picked = sample_malicious(
            rows, config.sample_size, config.seed, stratified=config.stratified_sampling
        )
    return type_rows(config.dataset, catalog, picked)


def _rows_by_id(rows: list[ScannedRow], wanted: list[str], problem: str) -> list[ScannedRow]:
    by_id = {row.flow_id: row for row in rows}
    missing = [fid for fid in wanted if fid not in by_id]
    if missing:
        raise PipelineError(f"{problem}: {missing}")
    return [by_id[fid] for fid in wanted]


def run_explain(
    config: PipelineConfig,
    mode: str,
    flow_ids: Iterable[str] | None = None,
    sample_file: Path | None = None,
    run_id: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> ExplainRunResult:
    """Explain the selected flows and append records to a run log.

    Outputs preserve the selection order regardless of worker scheduling.
    Per-flow failures are recorded in the log and do not abort the batch.
    """
    if mode not in MODES:
        raise PipelineError(f"mode must be one of {MODES}, got {mode!r}")
    runtime = Runtime(config)
    try:
        selected = _select_records(config, runtime.catalog, flow_ids, sample_file)

        run_id = run_id or datetime.now(timezone.utc).strftime("run-%Y%m%dT%H%M%SZ")
        config.output_dir.mkdir(parents=True, exist_ok=True)
        log_path = config.output_dir / f"{run_id}.jsonl"
        ledger_path = config.output_dir / f"{run_id}.ledger.json"

        def explain_one(record: FlowRecord) -> dict:
            explanation_id = f"{run_id}:{record.flow_id}"
            started = _utc_now()
            try:
                return runtime.explain_record(record, mode, explanation_id)
            except Exception as exc:  # per-flow failure: recorded, run continues
                return {
                    "explanation_id": explanation_id,
                    "flow_id": record.flow_id,
                    "mode": mode,
                    "model": getattr(runtime.backend, "model", ""),
                    "backend": getattr(runtime.backend, "backend_id", ""),
                    "status": "error",
                    "error": {"type": type(exc).__name__, "message": str(exc)},
                    "timestamps": {"started": started, "finished": _utc_now()},
                }

        def in_order(pool: ThreadPoolExecutor) -> Iterable[dict]:
            # at most two flows per worker are in flight or waiting for the
            # writer, so finished records never pile up ahead of it
            pending: deque = deque()
            for record in selected:
                if len(pending) == 2 * config.workers:
                    yield pending.popleft().result()
                pending.append(pool.submit(explain_one, record))
            while pending:
                yield pending.popleft().result()

        written = failed = 0
        # the pool starts threads only when tasks are submitted to it
        with open(log_path, "w", encoding="utf-8") as log, ThreadPoolExecutor(
            max_workers=config.workers
        ) as pool:
            for outcome in in_order(pool):
                log.write(json.dumps(outcome, sort_keys=True) + "\n")
                written += 1
                failed += outcome["status"] != "ok"
                if progress:
                    progress(outcome["flow_id"])

        ledger_path.write_text(
            json.dumps(runtime.gateway.ledger.to_dict(), indent=2), encoding="utf-8"
        )
        return ExplainRunResult(
            run_id=run_id,
            log_path=log_path,
            ledger_path=ledger_path,
            written=written,
            failed=failed,
            ledger=runtime.gateway.ledger,
        )
    finally:
        runtime.close()


def recheck_explanations(entries: list[dict], catalog: FeatureCatalog) -> list[dict]:
    """Re-run the consistency checkers over logged explanations.

    The flow values stored in the log are re-typed through the catalog so
    the findings are computed against the same record the prompt used.
    """
    findings_records = []
    for entry in entries:
        try:
            values = {
                name: parse_value(text, catalog.get(name))
                for name, text in entry.get("flow", {}).items()
                if name in catalog
            }
        except ValueError as exc:
            raise PipelineError(
                f"explanation {entry['explanation_id']!r} logs a malformed flow: {exc}"
            ) from exc
        record = FlowRecord(
            flow_id=entry["flow_id"],
            values=values,
            label=LABEL_MALICIOUS,
            attack_class=entry.get("attack_class"),
        )
        findings = run_all_checks(entry["explanation"], record, catalog)
        findings_records.append(
            {
                "explanation_id": entry["explanation_id"],
                "model": entry["model"],
                "mode": entry["mode"],
                "findings": [finding.to_dict() for finding in findings],
            }
        )
    return findings_records


#: keys every successful run log entry carries
_LOGGED_KEYS = ("explanation_id", "flow_id", "mode", "model", "explanation")


def run_evaluate(
    config: PipelineConfig,
    explanations_path: Path,
    annotations_path: Path,
) -> tuple[list[MetricsReport], str, Path]:
    """Re-check explanations, resolve annotations and emit the results table."""
    entries = [
        entry
        for entry in read_jsonl(explanations_path, PipelineError, "malformed run log entry")
        if entry.get("status") == "ok"
    ]
    if not entries:
        raise PipelineError(f"no successful explanations in {explanations_path}")
    for entry in entries:
        missing = [key for key in _LOGGED_KEYS if key not in entry]
        if missing or not isinstance(entry["explanation"], str) or not entry["explanation"]:
            problem = f"has no {missing[0]!r}" if missing else "has no text"
            raise PipelineError(
                f"explanation {entry.get('explanation_id')!r} in {explanations_path} {problem}"
            )
    known_ids = {entry["explanation_id"] for entry in entries}

    catalog = _catalog_for(config)
    config.output_dir.mkdir(parents=True, exist_ok=True)
    findings_records = recheck_explanations(entries, catalog)
    findings_path = config.output_dir / "findings.jsonl"
    with open(findings_path, "w", encoding="utf-8") as fh:
        for row in findings_records:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    resolved = ingest_annotations(annotations_path, known_ids=known_ids).resolved
    if not resolved:
        raise PipelineError("no resolved annotations: the annotations file is empty")

    cells: dict[tuple[str, str], set[str]] = {}
    for entry in entries:
        cells.setdefault((entry["model"], entry["mode"]), set()).add(entry["explanation_id"])

    reports: list[MetricsReport] = []
    for (model, mode), cell_ids in sorted(cells.items()):
        subset = AnnotationSet({eid: v for eid, v in resolved.items() if eid in cell_ids})
        if not subset.resolved:
            continue
        try:
            reports.append(
                aggregate_metrics(subset, n=len(cell_ids), model=model, mode=mode)
            )
        except AggregationError as exc:
            raise PipelineError(f"cannot aggregate cell ({model}, {mode}): {exc}") from exc
    if not reports:
        raise PipelineError("no resolved annotations matched the explanation log")

    table = render_metrics_table(reports)
    report_path = config.output_dir / "metrics_report.json"
    report_path.write_text(
        json.dumps([report.to_dict() for report in reports], indent=2), encoding="utf-8"
    )
    (config.output_dir / "metrics_table.txt").write_text(table + "\n", encoding="utf-8")
    return reports, table, report_path


def run_cost(
    config: PipelineConfig,
    ledger_path: Path | None = None,
    queries: int = 1000,
    avg_input: float | None = None,
    avg_output: float | None = None,
) -> dict:
    """Project cost per ``queries`` requests from a ledger or given averages."""
    pricing = pricing_from_config(config.pricing)
    if ledger_path is not None:
        data = _read_json_object(ledger_path, "ledger", PipelineError)
        try:
            ledger = UsageLedger.from_dict(data)
        except (TypeError, ValueError) as exc:
            raise PipelineError(f"malformed ledger {ledger_path}: {exc}") from exc
        if ledger.results == 0:
            avg_in: Decimal | float = 0
            avg_out: Decimal | float = 0
        else:
            avg_in = Decimal(ledger.prompt_tokens) / ledger.results
            avg_out = Decimal(ledger.completion_tokens) / ledger.results
    elif avg_input is not None and avg_output is not None:
        avg_in, avg_out = avg_input, avg_output
    else:
        raise PipelineError("cost needs a ledger file or explicit token averages")
    try:
        amount = estimate_cost(queries, avg_in, avg_out, pricing)
    except (InvalidOperation, ValueError) as exc:  # negative, or an infinite average
        raise PipelineError(f"cannot project cost: {exc}") from exc
    return {
        "queries": queries,
        "avg_input_tokens": float(avg_in),
        "avg_output_tokens": float(avg_out),
        "input_per_million": str(pricing.input_price),
        "output_per_million": str(pricing.output_price),
        "cost": str(amount),
    }
