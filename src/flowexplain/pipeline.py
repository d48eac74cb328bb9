"""End-to-end orchestration shared by the command line and the service.

The pipeline is: ingest a labelled NetFlow export and bootstrap the
connection-history store, sample malicious flows, build (optionally
augmented) prompts, generate explanations through the configured backend,
pre-flag the output with the consistency checkers, and aggregate human
annotations into a results table.
"""

from __future__ import annotations

import heapq
import itertools
import json
import selectors
import time
from collections import deque
from contextlib import closing, suppress
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .catalog import FeatureCatalog
from .checkers import run_all_checks
# the configuration, ingest and sample are defined in .config, which loads
# none of the explain stack; this module re-exports them. parse_dataset stays
# bound here too: the benchmark's tracer wraps it in both modules.
from .config import (
    _DEFAULT_PRICING,
    _HISTORY_FEATURES,
    _REQUIRED_COLUMNS,
    ConfigError,
    IngestSummary,
    PipelineConfig,
    PipelineError,
    _catalog_for,
    _read_json_object,
    history_entry_for,
    history_row,
    run_ingest,
    run_sample,
)
from .enrichment import ContextBuilder
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
    clip,
    decode_fates,
    encode_fates,
    fates_key,
    parse_dataset,
    parse_label,
    parse_value,
    row_parser,
    sample_malicious,
    scan_dataset,
    type_rows,
)
from .gateway import (
    BackendError,
    Gateway,
    GenerationRequest,
    GenerationResult,
    HTTPBackend,
    HTTPBackendProfile,
    MockBackend,
    PricingTable,
    UsageLedger,
    estimate_cost,
)
from .history import FlowHistoryStore, StoreError
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
            include_benign=config.history_include_benign,
        )
        self.gateway = Gateway(self.backend, max_in_flight=config.max_in_flight)
        self._parse_posted = row_parser(self.catalog, self.catalog.feature_names)

    def close(self) -> None:
        self.store.close()
        close_backend = getattr(self.backend, "close", None)
        if close_backend is not None:
            close_backend()

    def build_prompt(self, record: FlowRecord, mode: str) -> PromptBundle:
        """The flow's prompt, fitted to the token budget.

        An augmented prompt reads the store only as deep as the fitted
        prompt can show: when the prompt with every history line trimmed
        overflows the budget, only each endpoint's count of entries is read
        (see ``build_augmented_prompt``).
        """
        budget = self.config.token_budget
        if mode == MODE_BASIC:
            bundle = build_basic_prompt(record, self.catalog, self.basic_template)
        elif mode == MODE_AUGMENTED:
            context = self.context_builder.build(record)
            bundle = build_augmented_prompt(
                record, context, self.catalog, self.basic_template, self.augmented_template,
                budget,
            )
        else:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        return enforce_budget(bundle, budget)

    def prepare(
        self, record: FlowRecord, mode: str, explanation_id: str
    ) -> tuple[PromptBundle, GenerationRequest]:
        """The first half of explaining a malicious flow: its fitted prompt
        and the request that asks the backend about it."""
        if record.label != LABEL_MALICIOUS:
            raise PipelineError(f"flow {record.flow_id} is not malicious; only malicious "
                                "flows are explained")
        bundle = self.build_prompt(record, mode)
        request = GenerationRequest(
            prompt=bundle.text,
            temperature=self.config.temperature,
            max_tokens=self.config.max_tokens,
            request_id=explanation_id,
        )
        return bundle, request

    def finish(
        self,
        record: FlowRecord,
        mode: str,
        explanation_id: str,
        started: str,
        bundle: PromptBundle,
        result: GenerationResult,
        append_history: bool = False,
    ) -> dict:
        """The second half: check the backend's answer and return the loggable record."""
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
            "flow": dict(record.texts),
            "prompt": bundle.to_record(),
            "explanation": result.text,
            "usage": result.usage.to_dict(),
            "latency_ms": result.latency_ms,
            "findings": [finding.to_dict() for finding in findings],
            "status": "ok",
            "error": None,
            "timestamps": {"started": started, "finished": _utc_now()},
        }

    def explain_record(
        self,
        record: FlowRecord,
        mode: str,
        explanation_id: str,
        append_history: bool = False,
    ) -> dict:
        """Explain one malicious flow; returns the loggable record."""
        started = _utc_now()
        bundle, request = self.prepare(record, mode, explanation_id)
        result = self.gateway.generate(request)
        return self.finish(record, mode, explanation_id, started, bundle, result, append_history)

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
    store: FlowHistoryStore,
    flow_ids: Iterable[str] | None,
    sample_file: Path | None,
) -> list[FlowRecord]:
    """The flows to explain: pick rows of the dataset, and type only those.

    The rows are picked from the fates of the dataset's malicious rows that
    the store keeps under its key (see ``flows.fates_key``). Without them,
    or for an id not among them, the dataset is scanned; the fates of a
    scan are kept if the key did not change while it ran.
    """
    try:
        key = fates_key(config.dataset, catalog)
        kept = store.kept_fates(key)
    except (OSError, StoreError):  # the scan says what is wrong with the dataset
        key = kept = None
    rows = None if kept is None else decode_fates(kept)
    hit = rows is not None
    if not hit:
        rows, _ = scan_dataset(config.dataset, catalog)
        with suppress(OSError, StoreError):  # a store that cannot keep them changes nothing
            if key is not None and fates_key(config.dataset, catalog) == key:
                store.keep_fates(key, encode_fates(rows))
    if flow_ids:
        wanted, problem = list(flow_ids), "unknown flow ids"
    elif sample_file is not None:
        wanted = _read_json_object(sample_file, "sample file", PipelineError).get("flow_ids")
        if not isinstance(wanted, list) or not all(isinstance(fid, str) for fid in wanted):
            raise PipelineError(f"sample file {sample_file} needs a 'flow_ids' list of strings")
        problem = "sample file references unknown flow ids"
    else:
        picked = sample_malicious(
            rows, config.sample_size, config.seed, stratified=config.stratified_sampling
        )
        return type_rows(config.dataset, catalog, picked)
    by_id = {row.flow_id: row for row in rows}
    if hit and not by_id.keys() >= set(wanted):  # a benign or unknown id: only a scan knows it
        by_id = {row.flow_id: row for row in scan_dataset(config.dataset, catalog)[0]}
    missing = [fid for fid in wanted if fid not in by_id]
    if missing:
        raise PipelineError(f"{problem}: {missing}")
    return type_rows(config.dataset, catalog, [by_id[fid] for fid in wanted])


def run_explain(
    config: PipelineConfig,
    mode: str,
    flow_ids: Iterable[str] | None = None,
    sample_file: Path | None = None,
    run_id: str | None = None,
    progress: Callable[[str], None] | None = None,
) -> ExplainRunResult:
    """Explain the selected flows and append records to a run log.

    The calling thread prepares each flow's prompt, sends its request and
    finishes its record (see :func:`_explained`); it starts no thread.
    Outputs preserve the selection order. Per-flow failures are recorded
    in the log and do not abort the batch.
    """
    if mode not in MODES:
        raise PipelineError(f"mode must be one of {MODES}, got {mode!r}")
    runtime = Runtime(config)
    try:
        selected = _select_records(
            config, runtime.catalog, runtime.store, flow_ids, sample_file
        )

        run_id = run_id or datetime.now(timezone.utc).strftime("run-%Y%m%dT%H%M%SZ")
        config.output_dir.mkdir(parents=True, exist_ok=True)
        log_path = config.output_dir / f"{run_id}.jsonl"
        ledger_path = config.output_dir / f"{run_id}.ledger.json"

        written = failed = 0
        # closing: an interrupted pass gives up the requests it has out
        with open(log_path, "w", encoding="utf-8") as log, closing(
            _explained(runtime, mode, run_id, selected)
        ) as outcomes:
            for outcome in outcomes:
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


class _Flow:
    """A selected flow on its way from prompt to record."""

    __slots__ = ("record", "explanation_id", "started", "bundle", "request", "attempts", "call",
                 "answer")

    def __init__(self, record: FlowRecord, explanation_id: str):
        self.record = record
        self.explanation_id = explanation_id
        self.started = _utc_now()
        self.attempts = 0
        self.call = None  # what the backend's send returned for the request that is out
        # once known: the backend's result, the exception that ended the
        # flow, or the record of a flow that failed before its request
        self.answer: GenerationResult | Exception | dict | None = None


def _explained(
    runtime: Runtime, mode: str, run_id: str, selected: list[FlowRecord]
) -> Iterator[dict]:
    """The records of ``selected``, in selection order, all made on this thread.

    A flow is prepared and its request sent at once while fewer than
    ``min(workers, max_in_flight)`` requests are out and fewer than two
    flows per worker wait for the writer. Otherwise the thread waits until
    a request's socket is readable, then reads that answer; until a
    request's ``timeout_s`` has passed, which fails that attempt; or until
    a backoff ends. A flow waiting out a backoff holds no slot and stops no
    other flow from being sent; the gateway's policy decides the retries
    and its ledger counts the outcomes. A backend without ``send`` answers
    each request as it is sent. A flow is finished as soon as it leads the
    window and its answer is in, so its timestamps span its own work, not
    the preparing of the flows behind it. Closing the generator gives up
    the requests that are out.
    """
    config, backend, gateway = runtime.config, runtime.backend, runtime.gateway
    send = getattr(backend, "send", None)
    slots = min(config.workers, config.max_in_flight)
    window: deque[_Flow] = deque()
    backoffs: list[tuple[float, int, _Flow]] = []  # (due, tie-break, flow)
    tie_break = itertools.count()
    waiting = selectors.DefaultSelector()
    out = waiting.get_map()  # the calls that are out, by socket
    flows = iter(selected)

    def failure(flow: _Flow, exc: Exception) -> dict:
        return {
            "explanation_id": flow.explanation_id,
            "flow_id": flow.record.flow_id,
            "mode": mode,
            "model": getattr(backend, "model", ""),
            "backend": getattr(backend, "backend_id", ""),
            "status": "error",
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "timestamps": {"started": flow.started, "finished": _utc_now()},
        }

    def prepare(record: FlowRecord) -> _Flow:
        flow = _Flow(record, f"{run_id}:{record.flow_id}")
        try:
            flow.bundle, flow.request = runtime.prepare(record, mode, flow.explanation_id)
        except Exception as exc:  # per-flow failure: recorded, run continues
            flow.answer = failure(flow, exc)
        else:
            attempt(flow)
        return flow

    def attempt(flow: _Flow) -> None:
        try:
            if send is None:
                answered(flow, backend.complete(flow.request))
            else:
                flow.call = send(flow.request)
                waiting.register(flow.call.fileno(), selectors.EVENT_READ, flow)
        except Exception as exc:
            failed(flow, exc)

    def receive(flow: _Flow) -> None:
        try:
            result = backend.receive(flow.call, flow.request)
        except Exception as exc:
            failed(flow, exc)
        else:
            if result is None:  # sent again on a new connection
                waiting.register(flow.call.fileno(), selectors.EVENT_READ, flow)
            else:
                answered(flow, result)

    def answered(flow: _Flow, result: GenerationResult) -> None:
        gateway.ledger.record(result)
        flow.answer = result

    def failed(flow: _Flow, exc: Exception) -> None:
        delay = None
        if isinstance(exc, BackendError):
            flow.attempts += 1
            delay = gateway.backoff(exc, flow.attempts)
        if delay is None:
            flow.answer = exc
        else:
            heapq.heappush(backoffs, (time.monotonic() + delay, next(tie_break), flow))

    def finish(flow: _Flow) -> dict:
        answer = flow.answer
        if isinstance(answer, dict):
            return answer
        if isinstance(answer, Exception):
            return failure(flow, answer)
        try:
            return runtime.finish(
                flow.record, mode, flow.explanation_id, flow.started, flow.bundle, answer
            )
        except Exception as exc:  # per-flow failure: recorded, run continues
            return failure(flow, exc)

    def collect(timeout: float) -> None:
        """Read the answers that are in, waiting up to ``timeout`` seconds for one."""
        for key, _ in waiting.select(timeout):
            waiting.unregister(key.fd)
            receive(key.data)
        now = time.monotonic()
        for key in [key for key in out.values() if key.data.call.deadline <= now]:
            waiting.unregister(key.fd)
            failed(key.data, backend.timed_out(key.data.call))

    try:
        while True:
            while window and window[0].answer is not None:
                yield finish(window.popleft())
            free = len(out) < slots
            if free and backoffs and backoffs[0][0] <= time.monotonic():
                attempt(heapq.heappop(backoffs)[2])
            elif free and len(window) < 2 * config.workers and (
                record := next(flows, None)
            ) is not None:
                window.append(prepare(record))
            elif window:
                # every flow in the window without an answer is out or backing off
                deadlines = [key.data.call.deadline for key in out.values()]
                if free and backoffs:
                    deadlines.append(backoffs[0][0])
                collect(max(0.0, min(deadlines) - time.monotonic()))
                continue
            else:
                return
            if out:  # answers already in are finished before another flow is prepared
                collect(0.0)
    finally:
        for key in out.values():
            key.data.call.close()
        waiting.close()


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
