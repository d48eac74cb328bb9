"""The benchmark's tracer must find every name it patches, and put each back.

``bench/tracer.py`` wraps functions and methods by name: a method must be
defined in the body of the class it is looked up on, and a name that
``pipeline`` imports must stay importable there. A refactor that breaks
either would otherwise go unnoticed until a traced benchmark run.
"""

import sys
from pathlib import Path

from flowexplain import checkers, enrichment, flows, gateway, history, pipeline, prompts, providers

from .test_pipeline_cli import make_config

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = (checkers, enrichment, flows, gateway, history, pipeline, prompts, providers)


def _namespaces():
    """Every module of the package and every class defined in one."""
    for module in MODULES:
        yield module
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def _asks_providers(record):
    return any(
        enrichment.classify_ip(str(record.values[name])) == "public"
        for name in (enrichment.SRC_IP_FEATURE, enrichment.DST_IP_FEATURE)
    )


def _load_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    return tracer


def test_install_wraps_and_uninstall_restores(monkeypatch, tmp_path):
    tracing = _load_tracer(monkeypatch)
    before = {owner: dict(vars(owner)) for owner in _namespaces()}
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        for owner, attr, _ in tracer._patched:
            assert owner in before, f"{owner!r} is not a module or class of the package"
            assert vars(owner)[attr] is not before[owner][attr]

        runtime = pipeline.Runtime(make_config(tmp_path))
        try:
            records, _ = pipeline.parse_dataset(runtime.config.dataset, runtime.catalog)
            record = next(r for r in records if r.label == "malicious" and _asks_providers(r))
            runtime.explain_record(record, "augmented", "traced-1")
        finally:
            runtime.close()
        names = {span[tracing.NAME] for span in tracer.spans}
    finally:
        tracer.uninstall()

    # the runtime reads history with query_histories and count_histories,
    # which the tracer does not wrap, so no history.query_history span is made
    assert {
        "flows.parse_dataset",
        "enrichment.build",
        "enrichment.cache_get",
        "providers.lookup",
        "prompts.build_augmented_prompt",
        "prompts.enforce_budget",
        "gateway.generate",
        "gateway.complete",
        "checkers.run_all_checks",
        "pipeline.explain_record",
    } <= names
    for owner, namespace in before.items():
        assert set(vars(owner)) == set(namespace), owner
        for attr, value in namespace.items():
            assert vars(owner)[attr] is value, f"{owner!r}.{attr} was not restored"


def test_traced_ingest_records_parse_and_store_spans(monkeypatch, tmp_path):
    # run_ingest lives outside pipeline and must still call the wrapped functions
    tracing = _load_tracer(monkeypatch)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        summary = pipeline.run_ingest(make_config(tmp_path))
    finally:
        tracer.uninstall()

    sizes = {span[tracing.NAME]: span[tracing.SIZE] for span in tracer.spans}
    assert sizes["flows.parse_dataset"] == sizes["history.append_many"] == 200
    assert summary.store_entries == 200
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["flows.parse_dataset.rows_per_s"] > 0
    assert metrics["history.append_many.rows_per_s"] > 0
