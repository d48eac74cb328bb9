"""Span tracer wrapped around the program's public functions.

Used only by traced runs. :func:`install` replaces each traced function or
method with a wrapper that records one span per call: name, start, end,
thread CPU time, thread, parent span, the flow or explanation id, and an
optional size (rows parsed, trims made, findings raised, ...). Where the
pipeline module imported a name, both its binding and the defining
module's binding are replaced, so calls made inside a layer (the prompt
rebuilds in budget fitting) are counted too. Spans stay in memory and are
written once by :meth:`Tracer.dump`. A span holds only numbers, strings and
tuples of them, which the garbage collector stops tracking, so a long
traced run does not slow down full collections.

:func:`layer_metrics` turns a span list into the ``<layer>.<function>.<stat>``
metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

# span tuple fields
ID, NAME, START, END, CPU, THREAD, PARENT, TAG, SIZE = range(9)


def _arg(position: int, keyword: str):
    return lambda args, kwargs: kwargs[keyword] if keyword in kwargs else args[position]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        # An open span that adopts spans started on threads with no open
        # span of their own (run_explain's worker pool).
        self._root: tuple[int, object] | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, tag=None, size=None, adopt: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            span_id = next(tracer._ids)
            span_tag = tag(args, kwargs) if tag else (parent[1] if parent else None)
            stack.append((span_id, span_tag))
            if adopt:
                tracer._root = stack[-1]
            measured = None
            cpu0 = time.thread_time_ns()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    measured = size(args, result)
                return result
            finally:
                end = time.perf_counter_ns()
                cpu = time.thread_time_ns() - cpu0
                stack.pop()
                if adopt:
                    tracer._root = None
                tracer.spans.append(
                    (span_id, name, start, end, cpu, threading.get_ident(),
                     parent[0] if parent else None, span_tag, measured)
                )

        return traced

    def patch(self, owners: tuple, attr: str, name: str, **options) -> None:
        wrapper = self.wrap(name, vars(owners[0])[attr], **options)
        for owner in owners:
            self._patched.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install(tracer: Tracer) -> None:
    """Wrap every traced public function of the program."""
    from flowexplain import checkers, enrichment, flows, gateway, history, pipeline, prompts
    from flowexplain import providers

    runtime, store = pipeline.Runtime, history.FlowHistoryStore
    tracer.patch((flows, pipeline), "parse_dataset", "flows.parse_dataset",
                 size=lambda a, r: len(r[0]))
    tracer.patch((runtime,), "record_from_row", "flows.record_from_row",
                 tag=_arg(2, "flow_id"))
    tracer.patch((store,), "query_history", "history.query_history")
    tracer.patch((store,), "append_many", "history.append_many", size=lambda a, r: r)
    tracer.patch((store,), "append", "history.append")
    tracer.patch((enrichment.ContextBuilder,), "build", "enrichment.build")
    tracer.patch((providers.TTLCache,), "get", "enrichment.cache_get",
                 size=lambda a, r: int(r is not None))
    for provider in (providers.FixtureGeoProvider, providers.FixtureThreatProvider):
        tracer.patch((provider,), "lookup", "providers.lookup")
    tracer.patch((prompts, pipeline), "build_basic_prompt", "prompts.build_basic_prompt")
    tracer.patch((prompts, pipeline), "build_augmented_prompt", "prompts.build_augmented_prompt")
    tracer.patch((prompts, pipeline), "enforce_budget", "prompts.enforce_budget",
                 size=lambda a, r: len(r.metadata["trims"]))
    tracer.patch((gateway.Gateway,), "generate", "gateway.generate")
    for backend in (gateway.HTTPBackend, gateway.MockBackend):
        tracer.patch((backend,), "complete", "gateway.complete")
    tracer.patch((checkers, pipeline), "run_all_checks", "checkers.run_all_checks",
                 size=lambda a, r: (len(a[0]), len(r)))
    tracer.patch((runtime,), "explain_record", "pipeline.explain_record",
                 tag=_arg(3, "explanation_id"))
    tracer.patch((pipeline,), "run_explain", "pipeline.run_explain", adopt=True,
                 size=lambda a, r: r.written)


def _covered_ns(span: tuple, children: list[tuple]) -> int:
    """Length of the part of ``span`` that its children's intervals cover."""
    covered, cursor = 0, span[START]
    for child in sorted(children, key=lambda c: c[START]):
        start, end = max(child[START], cursor), min(child[END], span[END])
        if end > start:
            covered += end - start
            cursor = end
    return covered


def layer_metrics(spans: list, requests=()) -> dict[str, float]:
    """Per-layer metrics of one traced run (times in µs, means per call).

    ``requests`` holds ``(explanation id, client µs)`` per HTTP request; the
    service overhead is the median of client time minus the server-side
    ``record_from_row`` and ``explain_record`` time of the same request.
    A function never called gives 0.
    """
    by_name: dict[str, list] = defaultdict(list)
    children: dict[int, list] = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)
        if span[PARENT] is not None:
            children[span[PARENT]].append(span)

    def wall(s):
        return (s[END] - s[START]) / 1000

    def cpu(s):
        return s[CPU] / 1000

    def wait(s):
        return wall(s) - cpu(s)

    def self_us(s):
        return wall(s) - _covered_ns(s, children[s[ID]]) / 1000

    def mean(name, stat):
        group = by_name[name]
        return statistics.fmean(stat(s) for s in group) if group else 0.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def rows_per_s(name):
        group = by_name[name]
        return ratio(sum(s[SIZE] for s in group), sum(wall(s) for s in group) / 1e6)

    explains = by_name["pipeline.explain_record"]
    explain_ids = {s[ID] for s in explains}
    augmented_flows = sum(
        s[PARENT] in explain_ids for s in by_name["prompts.build_augmented_prompt"]
    )
    checks = by_name["checkers.run_all_checks"]
    cache_gets = by_name["enrichment.cache_get"]
    runs = by_name["pipeline.run_explain"]
    run_flows = sum(s[SIZE] for s in runs)
    server_us: dict[str, float] = defaultdict(float)
    for span in by_name["flows.record_from_row"] + explains:
        server_us[span[TAG]] += wall(span)
    overheads = [client_us - server_us[tag] for tag, client_us in requests]
    return {
        "flows.parse_dataset.rows_per_s": rows_per_s("flows.parse_dataset"),
        "flows.record_from_row.wall_us": mean("flows.record_from_row", wall),
        "history.query_history.calls": len(by_name["history.query_history"]),
        "history.query_history.wall_us": mean("history.query_history", wall),
        "history.query_history.wait_us": mean("history.query_history", wait),
        "history.append_many.rows_per_s": rows_per_s("history.append_many"),
        "history.append.wall_us": mean("history.append", wall),
        "history.append.wait_us": mean("history.append", wait),
        "enrichment.build.self_us": mean("enrichment.build", self_us),
        "enrichment.cache_hit_ratio": ratio(sum(s[SIZE] for s in cache_gets), len(cache_gets)),
        "providers.lookups": len(by_name["providers.lookup"]),
        "prompts.enforce_budget.wall_us": mean("prompts.enforce_budget", wall),
        "prompts.enforce_budget.self_us": mean("prompts.enforce_budget", self_us),
        "prompts.build_augmented_prompt.calls_per_flow": ratio(
            len(by_name["prompts.build_augmented_prompt"]), augmented_flows),
        "prompts.trims_per_prompt": mean("prompts.enforce_budget", lambda s: s[SIZE]),
        "gateway.generate.wall_us": mean("gateway.generate", wall),
        "gateway.generate.cpu_us": mean("gateway.generate", cpu),
        "gateway.generate.wait_us": mean("gateway.generate", wait),
        "gateway.attempts_per_request": ratio(
            len(by_name["gateway.complete"]), len(by_name["gateway.generate"])),
        "checkers.run_all_checks.wall_us": mean("checkers.run_all_checks", wall),
        "checkers.run_all_checks.us_per_kchar": ratio(
            sum(wall(s) for s in checks), sum(s[SIZE][0] for s in checks) / 1000),
        "checkers.findings_per_flow": mean("checkers.run_all_checks", lambda s: s[SIZE][1]),
        "pipeline.run_explain.self_us_per_flow": ratio(
            sum(self_us(s) for s in runs), run_flows),
        "pipeline.explain_record.self_us": mean("pipeline.explain_record", self_us),
        "pipeline.wait_share": ratio(sum(map(wait, explains)), sum(map(wall, explains))),
        "service.overhead_us": statistics.median(overheads) if overheads else 0.0,
    }

