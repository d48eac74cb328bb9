"""History is read only as deep as the fitted prompt shows it.

``Runtime.build_prompt`` reads each endpoint's count of history entries,
and no row, when the prompt with every history line trimmed overflows the
budget. These tests hold it to the prompts of a fit that reads every row
first (``prompt_reference``), and count the statements it sends to the store.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowexplain.enrichment import ContextBuilder
from flowexplain.history import HISTORY_LABELS
from flowexplain.pipeline import PipelineConfig, Runtime
from flowexplain.prompts import MODE_AUGMENTED, BudgetInfeasibleError, count_tokens

from . import budget_reference, prompt_reference
from .conftest import CTI_FIXTURE, DATASET, GEO_FIXTURE, history_entry, make_record, seeded_store

# "::" makes the shortest history line there is, as long as the line that
# replaces it when it is trimmed; 8.8.8.8 is known to both providers
ADDRESSES = ("::", "10.0.0.1", "8.8.8.8")


@pytest.fixture(scope="module")
def runtime():
    runtime = Runtime(PipelineConfig(
        dataset=DATASET,
        geo_provider={"kind": "fixture", "fixture": str(GEO_FIXTURE)},
        cti_provider={"kind": "fixture", "fixture": str(CTI_FIXTURE)},
    ))
    yield runtime
    runtime.close()


def use_store(runtime, store, k=5, include_benign=True) -> None:
    runtime.context_builder = ContextBuilder(
        store=store, geo_provider=runtime.geo_provider, cti_provider=runtime.cti_provider,
        k=k, include_benign=include_benign,
    )


def outcome(build):
    """The fitted bundle's observable fields, or the infeasible count."""
    try:
        bundle = build()
    except BudgetInfeasibleError as exc:
        return ("infeasible", exc.token_count, exc.budget)
    return (bundle.text, bundle.sections, bundle.token_count, bundle.mode, bundle.flow_id,
            bundle.metadata)


def prefix_tokens(runtime, record, n: int) -> int:
    """Tokens of the reference prompt with its first ``n`` trims applied."""
    layout = prompt_reference.unfitted_prompt(runtime, record)._layout
    return count_tokens(budget_reference.layout_text(layout, min(n, len(layout.plan))))


@st.composite
def cases(draw):
    summaries = st.sampled_from(("", "x", "100B in / 50B out, 10 ms"))
    entry = st.builds(
        history_entry,
        flow_id=st.sampled_from(("f0", "f1")),
        timestamp=st.integers(0, 5),
        src_ip=st.sampled_from(ADDRESSES),
        dst_ip=st.sampled_from(ADDRESSES),
        l4_protocol_id=st.sampled_from((0, 6, 17)),
        label=st.sampled_from(HISTORY_LABELS),
        summary=summaries,
    )
    # an empty store, a single entry, or histories deeper than any k
    entries = draw(st.lists(entry, max_size=1) | st.lists(entry, min_size=10, max_size=30))
    return (
        entries,
        draw(st.sampled_from(ADDRESSES)),
        draw(st.sampled_from(ADDRESSES)),
        draw(st.integers(0, 6)),
        draw(st.booleans()),
        draw(st.none() | st.integers(0, 6)),
    )


@settings(max_examples=200, deadline=None)
@given(case=cases(), data=st.data())
def test_prompt_matches_the_read_every_row_reference(runtime, case, data):
    entries, src, dst, k, include_benign, before = case
    record = make_record(runtime.catalog, IPV4_SRC_ADDR=src, IPV4_DST_ADDR=dst,
                         PROTOCOL=6, timestamp=before)
    with seeded_store(entries) as store:
        use_store(runtime, store, k, include_benign)
        layout = prompt_reference.unfitted_prompt(runtime, record)._layout
        shown = len(layout.history_trims)
        # the budget sits by where the prompt with every history line
        # trimmed stops fitting, or by another stop of the plan
        stop = data.draw(st.sampled_from((shown, shown + 1)) | st.integers(0, len(layout.plan)))
        at = prefix_tokens(runtime, record, stop)
        runtime.config.token_budget = max(1, at + data.draw(st.integers(-2, 2)))
        assert outcome(lambda: runtime.build_prompt(record, MODE_AUGMENTED)) == outcome(
            lambda: prompt_reference.build_prompt(runtime, record)
        )


class TestStatements:
    """The source has no history and the destination a deep one, so the
    prompt with every history line trimmed is shorter than it would be
    with both endpoints at ``k`` entries."""

    SRC, DST = "10.0.0.1", "8.8.8.8"

    @pytest.fixture
    def store(self, runtime):
        entries = [
            history_entry(flow_id=f"e{i}", timestamp=i, src_ip=self.DST if i % 2 else "10.0.0.9",
                          dst_ip="10.0.0.9" if i % 2 else self.DST)
            for i in range(100)
        ]
        with seeded_store(entries) as store:
            use_store(runtime, store)
            yield store

    def record(self, runtime):
        return make_record(runtime.catalog, IPV4_SRC_ADDR=self.SRC, IPV4_DST_ADDR=self.DST,
                           PROTOCOL=6, timestamp=1_000)

    def statements(self, runtime, store, trimmed: int, over: int = 0) -> list[str]:
        """The statements one augmented prompt sends to the store, with a
        budget ``over`` tokens under the reference prompt's that has its
        first ``trimmed`` trims taken."""
        record = self.record(runtime)
        assert len(prompt_reference.unfitted_prompt(runtime, record)._layout.history_trims) == 5
        runtime.config.token_budget = prefix_tokens(runtime, record, trimmed) - over
        sent = []
        store._conn.set_trace_callback(sent.append)
        try:
            runtime.build_prompt(record, MODE_AUGMENTED)
        finally:
            store._conn.set_trace_callback(None)
        return [statement[:23] for statement in sent]

    def test_history_that_cannot_fit_reads_no_row(self, runtime, store):
        # the budget that the prompt with every history line trimmed just misses
        assert self.statements(runtime, store, 5, over=1) == ["SELECT (SELECT count(*)"]

    def test_history_that_fits_is_counted_then_read(self, runtime, store):
        assert self.statements(runtime, store, 5) == [
            "SELECT (SELECT count(*)", "SELECT * FROM (SELECT 0"
        ]

    def test_history_that_fits_at_any_count_is_read_without_counting(self, runtime, store):
        assert self.statements(runtime, store, 0) == ["SELECT * FROM (SELECT 0"]
