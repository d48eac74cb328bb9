"""Records golden digests of budget-fitted augmented prompts. Run from the repo root:

    PYTHONPATH=src python3 tests/data/record_budget_golden.py

A case is one malicious flow of ``flows_small.csv``, one history depth k
and one token budget. The whole dataset is ingested as connection history
and the fixture geo and CTI providers are on, so prompts carry every kind
of trimmable content. Each case's outcome is the fitted bundle's ``text``,
``sections``, ``token_count`` and ``metadata``, or the token count of the
``BudgetInfeasibleError``. Outcomes are hashed per (k, flow) over all
budgets and written to ``budget_golden.json``.

The committed digests were recorded with the rebuild-per-trim budget fit
that preceded the single-pass one; ``tests/test_prompts.py`` checks that
the current code still produces them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterator

from flowexplain.catalog import default_catalog
from flowexplain.config import history_entry_for
from flowexplain.enrichment import ContextBuilder
from flowexplain.flows import LABEL_MALICIOUS, parse_dataset
from flowexplain.history import FlowHistoryStore
from flowexplain.prompts import (
    BudgetInfeasibleError,
    PromptBundle,
    build_augmented_prompt,
    default_augmented_template,
    default_basic_template,
    enforce_budget,
)
from flowexplain.providers import FixtureGeoProvider, FixtureThreatProvider

HERE = Path(__file__).parent
GOLDEN = HERE / "budget_golden.json"

BUDGETS = range(600, 3001, 100)
HISTORY_DEPTHS = range(0, 9)


def augmented_bundles(k: int) -> Iterator[PromptBundle]:
    """The untrimmed augmented prompt of every malicious flow, in file order."""
    catalog = default_catalog()
    records, _ = parse_dataset(HERE / "flows_small.csv", catalog)
    store = FlowHistoryStore(":memory:")
    store.append_many(history_entry_for(record) for record in records)
    builder = ContextBuilder(
                store=store,
        geo_provider=FixtureGeoProvider(HERE / "geo_fixture.jsonl"),
        cti_provider=FixtureThreatProvider(HERE / "cti_fixture.jsonl"),
        k=k,
    )
    basic, augmented = default_basic_template(), default_augmented_template()
    try:
        for record in records:
            if record.label == LABEL_MALICIOUS:
                yield build_augmented_prompt(
                    record, builder.build(record), catalog, basic, augmented
                )
    finally:
        store.close()


def fitted_cases(k: int) -> Iterator[tuple[str, int, PromptBundle | BudgetInfeasibleError]]:
    """Yield ``(flow_id, budget, fitted bundle or error)`` for every case."""
    for bundle in augmented_bundles(k):
        for budget in BUDGETS:
            try:
                yield bundle.flow_id, budget, enforce_budget(bundle, budget)
            except BudgetInfeasibleError as exc:
                yield bundle.flow_id, budget, exc


def outcome_text(outcome: PromptBundle | BudgetInfeasibleError) -> str:
    if isinstance(outcome, BudgetInfeasibleError):
        return json.dumps({"infeasible": outcome.token_count})
    return json.dumps(
        {
            "text": outcome.text,
            "sections": outcome.sections,
            "token_count": outcome.token_count,
            "metadata": outcome.metadata,
        }
    )


def group_key(k: int) -> str:
    # "heuristic" names the token count every group is recorded with
    return f"heuristic k={k}"


def group_digests(
    cases: Iterator[tuple[str, int, PromptBundle | BudgetInfeasibleError]]
) -> dict[str, str]:
    """Per flow, a digest of its outcomes over all budgets in order."""
    hashes: dict = {}
    for flow_id, budget, outcome in cases:
        digest = hashes.setdefault(flow_id, hashlib.sha256())
        digest.update(f"{budget}\n{outcome_text(outcome)}\n".encode("utf-8"))
    return {flow_id: digest.hexdigest()[:16] for flow_id, digest in hashes.items()}


def record_golden() -> dict:
    return {
        "budgets": [BUDGETS.start, BUDGETS.stop, BUDGETS.step],
        "groups": {group_key(k): group_digests(fitted_cases(k)) for k in HISTORY_DEPTHS},
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record_golden(), indent=1) + "\n", encoding="utf-8")
    print("golden digests written to", GOLDEN)
