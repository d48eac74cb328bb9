"""The length-counting budget fit against the render-per-trim reference.

Layouts are built directly, so that every shape the fit meets can be drawn:
either endpoint with no, one or many history lines, spec sections that lose
all their lines, protocol texts with and without descriptions, bundles that
arrive with trims already applied, and cores that cannot fit at all.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowexplain.prompts import (
    _NO_SPEC_ENTRIES,
    _TRIM_HISTORY,
    _TRIM_PROTOCOLS,
    _TRIM_SPEC,
    SECTION_FLOW,
    SECTION_INSTRUCTION,
    BudgetInfeasibleError,
    PromptBundle,
    _Layout,
    _Spec,
    count_tokens,
    enforce_budget,
)

from . import budget_reference

TEXT = st.text(alphabet="ab -:.\né", max_size=40)


def make_layout(
    instruction: str,
    flow: str,
    pieces: tuple[str, str, str, str],
    spec_lines: list[tuple[str, bool]],
    protocols: tuple[str, str],
    endpoints: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...],
    history_trims: tuple[int, ...],
) -> _Layout:
    """A layout whose plan trims every history line, the spec lines flagged
    true, and the protocol descriptions when the two renderings differ."""
    basic = PromptBundle(
        text=instruction + flow,
        sections={
            SECTION_INSTRUCTION: (0, len(instruction)),
            SECTION_FLOW: (len(instruction), len(flow)),
        },
        token_count=count_tokens(instruction + flow),
        mode="basic",
        flow_id="flow-1",
        metadata={"template_id": "t", "trims": []},
    )
    spec = tuple((f"{_TRIM_SPEC}F{i}", line) for i, (line, _) in enumerate(spec_lines))
    spec_trims = tuple(
        marker for (marker, _), (_, zero) in zip(spec, spec_lines) if zero
    )
    protocol_trims = (_TRIM_PROTOCOLS,) if protocols[0] != protocols[1] else ()
    return _Layout(
        basic=basic,
        pieces=pieces,
        spec=_Spec.of(spec),
        protocols=protocols,
        endpoints=endpoints,
        history_trims=history_trims,
        plan=(_TRIM_HISTORY,) * len(history_trims) + spec_trims + protocol_trims,
        metadata={"template_id": "t"},
    )


def fit(fitter, bundle: PromptBundle, budget: int):
    """The fitted bundle's observable fields, or the infeasible count."""
    try:
        fitted = fitter(bundle, budget)
    except BudgetInfeasibleError as exc:
        return ("infeasible", exc.token_count, exc.budget)
    return (fitted.text, fitted.sections, fitted.token_count, fitted.mode,
            fitted.flow_id, fitted.metadata)


def assert_fits_as_reference(layout: _Layout, trimmed: int, budget: int) -> None:
    bundle = layout.bundle(trimmed)
    assert fit(enforce_budget, bundle, budget) == fit(
        budget_reference.enforce_budget, bundle, budget
    )


@st.composite
def layouts(draw) -> _Layout:
    def endpoint():
        fixed = draw(st.lists(TEXT, min_size=1, max_size=3))
        history = draw(st.lists(TEXT, max_size=5))
        return tuple(fixed), tuple(history)

    endpoints = (endpoint(), endpoint())
    owners = [0] * len(endpoints[0][1]) + [1] * len(endpoints[1][1])
    protocols = draw(TEXT)
    described = protocols + draw(TEXT)
    return make_layout(
        draw(TEXT),
        draw(TEXT),
        tuple(draw(TEXT) for _ in range(4)),
        draw(st.lists(st.tuples(TEXT.map("- F: ".__add__), st.booleans()), max_size=4)),
        (described, protocols),
        endpoints,
        tuple(draw(st.permutations(owners))),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fit_matches_the_render_per_trim_reference(data):
    layout = data.draw(layouts())
    trimmed = data.draw(st.integers(0, len(layout.plan)))
    # a budget at the count of some prefix, just under or over it, so the
    # fit stops in every kind of trim, or fails, as often as it fits at once
    stop = data.draw(st.integers(trimmed, len(layout.plan)))
    at = count_tokens(budget_reference.layout_text(layout, stop))
    budget = max(1, at + data.draw(st.integers(-1, 1)))
    assert_fits_as_reference(layout, trimmed, budget)


def _exhaustive_layout(history_depths: tuple[int, int]) -> _Layout:
    src, dst = (
        tuple(f"  {i}. ts={10 * i} 8.8.8.8 -> 10.0.0.{side} proto 6 [malicious] x"
              for i in range(1, depth + 1))
        for side, depth in enumerate(history_depths)
    )
    # the endpoints' trims interleave, oldest first
    owners = tuple(owner for _, owner in sorted(
        [(i, 0) for i in range(len(src))] + [(i, 1) for i in range(len(dst))]
    ))
    return make_layout(
        "Explain this flow.\n",
        "- IN_BYTES: 0\n- OUT_BYTES: 0",
        ("NetFlow:\n", "\n\nProtocols:\n", "\n\nIPs:\n", ""),
        [("- IN_BYTES: incoming bytes [bytes]", True),
         ("- OUT_BYTES: outgoing bytes [bytes]", True)],
        ("- Transport protocol 6: TCP (Transmission Control Protocol)",
         "- Transport protocol 6: TCP"),
        (
            (("Source IP 8.8.8.8:", "- classification: public"), src),
            (("Destination IP 10.0.0.1:", "- classification: private"), dst),
        ),
        owners,
    )


@pytest.mark.parametrize("history_depths", [(0, 0), (1, 0), (0, 1), (1, 1), (3, 2), (2, 4)])
def test_every_budget_and_starting_trim_matches_the_reference(history_depths):
    """Every stop of the plan, from every bundle it can arrive as: history
    trims that leave one and several omitted entries on each endpoint, the
    last spec line giving way to the no-entries line, the protocol swap, and
    budgets the core cannot meet."""
    layout = _exhaustive_layout(history_depths)
    full = count_tokens(budget_reference.layout_text(layout, 0))
    assert _NO_SPEC_ENTRIES in budget_reference.layout_text(layout, len(layout.plan))
    for trimmed in range(len(layout.plan) + 1):
        for budget in range(1, full + 2):
            assert_fits_as_reference(layout, trimmed, budget)
