"""Reference budget fit for differential tests.

This is ``flowexplain.prompts.enforce_budget`` as it was when it rendered
the whole prompt for every prefix of the trim plan and counted the text.
``tests/test_budget_fit.py`` checks that the package's fit, which counts
lengths instead, gives the same bundles and the same errors. Do not edit it
to match a change in the package: it is the behaviour the package keeps.
"""

from __future__ import annotations

from flowexplain.prompts import BudgetInfeasibleError, PromptBundle, count_tokens


def layout_text(layout, n: int) -> str:
    """The prompt with the first ``n`` trims of the layout's plan applied, rendered."""
    return layout.basic.text + "".join(layout._segments(n))


def enforce_budget(bundle: PromptBundle, budget: int) -> PromptBundle:
    if budget <= 0:
        raise ValueError("token budget must be positive")
    if bundle.token_count <= budget:
        return bundle
    layout = bundle._layout
    if layout is None:
        raise BudgetInfeasibleError(bundle.token_count, budget)
    token_count = bundle.token_count
    for n in range(len(bundle.metadata["trims"]) + 1, len(layout.plan) + 1):
        token_count = count_tokens(layout_text(layout, n))
        if token_count <= budget:
            return layout.bundle(n, token_count)
    raise BudgetInfeasibleError(token_count, budget)
