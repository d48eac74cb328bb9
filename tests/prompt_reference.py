"""Reference augmented prompt for differential tests.

This is ``Runtime.build_prompt`` for an augmented prompt as it was when it
read every endpoint's history rows before fitting: the context, then the
prompt with every row laid out, then the render-per-trim fit of
``budget_reference``. ``tests/test_prompt_history.py`` checks that the
runtime, which reads only each endpoint's count of entries when no history
line can fit, gives the same bundles and the same errors. Do not edit it to
match a change in the package: it is the behaviour the package keeps.
"""

from __future__ import annotations

from flowexplain.prompts import PromptBundle, build_augmented_prompt

from . import budget_reference


def unfitted_prompt(runtime, record) -> PromptBundle:
    """The flow's augmented prompt with every history row read, untrimmed."""
    context = runtime.context_builder.build(record)
    return build_augmented_prompt(
        record, context, runtime.catalog, runtime.basic_template, runtime.augmented_template
    )


def build_prompt(runtime, record) -> PromptBundle:
    return budget_reference.enforce_budget(
        unfitted_prompt(runtime, record), runtime.config.token_budget
    )
