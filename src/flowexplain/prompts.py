"""Deterministic construction of basic and augmented explanation prompts.

A basic prompt is the instruction text followed by the rendered flow. An
augmented prompt starts with the byte-identical basic prompt and appends
three titled knowledge sections. Budget enforcement trims the least
essential content first and never touches the instruction, the flow block
or availability markers.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field
from decimal import Decimal
from importlib import resources
from pathlib import Path
from typing import Iterator

from .catalog import UNIT_LABELS, FeatureCatalog
from .enrichment import EnrichmentContext, IpKnowledge
from .errors import InputError
from .flows import FlowRecord, render_flow_text

MODE_BASIC = "basic"
MODE_AUGMENTED = "augmented"

BASIC_SLOTS = ("flow",)
AUGMENTED_SLOTS = ("spec", "protocols", "ip_knowledge")

SECTION_INSTRUCTION = "instruction"
SECTION_FLOW = "flow"
SECTION_SPEC = "netflow_spec"
SECTION_PROTOCOLS = "protocol_knowledge"
SECTION_IP = "ip_knowledge"

_PLACEHOLDER = re.compile(r"\{\{([a-zA-Z_][a-zA-Z0-9_]*)\}\}")


class TemplateError(InputError, ValueError):
    """Raised when a prompt template does not match its expected slots."""


class BudgetInfeasibleError(RuntimeError):
    """Raised when even the untrimmable prompt core exceeds the budget."""

    def __init__(self, token_count: int, budget: int):
        super().__init__(
            f"prompt core needs {token_count} tokens but the budget is {budget}"
        )
        self.token_count = token_count
        self.budget = budget


@dataclass(frozen=True)
class PromptTemplate:
    """A template file's validated placeholder layout."""

    template_id: str
    slots: tuple[str, ...]
    pieces: tuple[str, ...]  # literal text around the placeholders; len(slots) + 1


def parse_template(
    text: str, template_id: str, expected_slots: tuple[str, ...]
) -> PromptTemplate:
    """Validate placeholder names, multiplicity and order.

    The template must contain each expected placeholder exactly once, in
    order, and nothing else in double braces. Trailing whitespace after
    the final placeholder is dropped so the last substituted block ends
    the prompt; a basic template may have nothing else after ``{{flow}}``.
    """
    found = [(m.group(1), m.start(), m.end()) for m in _PLACEHOLDER.finditer(text)]
    names = [name for name, _, _ in found]
    for name in names:
        if name not in expected_slots:
            raise TemplateError(
                f"template {template_id!r} uses unknown placeholder {{{{{name}}}}}"
            )
    if names != list(expected_slots):
        raise TemplateError(
            f"template {template_id!r} must contain placeholders "
            f"{expected_slots} exactly once each, in order; found {tuple(names)}"
        )
    pieces: list[str] = []
    cursor = 0
    for _, start, end in found:
        pieces.append(text[cursor:start])
        cursor = end
    pieces.append(text[cursor:].rstrip())
    if expected_slots == BASIC_SLOTS and pieces[-1]:
        raise TemplateError(
            "basic template must end with {{flow}} so the flow block is the final section"
        )
    return PromptTemplate(template_id=template_id, slots=tuple(names), pieces=tuple(pieces))


def load_template(
    source: str | Path, template_id: str, expected_slots: tuple[str, ...]
) -> PromptTemplate:
    return parse_template(
        Path(source).read_text(encoding="utf-8"), template_id, expected_slots
    )


def default_basic_template() -> PromptTemplate:
    text = resources.files("flowexplain").joinpath("data/templates/basic.txt").read_text("utf-8")
    return parse_template(text, "basic-default", BASIC_SLOTS)


def default_augmented_template() -> PromptTemplate:
    text = (
        resources.files("flowexplain").joinpath("data/templates/augmented.txt").read_text("utf-8")
    )
    return parse_template(text, "augmented-default", AUGMENTED_SLOTS)


def count_tokens(text: str) -> int:
    """Token count of ``text`` under a character-ratio heuristic.

    One token per 2.7 characters, rounded up, computed in exact integer
    arithmetic, so the count is monotone non-decreasing under
    concatenation. It reads only the text's length.
    """
    return _tokens_for_length(len(text))


def _tokens_for_length(length: int) -> int:
    return (length * 10 + 26) // 27


@dataclass(frozen=True)
class PromptBundle:
    """Final prompt text with its section map and build metadata."""

    text: str
    sections: dict[str, tuple[int, int]]
    token_count: int
    mode: str
    flow_id: str
    metadata: dict[str, object]
    # The pre-rendered augmented prompt that budget fitting trims.
    _layout: "_Layout | None" = field(default=None, repr=False, compare=False)

    def to_record(self) -> dict:
        """Serializable form for audit logs."""
        return {
            "text": self.text,
            "sections": {k: list(v) for k, v in self.sections.items()},
            "token_count": self.token_count,
            "mode": self.mode,
            "flow_id": self.flow_id,
            "metadata": self.metadata,
        }


def build_basic_prompt(
    record: FlowRecord,
    catalog: FeatureCatalog,
    template: PromptTemplate,
) -> PromptBundle:
    """Instruction text followed by the rendered flow block."""
    if template.slots != BASIC_SLOTS:
        raise TemplateError(
            f"basic prompt requires a template with slots {BASIC_SLOTS}, "
            f"got {template.slots}"
        )
    instruction = template.pieces[0]
    flow_block = render_flow_text(record, catalog)
    text = instruction + flow_block
    return PromptBundle(
        text=text,
        sections={
            SECTION_INSTRUCTION: (0, len(instruction)),
            SECTION_FLOW: (len(instruction), len(flow_block)),
        },
        token_count=count_tokens(text),
        mode=MODE_BASIC,
        flow_id=record.flow_id,
        metadata={
            "catalog_version": catalog.version,
            "template_id": template.template_id,
            "trims": [],
        },
    )


_TRIM_HISTORY = "history_entry"
_TRIM_SPEC = "spec_entry:"
_TRIM_PROTOCOLS = "protocol_descriptions"

_NO_SPEC_ENTRIES = "- (all feature specifications omitted to fit the prompt budget)"


def _format_code(numeric_id) -> str:
    if isinstance(numeric_id, tuple):
        master, sub = numeric_id
        return f"{master}.{sub}" if sub else str(master)
    return str(numeric_id)


def _render_protocols(context: EnrichmentContext, descriptions: bool) -> str:
    lines = []
    for kind, info in (("Transport", context.l4), ("Application", context.l7)):
        line = f"- {kind} protocol {_format_code(info.numeric_id)}: {info.name}"
        if descriptions and info.description:
            line += f" ({info.description})"
        lines.append(line)
    return "\n".join(lines)


def _render_ip_side(title: str, side: IpKnowledge) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The endpoint's fixed lines and its history lines, most recent first."""
    unavailable = side.unavailable
    lines = [f"{title} {side.ip}:"]
    lines.append(f"- classification: {side.classification}")

    if side.geo is not None:
        geo = side.geo
        parts = []
        if geo.country:
            parts.append(f"country={geo.country}")
        if geo.city:
            parts.append(f"city={geo.city}")
        if geo.asn is not None:
            parts.append(f"asn=AS{geo.asn}")
        if geo.as_name:
            parts.append(f"as_name={geo.as_name}")
        detail = ", ".join(parts) if parts else "no attributes reported"
        lines.append(f"- geolocation: {detail} (source: {geo.provenance})")
    else:
        lines.append(f"- geolocation unavailable: {unavailable['geo']}")

    if side.threat is not None:
        threat = side.threat
        categories = ",".join(threat.categories) if threat.categories else "none"
        detail = f"verdict={threat.verdict}, categories={categories}"
        if threat.last_seen:
            detail += f", last_seen={threat.last_seen}"
        lines.append(f"- threat intelligence: {detail} (source: {threat.provenance})")
    else:
        lines.append(f"- threat intelligence unavailable: {unavailable['cti']}")

    if "history" in unavailable:
        lines.append(f"- recent connections unavailable: {unavailable['history']}")
        return tuple(lines), ()
    if not side.history:
        lines.append("- recent connections: none on record")
        return tuple(lines), ()
    lines.append("- recent connections (most recent first):")
    history = tuple(
        f"  {i}. ts={entry.timestamp} {entry.src_ip} -> {entry.dst_ip} "
        f"proto {entry.l4_protocol_id} [{entry.label}] {entry.summary}"
        for i, entry in enumerate(side.history, start=1)
    )
    return tuple(lines), history


def _omitted_line(trimmed: int) -> str:
    noun = "entry" if trimmed == 1 else "entries"
    return f"  ({trimmed} older {noun} omitted for budget)"


def _trimmed_history(history: tuple[str, ...], trimmed: int) -> list[str]:
    if not trimmed:
        return list(history)
    return [*history[: len(history) - trimmed], _omitted_line(trimmed)]


@dataclass(frozen=True)
class _Layout:
    """An augmented prompt rendered once, with the fixed order of its trims.

    ``plan`` lists every trim budget fitting may apply, least essential
    first: history entries oldest first across both endpoints (ties go to
    the source), then the spec entries of zero-valued features, then the
    protocol descriptions. The instruction, the flow block and the
    availability markers are not in it. :meth:`bundle` assembles the
    prompt with the first ``n`` trims of the plan applied; :meth:`lengths`
    gives the length of the text each further trim leaves, without
    rendering it.
    """

    basic: PromptBundle
    pieces: tuple[str, ...]
    spec: tuple[tuple[str, str], ...]  # (trim marker, line) per feature
    protocols: tuple[str, str]  # with and without descriptions
    endpoints: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]  # src, dst
    history_trims: tuple[int, ...]  # endpoint index of each history trim
    plan: tuple[str, ...]
    metadata: dict[str, object]

    def _segments(self, n: int) -> tuple[str, str, str]:
        applied = set(self.plan[:n])
        history_trims = self.history_trims[:n]
        spec = "\n".join([line for marker, line in self.spec if marker not in applied])
        ip_lines = []
        for index, (fixed, history) in enumerate(self.endpoints):
            ip_lines += fixed
            ip_lines += _trimmed_history(history, history_trims.count(index))
        pieces = self.pieces
        return (
            "\n\n" + pieces[0] + (spec or _NO_SPEC_ENTRIES),
            pieces[1] + self.protocols[_TRIM_PROTOCOLS in applied],
            pieces[2] + "\n".join(ip_lines) + pieces[3],
        )

    def lengths(self, n: int, length: int) -> Iterator[int]:
        """The text's length after each trim past the first ``n``, in plan order.

        ``length`` is the length with the first ``n`` trims applied. A
        history trim drops the endpoint's oldest shown line and its newline,
        and puts the "(k+1 older entries omitted)" line in place of the "k"
        one; a spec trim drops one line and its newline, except that the last
        line leaves the no-entries line in its place; the protocol trim swaps
        the two renderings.
        """
        spec_lines = dict(self.spec)
        spec_left = len(self.spec) - sum(t.startswith(_TRIM_SPEC) for t in self.plan[:n])
        omitted = [self.history_trims[:n].count(i) for i in range(len(self.endpoints))]
        for position in range(n, len(self.plan)):
            trim = self.plan[position]
            if trim == _TRIM_HISTORY:
                index = self.history_trims[position]
                k = omitted[index]
                omitted[index] = k + 1
                # a line of the section costs its length plus its newline
                dropped = len(self.endpoints[index][1][-k - 1]) + 1
                replaced = len(_omitted_line(k)) + 1 if k else 0
                length += len(_omitted_line(k + 1)) + 1 - replaced - dropped
            elif trim == _TRIM_PROTOCOLS:
                length += len(self.protocols[1]) - len(self.protocols[0])
            else:
                spec_left -= 1
                line = spec_lines[trim]
                length += len(_NO_SPEC_ENTRIES) - len(line) if not spec_left else -len(line) - 1
            yield length

    def bundle(self, n: int, token_count: int | None = None) -> PromptBundle:
        segments = self._segments(n)
        text = self.basic.text + "".join(segments)
        sections = dict(self.basic.sections)
        offset = len(self.basic.text)
        for section_id, segment in zip((SECTION_SPEC, SECTION_PROTOCOLS, SECTION_IP), segments):
            sections[section_id] = (offset, len(segment))
            offset += len(segment)
        if token_count is None:
            token_count = count_tokens(text)
        return PromptBundle(
            text=text,
            sections=sections,
            token_count=token_count,
            mode=MODE_AUGMENTED,
            flow_id=self.basic.flow_id,
            metadata={**self.metadata, "trims": list(self.plan[:n])},
            _layout=self,
        )


def _is_zero(value) -> bool:
    return isinstance(value, (int, Decimal)) and not isinstance(value, bool) and value == 0


def build_augmented_prompt(
    record: FlowRecord,
    context: EnrichmentContext,
    catalog: FeatureCatalog,
    basic_template: PromptTemplate,
    augmented_template: PromptTemplate,
) -> PromptBundle:
    """Basic prompt plus the three titled knowledge sections, in order."""
    if context.flow_id != record.flow_id:
        raise ValueError(
            f"context was built for flow {context.flow_id!r}, not {record.flow_id!r}"
        )
    if augmented_template.slots != AUGMENTED_SLOTS:
        raise TemplateError(
            f"augmented prompt requires a template with slots {AUGMENTED_SLOTS}, "
            f"got {augmented_template.slots}"
        )
    basic = build_basic_prompt(record, catalog, basic_template)

    endpoints = (context.src, context.dst)
    oldest_first = [
        [(entry.timestamp, index) for entry in reversed(endpoint.history)]
        for index, endpoint in enumerate(endpoints)
    ]
    history_trims = tuple(index for _, index in heapq.merge(*oldest_first))
    spec_trims = tuple(
        _TRIM_SPEC + spec.name
        for spec in catalog.features
        if _is_zero(record.values[spec.name])
    )
    protocol_trims = (
        (_TRIM_PROTOCOLS,) if context.l4.description or context.l7.description else ()
    )

    layout = _Layout(
        basic=basic,
        pieces=augmented_template.pieces,
        spec=tuple(
            (_TRIM_SPEC + spec.name,
             f"- {spec.name}: {spec.definition} [{UNIT_LABELS[spec.unit]}]")
            for spec in catalog.features
        ),
        protocols=(_render_protocols(context, True), _render_protocols(context, False)),
        endpoints=(
            _render_ip_side("Source IP", context.src),
            _render_ip_side("Destination IP", context.dst),
        ),
        history_trims=history_trims,
        plan=(_TRIM_HISTORY,) * len(history_trims) + spec_trims + protocol_trims,
        metadata={
            "catalog_version": catalog.version,
            "template_id": basic_template.template_id,
            "augmented_template_id": augmented_template.template_id,
            "providers": dict(context.provider_ids),
            "unavailable": [[u.component, u.reason] for u in context.unavailable],
        },
    )
    return layout.bundle(0)


def enforce_budget(bundle: PromptBundle, budget: int) -> PromptBundle:
    """Shrink a bundle to the token budget, or fail if the core cannot fit.

    The result is the bundle with the shortest prefix of its trim plan
    (see :class:`_Layout`) whose text fits. Prefixes are tried in order
    and each is counted. The token count depends on the text's length
    alone, so each prefix is counted from the length its trims leave,
    and only the fitted prompt is rendered. Every trim is recorded in
    ``metadata["trims"]``. A basic prompt has nothing to trim.
    """
    if budget <= 0:
        raise ValueError("token budget must be positive")
    if bundle.token_count <= budget:
        return bundle
    layout = bundle._layout
    if layout is None:
        raise BudgetInfeasibleError(bundle.token_count, budget)
    token_count = bundle.token_count
    trimmed = len(bundle.metadata["trims"])
    for n, length in enumerate(layout.lengths(trimmed, len(bundle.text)), trimmed + 1):
        token_count = _tokens_for_length(length)
        if token_count <= budget:
            return layout.bundle(n, token_count)
    raise BudgetInfeasibleError(token_count, budget)
