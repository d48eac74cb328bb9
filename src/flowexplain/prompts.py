"""Deterministic construction of basic and augmented explanation prompts.

A basic prompt is the instruction text followed by the rendered flow. An
augmented prompt starts with the byte-identical basic prompt and appends
three titled knowledge sections. Budget enforcement trims the least
essential content first and never touches the instruction, the flow block
or availability markers.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import itertools
import re
from dataclasses import dataclass, field
from decimal import Decimal
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .catalog import UNIT_LABELS, FeatureCatalog
from .errors import InputError
from .flows import FlowRecord, render_flow_text

if TYPE_CHECKING:  # annotations alone: importing count_tokens loads no provider code
    from .enrichment import EnrichmentContext, IpKnowledge

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
    # The parts of an augmented prompt, which budget fitting trims.
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


def _render_ip_side(title: str, side: IpKnowledge) -> tuple[str, ...]:
    """The endpoint's lines before its connection history, or with the line
    that says why it has none."""
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
    return tuple(lines)


_NO_HISTORY = ("- recent connections: none on record",)
_HISTORY_HEADER = ("- recent connections (most recent first):",)


def _history_lines(history) -> tuple[str, ...]:
    """One line per history entry, most recent first.

    A line is never shorter than ``_omitted_line(1)``, 36 characters, as
    ``  1. ts=0 :: -> :: proto 0 [benign] `` is; so each history trim
    shortens the prompt.
    """
    return tuple(
        f"  {i}. ts={entry.timestamp} {entry.src_ip} -> {entry.dst_ip} "
        f"proto {entry.l4_protocol_id} [{entry.label}] {entry.summary}"
        for i, entry in enumerate(history, start=1)
    )


def _omitted_line(trimmed: int) -> str:
    noun = "entry" if trimmed == 1 else "entries"
    return f"  ({trimmed} older {noun} omitted for budget)"


def _trimmed_history(history: tuple[str, ...], trimmed: int) -> list[str]:
    if not trimmed:
        return list(history)
    return [*history[: len(history) - trimmed], _omitted_line(trimmed)]


class _Spec(NamedTuple):
    """A catalog's specification section, which every augmented prompt holds.

    ``entries`` is a (trim marker, line) pair per feature, ``length`` the
    section's length untrimmed, and ``line_lengths`` each line's length by
    its marker.
    """

    entries: tuple[tuple[str, str], ...]
    length: int
    line_lengths: dict[str, int]
    numeric: tuple[str, ...] = ()  # the integer and decimal features, which may be zero

    @classmethod
    def of(cls, entries: tuple[tuple[str, str], ...], numeric: tuple[str, ...] = ()) -> "_Spec":
        line_lengths = {marker: len(line) for marker, line in entries}
        return cls(entries, sum(line_lengths.values()) + len(entries) - 1, line_lengths, numeric)


#: the spec section of each catalog in use, by identity (hashing a catalog
#: compares every feature, and costs about as much as building the section)
_SPECS: dict[int, tuple[FeatureCatalog, _Spec]] = {}


def _spec(catalog: FeatureCatalog) -> _Spec:
    """The catalog's spec section, built once per catalog."""
    cached = _SPECS.get(id(catalog))
    if cached is None or cached[0] is not catalog:
        if len(_SPECS) >= 8:  # a catalog seldom changes; keep the latest few
            _SPECS.clear()
        cached = _SPECS[id(catalog)] = (catalog, _Spec.of(tuple(
            (_TRIM_SPEC + spec.name,
             f"- {spec.name}: {spec.definition} [{UNIT_LABELS[spec.unit]}]")
            for spec in catalog.features
        ), tuple(spec.name for spec in catalog.features
                 if spec.value_kind in ("integer", "decimal"))))
    return cached[1]


@dataclass(frozen=True)
class _Layout:
    """The rendered parts of an augmented prompt, with the fixed order of its trims.

    ``plan`` lists every trim budget fitting may apply, least essential
    first: history entries oldest first across both endpoints (ties go to
    the source), then the spec entries of zero-valued features, then the
    protocol descriptions. The instruction, the flow block and the
    availability markers are not in it. :meth:`bundle` assembles the
    prompt with the first ``n`` trims of the plan applied; :meth:`lengths`
    gives the length of the text each further trim leaves, without
    rendering it. ``applied`` lists the trims the lines already have, which
    are recorded ahead of the plan's: a layout made from history counts
    holds each endpoint's omitted-entries line in place of its history.
    """

    basic: PromptBundle
    pieces: tuple[str, ...]
    spec: _Spec
    protocols: tuple[str, str]  # with and without descriptions
    endpoints: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]  # src, dst
    history_trims: tuple[int, ...]  # endpoint index of each history trim
    plan: tuple[str, ...]
    metadata: dict[str, object]
    applied: tuple[str, ...] = ()

    def _segments(self, n: int) -> tuple[str, str, str]:
        applied = set(self.plan[:n])
        history_trims = self.history_trims[:n]
        spec = "\n".join([line for marker, line in self.spec.entries if marker not in applied])
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

    @functools.cached_property
    def untrimmed_length(self) -> int:
        """The length of the text with no trims applied, counted without rendering it.

        A section of k lines holds their lengths plus k - 1 newlines; a spec
        section that comes out empty holds the no-entries line instead.
        """
        spec = self.spec.length
        ip_lines = -1
        for lines in itertools.chain.from_iterable(self.endpoints):
            ip_lines += sum(map(len, lines)) + len(lines)
        return (len(self.basic.text) + 2 + sum(map(len, self.pieces))
                + (spec if spec > 0 else len(_NO_SPEC_ENTRIES))
                + len(self.protocols[0]) + max(ip_lines, 0))

    def lengths(self, n: int) -> Iterator[int]:
        """The text's length after each trim past the first ``n``, in plan order.

        Each length is counted from the one before, starting at
        :attr:`untrimmed_length`. A history trim drops the endpoint's oldest
        shown line and its newline, and puts the "(k+1 older entries
        omitted)" line in place of the "k" one; a spec trim drops one line
        and its newline, except that the last line leaves the no-entries
        line in its place; the protocol trim swaps the two renderings.
        """
        length = self.untrimmed_length
        spec_lines = self.spec.line_lengths
        spec_left = len(self.spec.entries)
        omitted = [0] * len(self.endpoints)
        for position, trim in enumerate(self.plan):
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
                length += len(_NO_SPEC_ENTRIES) - line if not spec_left else -line - 1
            if position >= n:
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
            metadata={**self.metadata, "trims": [*self.applied, *self.plan[:n]]},
            _layout=self,
        )


class _Unrendered(PromptBundle):
    """A layout's prompt with no trims applied, rendered when its text or
    section map is first read: budget fitting reads only its token count."""

    def __init__(self, layout: _Layout):
        for name, value in (
            ("token_count", _tokens_for_length(layout.untrimmed_length)),
            ("mode", MODE_AUGMENTED),
            ("flow_id", layout.basic.flow_id),
            ("metadata", {**layout.metadata, "trims": list(layout.applied)}),
            ("_layout", layout),
        ):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def _rendered(self) -> PromptBundle:
        return self._layout.bundle(0, self.token_count)

    text = property(lambda self: self._rendered.text)
    sections = property(lambda self: self._rendered.sections)


def _is_zero(value) -> bool:
    return isinstance(value, (int, Decimal)) and not isinstance(value, bool) and value == 0


def build_augmented_prompt(
    record: FlowRecord,
    context: EnrichmentContext,
    catalog: FeatureCatalog,
    basic_template: PromptTemplate,
    augmented_template: PromptTemplate,
    budget: int | None = None,
) -> PromptBundle:
    """Basic prompt plus the three titled knowledge sections, in order.

    The text is rendered when it is first read, so that budget fitting,
    which needs only its length, renders only the prompt it keeps.

    Given the ``budget`` the prompt will be fitted to, the prompt is first
    measured from each endpoint's count of entries alone, as if every
    history trim were taken: the header and the omitted-entries line. If
    that prompt overflows the budget, so does every prompt with fewer
    history trims, since each one shortens the text; fitting takes them
    all, the prompt is laid out from the counts with them applied, and no
    history row is read. Only otherwise are the rows read. The counts are
    not read when the prompt would fit with every endpoint at the most
    entries a read returns.
    """
    if context.flow_id != record.flow_id:
        raise ValueError(
            f"context was built for flow {context.flow_id!r}, not {record.flow_id!r}"
        )
    if augmented_template.slots != AUGMENTED_SLOTS:
        raise TemplateError(
            f"augmented prompt requires a template with slots {AUGMENTED_SLOTS}, "
            f"got {augmented_template.slots}"
        )
    known = (_render_ip_side("Source IP", context.src),
             _render_ip_side("Destination IP", context.dst))
    spec = _spec(catalog)
    values = record.values
    # a comparison first: most values are not zero, and they skip the call
    spec_trims = tuple([_TRIM_SPEC + name for name in spec.numeric
                        if values[name] == 0 and _is_zero(values[name])])
    protocol_trims = (
        (_TRIM_PROTOCOLS,) if context.l4.description or context.l7.description else ()
    )
    layout = _Layout(
        basic=build_basic_prompt(record, catalog, basic_template),
        pieces=augmented_template.pieces,
        spec=spec,
        protocols=(_render_protocols(context, True), _render_protocols(context, False)),
        endpoints=tuple((lines, ()) for lines in known),
        history_trims=(),
        plan=spec_trims + protocol_trims,
        metadata={
            "catalog_version": catalog.version,
            "template_id": basic_template.template_id,
            "augmented_template_id": augmented_template.template_id,
            "providers": dict(context.provider_ids),
            "unavailable": [[u.component, u.reason] for u in context.unavailable],
        },
    )
    histories = context.histories
    if histories is None:
        return _Unrendered(layout)
    if budget is not None:

        def trimmed_tokens(counts) -> int:
            length = layout.untrimmed_length
            return _tokens_for_length(length + sum(map(_trimmed_history_length, counts)))

        # of the prompts with every history trim taken, the longest has as
        # many entries per endpoint as a read returns: when it fits, the rows
        # are read whatever the counts
        if trimmed_tokens((histories.k, histories.k)) > budget:
            counts = histories.counts
            if trimmed_tokens(counts) > budget:
                return _Unrendered(dataclasses.replace(
                    layout,
                    endpoints=tuple(
                        _history_endpoint(lines, (_omitted_line(count),) if count else ())
                        for lines, count in zip(known, counts)
                    ),
                    applied=(_TRIM_HISTORY,) * sum(counts),
                ))
    entries = histories.entries
    oldest_first = [
        [(entry.timestamp, index) for entry in reversed(history)]
        for index, history in enumerate(entries)
    ]
    history_trims = tuple(index for _, index in heapq.merge(*oldest_first))
    return _Unrendered(dataclasses.replace(
        layout,
        endpoints=tuple(map(_history_endpoint, known, map(_history_lines, entries))),
        history_trims=history_trims,
        plan=(_TRIM_HISTORY,) * len(history_trims) + layout.plan,
    ))


def _trimmed_history_length(count: int) -> int:
    """The length an endpoint's history adds to a prompt that has every
    history trim taken, given its count of entries."""
    if not count:
        return len(_NO_HISTORY[0]) + 1
    return len(_HISTORY_HEADER[0]) + len(_omitted_line(count)) + 2


def _history_endpoint(
    lines: tuple[str, ...], history: tuple[str, ...]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """An endpoint's fixed lines and history lines, from its lines before
    the history and the lines that stand for its history entries."""
    if not history:
        return lines + _NO_HISTORY, ()
    return lines + _HISTORY_HEADER, history


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
    trimmed = len(bundle.metadata["trims"]) - len(layout.applied)
    for n, length in enumerate(layout.lengths(trimmed), trimmed + 1):
        token_count = _tokens_for_length(length)
        if token_count <= budget:
            return layout.bundle(n, token_count)
    raise BudgetInfeasibleError(token_count, budget)
