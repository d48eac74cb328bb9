"""Parsing, validation, sampling and text rendering of NetFlow records."""

from __future__ import annotations

import csv
import ipaddress
import json
import random
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from functools import cached_property, lru_cache
from itertools import chain, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO, TypeVar

from .catalog import NON_NEGATIVE_UNITS, FeatureCatalog, FeatureSpec
from .errors import InputError

FlowValue = int | Decimal | str

LABEL_BENIGN = "benign"
LABEL_MALICIOUS = "malicious"

#: Characters of a cell or quoted value that a message repeats; a longer
#: text is cut there and its length given.
QUOTE_LIMIT = 64


class DatasetFormatError(InputError, ValueError):
    """Raised when the dataset header does not match the catalog."""


class RecordValidationError(ValueError):
    """Raised when a flow record violates the catalog contract."""


class SamplingError(InputError, ValueError):
    """Raised when a sample cannot be drawn as requested."""


@dataclass(frozen=True)
class FlowRecord:
    """One parsed NetFlow record.

    ``values`` maps every catalog feature name to its typed value
    (int, Decimal or str depending on the feature's value kind).
    """

    flow_id: str
    values: Mapping[str, FlowValue]
    label: str
    attack_class: str | None = None
    timestamp: int | None = None

    def __post_init__(self) -> None:
        if self.label not in (LABEL_BENIGN, LABEL_MALICIOUS):
            raise RecordValidationError(
                f"label must be '{LABEL_BENIGN}' or '{LABEL_MALICIOUS}', got {self.label!r}"
            )

    @cached_property
    def texts(self) -> dict[str, str]:
        """Each value's :func:`format_value` text by feature name, made once:
        the prompt and the record of an explained flow both show them."""
        return {name: format_value(value) for name, value in self.values.items()}


@dataclass(frozen=True)
class ParseIssue:
    """A malformed cell or row, identified by data-row number and column."""

    row: int
    column: str
    message: str


@dataclass
class ParseReport:
    """Outcome of one dataset parse: issues are collected, never swallowed."""

    issues: list[ParseIssue] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    header_reordered: bool = False
    rows_total: int = 0
    rows_ok: int = 0

    @property
    def rows_quarantined(self) -> int:
        return self.rows_total - self.rows_ok

    def to_dict(self) -> dict:
        return {
            "rows_total": self.rows_total,
            "rows_ok": self.rows_ok,
            "rows_quarantined": self.rows_quarantined,
            "header_reordered": self.header_reordered,
            "notes": list(self.notes),
            "issues": [
                {"row": i.row, "column": i.column, "message": i.message} for i in self.issues
            ],
        }


def parse_value(text: str, spec: FeatureSpec) -> FlowValue:
    """Parse one cell according to the feature's value kind.

    Integer cells tolerate a redundant decimal suffix (``"6.0"`` parses
    as 6) because spreadsheet round-trips commonly introduce it. NaN and
    infinities are rejected in both numeric kinds, and an integer may have
    no more digits than ``int`` accepts from plain text.
    """
    text = text.strip()
    if spec.value_kind == "integer":
        if text == "":
            raise ValueError("empty value")
        try:
            value: int = int(text)
        except ValueError:
            value = _integer_from_decimal(text)
        _check_numeric_range(value, spec)
        return value
    if spec.value_kind == "decimal":
        try:
            dec = Decimal(text)
        except InvalidOperation:
            raise ValueError(f"not a decimal: {clip(text, repr)}") from None
        if not dec.is_finite():
            raise ValueError(f"not a finite decimal: {clip(text, repr)}")
        _check_numeric_range(dec, spec)
        return dec
    if spec.value_kind == "address":
        return checked_address(text)
    return text


@lru_cache(maxsize=4096)
def checked_address(text: str) -> str:
    """Return ``text`` if it is an IPv4 or IPv6 address, else raise ``ValueError``.

    Exports and history stores repeat a few addresses many times, so the
    answers are memoised; a rejection is not cached and raises each time.
    """
    try:
        ipaddress.ip_address(text)
    except ValueError:
        raise ValueError(f"not an IP address: {clip(text, repr)}") from None
    return text


def _integer_from_decimal(text: str) -> int:
    try:
        dec = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"not an integer: {clip(text, repr)}") from None
    if not dec.is_finite() or dec != dec.to_integral_value():
        raise ValueError(f"not an integer: {clip(text, repr)}")
    # "1e400000000" would otherwise become an integer of 400 million digits;
    # where the limit is switched off (0), its default still applies here
    max_digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if dec and dec.adjusted() >= max_digits:
        raise ValueError(f"integer has more than {max_digits} digits: {text[:32]!r}")
    return int(dec)


def _check_numeric_range(value: int | Decimal, spec: FeatureSpec) -> None:
    if spec.unit in NON_NEGATIVE_UNITS and value < 0:
        raise ValueError(f"negative value {clip(str(value))} for {spec.unit} feature")
    if spec.unit == "port" and not 0 <= value <= 65535:
        raise ValueError(f"port {clip(str(value))} out of range 0..65535")
    if spec.unit == "protocol-id" and spec.value_kind == "integer" and not 0 <= value <= 255:
        raise ValueError(f"protocol id {clip(str(value))} out of range 0..255")


def clip(text: str, show: Callable[[str], str] = str) -> str:
    """``show(text)``, or for a text over QUOTE_LIMIT characters ``show`` of
    its head followed by an ellipsis and the full length."""
    if len(text) <= QUOTE_LIMIT:
        return show(text)
    return f"{show(text[:QUOTE_LIMIT])}… ({len(text)} characters)"


def format_value(value: FlowValue) -> str:
    """Canonical text form of a typed value; inverse of :func:`parse_value`."""
    return str(value)


#: a label cell, stripped and in lower case, to the label it spells
_LABELS = {
    "0": LABEL_BENIGN,
    LABEL_BENIGN: LABEL_BENIGN,
    "1": LABEL_MALICIOUS,
    LABEL_MALICIOUS: LABEL_MALICIOUS,
}


def parse_label(text: str) -> str:
    text = text.strip().lower()
    try:
        return _LABELS[text]
    except KeyError:
        raise ValueError(f"label must be 0/1, got {clip(text, repr)}") from None


@contextmanager
def _reading(source: str | Path | TextIO) -> Iterator[TextIO]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as stream:
            yield stream
    else:
        yield source


class ScannedRow(NamedTuple):
    """The fate of one data row that parses, as :func:`scan_dataset` decides it."""

    row: int  # data-row number in the file
    flow_id: str
    label: str
    attack_class: str | None
    timestamp: int
    lines: tuple[int, int]  # the file's lines [first, end) that hold the row, from 0


#: what a row builder makes of each row that parses
Built = TypeVar("Built")

#: names the JSON form of :func:`encode_fates` and what a scan decides;
#: a change to either must change it, so that no fates kept before are read
FATES_FORMAT = "malicious-fates/1"


def fates_key(path: str | Path, catalog: FeatureCatalog) -> str:
    """The SHA-256 of the export's bytes and of all else a scan of it reads:
    the catalog's columns, kinds and units, the csv field limit, the integer
    digit limit, the Python version and FATES_FORMAT."""
    import hashlib  # here: ingest and sample load this module but hash nothing

    digest = hashlib.sha256(json.dumps([
        FATES_FORMAT, sys.version, csv.field_size_limit(), sys.get_int_max_str_digits(),
        catalog.label_column, catalog.attack_column,
        [(spec.name, spec.value_kind, spec.unit) for spec in catalog.features],
    ]).encode())
    with open(path, "rb") as stream:  # in chunks: an export is not held in memory whole
        while chunk := stream.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


def encode_fates(rows: Iterable[ScannedRow]) -> str:
    """The fates of the malicious ``rows`` as JSON text: a list of each
    field's column, row numbers first."""
    fates = [(row.row, row.attack_class, row.timestamp, *row.lines)
             for row in rows if row.label == LABEL_MALICIOUS]
    return json.dumps([list(column) for column in zip(*fates)], separators=(",", ":"))


def decode_fates(text: str) -> list[ScannedRow] | None:
    """The rows whose fates :func:`encode_fates` wrote as ``text``, or None
    for a text it cannot have written."""
    new = tuple.__new__
    try:
        columns = json.loads(text)
        return [
            new(ScannedRow, (row, f"row-{row:06d}", LABEL_MALICIOUS, attack, stamp, (first, end)))
            for row, attack, stamp, first, end in zip(*columns, strict=True)
        ] if isinstance(columns, list) else None
    except (ValueError, TypeError):  # not JSON, or not five columns of one length and kind
        return None


def _record(row, flow_id, label, attack_class, timestamp, lines, values) -> FlowRecord:
    return FlowRecord(flow_id, values, label, attack_class, timestamp)


def _scanned(row, flow_id, label, attack_class, timestamp, lines, values) -> ScannedRow:
    # tuple.__new__ skips the Python-level __new__ that NamedTuple adds
    return tuple.__new__(ScannedRow, (row, flow_id, label, attack_class, timestamp, lines))


def parse_dataset(
    source: str | Path | TextIO,
    catalog: FeatureCatalog,
    features: Sequence[str] | None = None,
    build: Callable[..., Built] = _record,
) -> tuple[list[Built], ParseReport]:
    """Parse a comma-delimited NetFlow export into typed records.

    The header must contain exactly the catalog's feature columns plus the
    label column (the attack column is optional). Column order may differ
    from the catalog; a reorder is recorded in the report. Malformed rows
    are quarantined into the report with their row number and column, and
    parsing continues.

    NetFlow-v2 exports carry no timestamp column, so each record is stamped
    with its position among the rows that parsed: the history store that
    ingest fills and the queries of explain share one stable ordering.

    Every cell is checked, but only the cells of ``features`` (by default
    every catalog feature) are typed into a record's values. ``build``
    makes each row's item in place of a record: it is called with the
    fields of the row's :class:`ScannedRow`, then its typed values.
    """
    report = ParseReport()
    with _reading(source) as stream:
        return list(_scan(stream, catalog, report, features, build)), report


def scan_dataset(
    source: str | Path | TextIO, catalog: FeatureCatalog
) -> tuple[list[ScannedRow], ParseReport]:
    """The rows of an export that parse, and its report, without typing a value.

    Rows, issues and stamps are those of :func:`parse_dataset`;
    :func:`type_rows` types the rows a caller then picks.
    """
    report = ParseReport()
    with _reading(source) as stream:
        return list(_scan(stream, catalog, report, (), _scanned)), report


def type_rows(
    source: str | Path | TextIO, catalog: FeatureCatalog, rows: Sequence[ScannedRow]
) -> list[FlowRecord]:
    """The typed records of ``rows``, in their order, read again from the
    source that :func:`scan_dataset` scanned them from.

    Only the header and the lines of ``rows`` go through the CSV reader;
    the lines in between are skipped unread.
    """
    wanted = sorted({fate.row: fate for fate in rows}.values())
    typed: dict[int, FlowRecord] = {}
    with _reading(source) as stream:
        lines = iter(stream)
        header, at = _header(lines, catalog, ParseReport())
        type_row = _typer(catalog, header)
        for fate in wanted:
            first, end = fate.lines
            next(islice(lines, first - at, first - at), None)  # skip to the row's first line
            held = list(islice(lines, end - first))
            at = end
            try:
                (row,) = csv.reader(held)
                if len(held) != end - first or len(row) != len(header):
                    break
                typed[fate.row] = _record(*fate, type_row(row))
            except (csv.Error, ValueError):  # ValueError: no row or several, or a bad cell
                break
    if len(typed) != len(wanted):
        changed = min(fate.row for fate in wanted if fate.row not in typed)
        raise DatasetFormatError(f"data row {changed} changed since the dataset was scanned")
    return [typed[fate.row] for fate in rows]


def _header(
    lines: Iterator[str], catalog: FeatureCatalog, report: ParseReport
) -> tuple[list[str], int]:
    """The checked header row of an export's lines, read past a leading
    byte-order mark, and the number of lines it took."""
    first = next(lines, None)
    if first is None:
        raise DatasetFormatError("dataset is empty: no header row")
    reader = csv.reader(chain([first.removeprefix("\ufeff")], lines))
    header = [h.strip() for h in next(reader)]
    _check_header(header, catalog, report)
    return header, reader.line_num


def _scan(
    stream: TextIO,
    catalog: FeatureCatalog,
    report: ParseReport,
    features: Sequence[str] | None,
    build: Callable[..., Built],
) -> Iterator[Built]:
    """Decide the fate of every row of an export: its issues go to the
    report, and each row that parses is yielded as ``build`` makes it from
    its fate and its cells of ``features`` typed (by default every catalog
    feature).

    A line that :func:`_fast_accept` passes as it stands, with a label that
    parses, is a row that parses, split at its commas as ``csv`` would
    split it. Any other line starts a row that ``csv`` reads, perhaps over
    several lines, and :func:`row_parser` checks; only that path words
    issues.
    """
    lines = iter(stream)
    header, at = _header(lines, catalog, report)
    specs = catalog.features if features is None else [catalog.get(name) for name in features]
    columns = [header.index(spec.name) for spec in specs]
    label_idx = header.index(catalog.label_column)
    attack_idx = header.index(catalog.attack_column) if catalog.attack_column in header else None
    keep = [label_idx, *columns] if attack_idx is None else [label_idx, attack_idx, *columns]
    accept, slot = _fast_accept(catalog, header, keep)
    label_at, attack_at = slot[label_idx], slot.get(attack_idx)
    plan = [
        (spec.name, _CONVERTERS[spec.value_kind], slot[column])
        for spec, column in zip(specs, columns)
    ]
    type_row = _typer(catalog, header, features)
    parse_row = row_parser(catalog, header)
    # csv reads a longer field as an error, so a longer line is left to it
    limit = csv.field_size_limit()
    for row_number, line in enumerate(lines, start=1):
        first = at
        text = line.rstrip("\r\n")
        cells = accept(text) if len(text) <= limit else None
        label = None if cells is None else _LABELS.get(cells[label_at].strip().lower())
        if label is not None:
            at += 1
            report.rows_total += 1
            attack = None if attack_at is None else cells[attack_at]
            values = {name: convert(cells[i]) for name, convert, i in plan}
        else:
            reader = csv.reader(chain([line], lines))
            try:
                row = next(reader)
            except csv.Error as exc:  # such as a cell over the csv field limit
                at += reader.line_num
                report.rows_total += 1
                report.issues.append(ParseIssue(row=row_number, column="*", message=str(exc)))
                continue
            at += reader.line_num
            if not "".join(row).strip():
                continue
            report.rows_total += 1
            if len(row) != len(header):
                report.issues.append(
                    ParseIssue(
                        row=row_number,
                        column="*",
                        message=f"expected {len(header)} columns, found {len(row)}",
                    )
                )
                continue
            _, problems = parse_row(row)
            for name, message in problems.items():
                report.issues.append(ParseIssue(row=row_number, column=name, message=message))
            try:
                label = parse_label(row[label_idx])
            except ValueError as exc:
                report.issues.append(
                    ParseIssue(row=row_number, column=catalog.label_column, message=str(exc))
                )
                continue
            if problems:
                continue
            attack = None if attack_idx is None else row[attack_idx]
            values = type_row(row)
        yield build(
            row_number,
            f"row-{row_number:06d}",
            label,
            (attack or "").strip() or None,
            report.rows_ok,
            (first, at),
            values,
        )
        report.rows_ok += 1


#: What an integer or decimal cell looks like to _fast_accept. An integer
#: has ASCII digits only (int() and Decimal() take other Unicode digits,
#: which parse_value is left to judge), and far fewer of them than int()
#: accepts from text wherever its limit is set (640 at the least).
_INTEGER_CELL = "[0-9]{1,100}"
_DECIMAL_CELL = "[0-9]+(?:\\.[0-9]+)?"
#: Any other cell holds no comma, and none of the characters that csv
#: reads as more than text in an unquoted field: the quote, a carriage
#: return and NUL (an error to csv before Python 3.11).
_TEXT_CELL = '[^,"\\r\\x00]*'


def _fast_accept(
    catalog: FeatureCatalog, header: Sequence[str], keep: Iterable[int] = ()
) -> tuple[Callable[[str], tuple[str, ...] | None], dict[int, int]]:
    """A function of the text of a row laid out as ``header``, its cells
    joined by commas, that returns the cells it captured only if
    parse_value accepts every feature cell (and None for some such rows),
    and for each captured column its place among them.

    One pattern matches the whole text. No segment matches a comma, so a
    cell holding one fails the match, and a line that matches is split at
    its commas by ``csv`` too. Numeric cells must be plain non-negative
    numbers; the pattern captures the cells of ``keep``, of the port and
    protocol-id ranges and of the address check.
    """
    specs = {spec.name: spec for spec in catalog.features}
    keep = set(keep)
    segments: list[str] = []
    slot: dict[int, int] = {}
    ranged: list[tuple[int, Callable[[str], int | Decimal], int]] = []
    addresses: list[int] = []
    for column, name in enumerate(header):
        spec = specs.get(name)
        kind = spec.value_kind if spec else "string"
        cell = {"integer": _INTEGER_CELL, "decimal": _DECIMAL_CELL}.get(kind, _TEXT_CELL)
        limit = _range_limit(spec) if kind in ("integer", "decimal") else None
        if column in keep or kind == "address" or limit is not None:
            slot[column] = len(slot)
            cell = f"({cell})"
            if kind == "address":
                addresses.append(slot[column])
            elif limit is not None:
                ranged.append((slot[column], _CONVERTERS[kind], limit))
        segments.append(cell)
    pattern = re.compile(",".join(segments))

    def accept(text: str) -> tuple[str, ...] | None:
        match = pattern.fullmatch(text)
        if match is None:
            return None
        cells = match.groups()
        try:
            for i, convert, limit in ranged:
                if convert(cells[i]) > limit:
                    return None
            for i in addresses:
                checked_address(cells[i].strip())
        except ValueError:
            return None
        return cells

    return accept, slot


def _range_limit(spec: FeatureSpec) -> int | None:
    """The largest value parse_value accepts for a numeric feature, if it caps one."""
    if spec.unit == "port":
        return 65535
    if spec.unit == "protocol-id" and spec.value_kind == "integer":
        return 255
    return None


def row_parser(
    catalog: FeatureCatalog, header: Sequence[str]
) -> Callable[[Sequence[str | None]], tuple[dict[str, FlowValue], dict[str, str]]]:
    """A function that types the feature cells of one row laid out as ``header``.

    It returns the values and, per feature in catalog order, the problem
    with its cell: "missing" for a cell of ``None``, else the message of
    :func:`parse_value`. A row with problems has values for the rest of
    its cells only.
    """
    accept, _ = _fast_accept(catalog, header)
    type_row = _typer(catalog, header)
    cells = [(spec, header.index(spec.name)) for spec in catalog.features]

    def parse(row: Sequence[str | None]) -> tuple[dict[str, FlowValue], dict[str, str]]:
        if None not in row and accept(",".join(row)) is not None:
            return type_row(row), {}
        values, problems = {}, {}
        for spec, col in cells:
            cell = row[col]
            if cell is None:
                problems[spec.name] = "missing"
                continue
            try:
                values[spec.name] = parse_value(cell, spec)
            except ValueError as exc:
                problems[spec.name] = str(exc)
        return values, problems

    return parse


def _typer(
    catalog: FeatureCatalog, header: Sequence[str], features: Sequence[str] | None = None
) -> Callable[[Sequence[str]], dict[str, FlowValue]]:
    """A function that types the cells of ``features`` (by default every
    catalog feature) of a row that parses, without checking them again."""
    specs = catalog.features if features is None else [catalog.get(name) for name in features]
    columns = [header.index(spec.name) for spec in specs]
    plan = [(spec.name, _CONVERTERS[spec.value_kind], col) for spec, col in zip(specs, columns)]

    def type_row(row: Sequence[str]) -> dict[str, FlowValue]:
        try:
            return {name: convert(row[col]) for name, convert, col in plan}
        except (ValueError, ArithmeticError):  # such as "6.0" in an integer column
            return {spec.name: parse_value(row[col], spec) for spec, col in zip(specs, columns)}

    return type_row


# Per value kind, a builtin that turns a cell that parse_value accepts into
# what parse_value returns for it, or raises, as int() does for "6.0" and
# for the separators U+001C..U+001F that str.strip removes.
_CONVERTERS = {"integer": int, "decimal": Decimal, "address": str.strip, "string": str.strip}


def _check_header(header: list[str], catalog: FeatureCatalog, report: ParseReport) -> None:
    expected = set(catalog.feature_names) | {catalog.label_column}
    optional = {catalog.attack_column}
    present = set(header)
    if len(present) != len(header):
        dupes = sorted({h for h in header if header.count(h) > 1})
        raise DatasetFormatError(f"duplicate header columns: {dupes}")
    missing = sorted(expected - present)
    extra = sorted(present - expected - optional)
    if missing or extra:
        raise DatasetFormatError(
            "header/catalog mismatch: "
            f"missing columns {missing or 'none'}, unexpected columns {extra or 'none'}"
        )
    if catalog.attack_column not in present:
        report.notes.append(f"attack column {catalog.attack_column!r} absent; classes unknown")
    canonical = list(catalog.feature_names)
    observed = [h for h in header if h in set(canonical)]
    if observed != canonical:
        report.header_reordered = True
        report.notes.append("header column order differs from catalog order")


def validate_record(record: FlowRecord, catalog: FeatureCatalog) -> None:
    """Check that the record's key set equals the catalog feature set."""
    keys = set(record.values.keys())
    names = set(catalog.feature_names)
    missing = sorted(names - keys)
    extra = sorted(keys - names)
    if missing:
        raise RecordValidationError(f"record {record.flow_id} missing features: {missing}")
    if extra:
        raise RecordValidationError(f"record {record.flow_id} has unknown features: {extra}")


def render_flow_text(record: FlowRecord, catalog: FeatureCatalog) -> str:
    """Render a flow as one ``NAME: value`` line per feature, in catalog order.

    The output is byte-identical for identical inputs and excludes the
    label and attack columns.
    """
    validate_record(record, catalog)
    texts = record.texts
    return "\n".join([f"{name}: {texts[name]}" for name in catalog.feature_names])


#: a FlowRecord or a ScannedRow: what sampling reads is its label and attack class
Flow = TypeVar("Flow", FlowRecord, ScannedRow)


def sample_malicious(
    records: Iterable[Flow],
    n: int,
    seed: int,
    stratified: bool = True,
) -> list[Flow]:
    """Draw ``n`` malicious records, deterministically for a given seed.

    With ``stratified`` (the default) the draw is spread as evenly as
    possible across distinct attack classes, remainders going round-robin
    in class-name order; otherwise it is uniform over all malicious
    records. Output preserves the input ordering of the selected records.
    """
    if n < 0:
        raise SamplingError("sample size must be non-negative")
    indexed = [(i, r) for i, r in enumerate(records) if r.label == LABEL_MALICIOUS]
    if len(indexed) < n:
        raise SamplingError(
            f"cannot sample {n} malicious records: only {len(indexed)} available"
        )
    if n == 0:
        return []
    rng = random.Random(seed)
    if not stratified:
        chosen = rng.sample(indexed, n)
    else:
        groups: dict[str, list[tuple[int, Flow]]] = {}
        for item in indexed:
            groups.setdefault(item[1].attack_class or "", []).append(item)
        classes = sorted(groups)
        quota = {c: 0 for c in classes}
        remaining = n
        # every round allocates at least one record: availability is checked above
        while remaining > 0:
            for c in classes:
                if remaining and quota[c] < len(groups[c]):
                    quota[c] += 1
                    remaining -= 1
        chosen = []
        for c in classes:
            chosen.extend(rng.sample(groups[c], quota[c]))
    chosen.sort(key=lambda item: item[0])
    return [r for _, r in chosen]
