"""Reference dataset parser for differential tests.

This is ``parse_dataset`` as it was before the parse split into a row scan
and typing on demand: it types every cell of every row. ``tests/test_row_scan.py``
checks that the scan, the typing of selected rows and ingest's typing of
the history cells give exactly what this gives. Do not edit it to match a
change in the package: it is the behaviour the package keeps.
"""

from __future__ import annotations

import csv
from decimal import Decimal
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO

from flowexplain.catalog import NON_NEGATIVE_UNITS, FeatureCatalog, FeatureSpec
from flowexplain.flows import (
    LABEL_BENIGN,
    DatasetFormatError,
    FlowRecord,
    FlowValue,
    ParseIssue,
    ParseReport,
    _check_header,
    checked_address,
    parse_label,
    parse_value,
)


def _open_stream(source: str | Path | TextIO) -> TextIO:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline="")
    return source


def parse_dataset(
    source: str | Path | TextIO,
    catalog: FeatureCatalog,
) -> tuple[list[FlowRecord], ParseReport]:
    """Parse a comma-delimited NetFlow export into typed records.

    The header must contain exactly the catalog's feature columns plus the
    label column (the attack column is optional). Column order may differ
    from the catalog; a reorder is recorded in the report. Malformed rows
    are quarantined into the report with their row number and column, and
    parsing continues.

    NetFlow-v2 exports carry no timestamp column, so each record is stamped
    with its position among the rows that parsed: the history store that
    ingest fills and the queries of explain share one stable ordering.
    """
    report = ParseReport()
    stream = _open_stream(source)
    close = isinstance(source, (str, Path))
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError("dataset is empty: no header row") from None
        header = [h.strip() for h in header]
        _check_header(header, catalog, report)
        have_attack = catalog.attack_column in header
        parse_row = row_parser(catalog, header)
        label_idx = header.index(catalog.label_column)
        attack_idx = header.index(catalog.attack_column) if have_attack else None

        records: list[FlowRecord] = []
        for row_number, row in enumerate(_rows(reader), start=1):
            if isinstance(row, csv.Error):  # such as a cell over the csv field limit
                report.rows_total += 1
                report.issues.append(ParseIssue(row=row_number, column="*", message=str(row)))
                continue
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
            values, problems = parse_row(row)
            for name, message in problems.items():
                report.issues.append(ParseIssue(row=row_number, column=name, message=message))
            row_ok = not problems
            try:
                label = parse_label(row[label_idx])
            except ValueError as exc:
                report.issues.append(
                    ParseIssue(row=row_number, column=catalog.label_column, message=str(exc))
                )
                row_ok = False
                label = LABEL_BENIGN
            attack: str | None = None
            if attack_idx is not None:
                attack = row[attack_idx].strip() or None
            if not row_ok:
                continue
            records.append(
                FlowRecord(
                    flow_id=f"row-{row_number:06d}",
                    values=values,
                    label=label,
                    attack_class=attack,
                    timestamp=len(records),
                )
            )
            report.rows_ok += 1
        return records, report
    finally:
        if close:
            stream.close()


def _rows(reader: Iterator[list[str]]) -> Iterator[list[str] | csv.Error]:
    """The rows of ``reader``, with the error in place of a row it cannot read."""
    while True:
        try:
            yield next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            yield exc


def row_parser(
    catalog: FeatureCatalog, header: Sequence[str]
) -> Callable[[Sequence[str | None]], tuple[dict[str, FlowValue], dict[str, str]]]:
    """A function that types the feature cells of one row laid out as ``header``.

    It returns the values and, per feature in catalog order, the problem
    with its cell: "missing" for a cell of ``None``, else the message of
    :func:`parse_value`. A row with problems has values for the rest of
    its cells only.
    """
    index = {name: col for col, name in enumerate(header)}
    plan = [
        (spec.name, _CONVERTERS[spec.value_kind], index[spec.name]) for spec in catalog.features
    ]
    specs = [(spec, index[spec.name]) for spec in catalog.features]
    row_check = _row_check(catalog)

    def parse(row: Sequence[str | None]) -> tuple[dict[str, FlowValue], dict[str, str]]:
        try:
            values = {name: convert(row[col]) for name, convert, col in plan}
            if row_check(values):
                return values, {}
        except (ValueError, ArithmeticError, TypeError):
            pass
        values, problems = {}, {}
        for spec, col in specs:
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


# Per value kind, a builtin that turns a well-formed cell into what
# parse_value returns for it. A row that one of them rejects or that fails
# _row_check goes through parse_value, which alone words the issues; some
# of those rows are well formed, as int() rejects the separators
# U+001C..U+001F that str.strip removes.
_CONVERTERS = {"integer": int, "decimal": Decimal, "address": str.strip, "string": str.strip}


def _row_check(catalog: FeatureCatalog) -> Callable[[dict], bool]:
    """A predicate on a row of converted values: whether it passes the
    checks of parse_value that the converters leave out."""
    numeric = [s for s in catalog.features if s.value_kind in ("integer", "decimal")]
    port = [s for s in numeric if s.unit == "port"]
    protocol = [s for s in numeric if s.unit == "protocol-id" and s.value_kind == "integer"]
    decimals = _columns([s for s in numeric if s.value_kind == "decimal"])
    non_negative = _columns([s for s in numeric if s.unit in NON_NEGATIVE_UNITS] + port + protocol)
    ports = _columns(port)
    protocols = _columns(protocol)
    addresses = _columns([s for s in catalog.features if s.value_kind == "address"])

    def check(values: dict) -> bool:
        return (
            all(map(Decimal.is_finite, decimals(values)))
            and min(non_negative(values), default=0) >= 0
            and max(ports(values), default=0) <= 65535
            and max(protocols(values), default=0) <= 255
            and all(map(checked_address, addresses(values)))
        )

    return check


def _columns(specs: list[FeatureSpec]) -> Callable[[dict], tuple]:
    if not specs:
        return lambda values: ()
    # the first name twice, so that a single column still yields a tuple
    return itemgetter(specs[0].name, *(spec.name for spec in specs))
