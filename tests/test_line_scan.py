"""The scan's line path against the reference parser.

The scan splits a line at its commas without ``csv`` when the line holds no
quote, no NUL and no carriage return but in its terminator, and is no
longer than ``csv``'s field limit. The documents here mix such lines with
every kind of line that ``csv`` must read: quoted cells with commas,
doubled quotes and line breaks, NUL, a bare carriage return inside a line,
a cell over the field limit, blank lines and numbers with spaces around
them, ended by ``\\r\\n``, ``\\n`` or ``\\r``, or by nothing on the last line.
Read from a file and from a ``StringIO``, each must give what
``parse_reference`` gives: the parse report, the records, the rows that
``type_rows`` types and the rows that ``ingest`` writes to the store.
"""

import csv
import io
import json
import sqlite3
import tempfile
from contextlib import contextmanager
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from flowexplain.catalog import default_catalog
from flowexplain.flows import parse_dataset, scan_dataset, type_rows
from flowexplain.pipeline import (
    _HISTORY_FEATURES,
    PipelineConfig,
    history_entry_for,
    history_row,
    run_ingest,
)

from . import parse_reference

#: small, so that a document with a cell over it stays small
FIELD_LIMIT = 1000

VALID = {"address": "10.0.0.1", "integer": "6", "decimal": "1.5"}
CELL_EDITS = (" 6 ", "\t7", "6.0", "-1", "", "abc", '"6"', "256", "65536", " 10.0.0.2 ", "1.2.3")
LABELS = ("0", "1", " 1 ", "benign", "2", "", '"1"')
ATTACKS = (
    "scan",
    " dos ",
    "",
    '"scan"',
    '"scan, then dos"',
    '"say ""hi"""',
    '"two\nlines"',
    '"two\r\nlines"',
    'sc"an',
    "sc\x00an",
    "sc\ran",
    "x" * (FIELD_LIMIT + 1),
    "x" * (FIELD_LIMIT - 10),
)
BLANKS = ("", "  ", ",,", "\t")
TERMINATORS = ("\r\n", "\n", "\r")


@contextmanager
def field_limit(limit: int):
    old = csv.field_size_limit(limit)
    try:
        yield
    finally:
        csv.field_size_limit(old)


@st.composite
def documents(draw) -> str:
    catalog = default_catalog()
    kinds = {spec.name: spec.value_kind for spec in catalog.features}
    columns = [*catalog.feature_names, catalog.label_column]
    if draw(st.booleans()):
        columns.append(catalog.attack_column)
    header = draw(st.permutations(columns)) if draw(st.booleans()) else columns
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(BLANKS)))
            continue
        cells = {name: VALID.get(kind, "x") for name, kind in kinds.items()}
        cells[catalog.label_column] = draw(st.sampled_from(LABELS))
        cells[catalog.attack_column] = draw(st.sampled_from(ATTACKS))
        if draw(st.booleans()):
            cells[draw(st.sampled_from(catalog.feature_names))] = draw(st.sampled_from(CELL_EDITS))
        lines.append(",".join(cells[name] for name in header))
    # the header is read by csv either way: its line ends plainly
    ends = [draw(st.sampled_from(TERMINATORS[:2]))]
    ends += [draw(st.sampled_from(TERMINATORS)) for _ in lines[1:]]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def _shape(record):
    values = [(name, type(value).__name__, str(value)) for name, value in record.values.items()]
    return record.flow_id, values, record.label, record.attack_class, record.timestamp


def _stored_rows(store: Path) -> list[tuple]:
    with sqlite3.connect(store) as conn:
        rows = conn.execute(
            "SELECT flow_id, timestamp, src_ip, dst_ip, l4_protocol_id, label, summary"
            " FROM flow_history ORDER BY id"
        ).fetchall()
    conn.close()
    return rows


def assert_line_path_matches_reference(document: str, work: Path) -> None:
    catalog = default_catalog()
    path = work / "flows.csv"
    path.write_bytes(document.encode("utf-8"))
    history_features = [name for name in _HISTORY_FEATURES if name in catalog]
    for source in (lambda: path, lambda: io.StringIO(document)):
        old_records, old_report = parse_reference.parse_dataset(source(), catalog)
        expected = [_shape(r) for r in old_records]

        records, report = parse_dataset(source(), catalog)
        assert report.to_dict() == old_report.to_dict()
        assert [_shape(r) for r in records] == expected

        rows, scan_report = scan_dataset(source(), catalog)
        assert scan_report.to_dict() == old_report.to_dict()
        picked = rows[::-2] + rows[1::2]
        by_id = {r.flow_id: r for r in old_records}
        typed = type_rows(source(), catalog, picked)
        assert [_shape(r) for r in typed] == [_shape(by_id[row.flow_id]) for row in picked]

        stored, ingest_report = parse_dataset(source(), catalog, history_features)
        assert ingest_report.to_dict() == old_report.to_dict()
        assert [history_row(r) for r in stored] == [
            tuple(history_entry_for(r)) for r in old_records
        ]

    config = PipelineConfig(dataset=path, store=work / "history.db", output_dir=work / "out")
    summary = run_ingest(config)
    old_records, old_report = parse_reference.parse_dataset(path, catalog)
    assert summary.report_path.read_text(encoding="utf-8") == json.dumps(
        old_report.to_dict(), indent=2
    )
    assert _stored_rows(work / "history.db") == [
        tuple(history_entry_for(r)) for r in old_records
    ]


@settings(max_examples=150, deadline=None)
@given(document=documents())
def test_line_path_matches_the_reference(document):
    with field_limit(FIELD_LIMIT), tempfile.TemporaryDirectory() as work:
        assert_line_path_matches_reference(document, Path(work))
