"""The row scan and typing on demand give what the reference parser gives.

``parse_reference.parse_dataset`` types every cell of every row. On each
document, the scan (``scan_dataset``), the typing of picked rows
(``type_rows``) and ingest's typing of the history cells must give the
same parse report, records, explain selections and store rows. The cases
of ``TestFastAcceptBoundaries`` each sit on one check of the scan's fast
accept, so that dropping the check changes a row's fate.
"""

import csv
import io
import json

import pytest

from flowexplain import flows
from flowexplain.flows import (
    DatasetFormatError,
    parse_dataset,
    sample_malicious,
    scan_dataset,
    type_rows,
)
from flowexplain.pipeline import _HISTORY_FEATURES, history_entry_for, run_ingest

from . import parse_reference
from .conftest import DATASET, synth_values
from .data.record_parse_golden import fuzz_documents
from .test_pipeline_cli import make_config


def _shape(record):
    """A record with each value's type and text, so ``1.0`` and ``1.00`` differ."""
    values = [(name, type(value).__name__, str(value)) for name, value in record.values.items()]
    return record.flow_id, values, record.label, record.attack_class, record.timestamp


def _history_features(catalog):
    return [name for name in _HISTORY_FEATURES if name in catalog]


def assert_same_as_reference(document: str, catalog) -> list:
    """Compare every new path with the reference parse of ``document``; return its records."""
    old_records, old_report = parse_reference.parse_dataset(io.StringIO(document), catalog)
    records, report = parse_dataset(io.StringIO(document), catalog)
    rows, scan_report = scan_dataset(io.StringIO(document), catalog)
    stored, ingest_report = parse_dataset(
        io.StringIO(document), catalog, _history_features(catalog)
    )
    for new_report in (report, scan_report, ingest_report):
        assert new_report.to_dict() == old_report.to_dict()
    assert [_shape(r) for r in records] == [_shape(r) for r in old_records]
    assert [history_entry_for(r) for r in stored] == [history_entry_for(r) for r in old_records]

    malicious = sum(r.label == "malicious" for r in old_records)
    for n in sorted({0, min(3, malicious), malicious}):
        for stratified in (True, False):
            expected = sample_malicious(old_records, n, seed=n, stratified=stratified)
            picked = sample_malicious(rows, n, seed=n, stratified=stratified)
            typed = type_rows(io.StringIO(document), catalog, picked)
            assert [_shape(r) for r in typed] == [_shape(r) for r in expected]
    # flow ids as a caller gives them: any order, repeats included
    wanted = rows[::-2] + rows[:1]
    by_id = {r.flow_id: r for r in old_records}
    typed = type_rows(io.StringIO(document), catalog, wanted)
    assert [_shape(r) for r in typed] == [_shape(by_id[row.flow_id]) for row in wanted]
    return old_records


class TestAgainstReference:
    def test_fuzz_documents(self, catalog):
        for document in fuzz_documents():
            assert_same_as_reference(document, catalog)

    def test_fixture_dataset(self, catalog):
        assert len(assert_same_as_reference(DATASET.read_text(), catalog)) == 200

    def test_ingest_outputs_match_the_reference(self, tmp_path, catalog):
        old_records, old_report = parse_reference.parse_dataset(DATASET, catalog)
        summary = run_ingest(make_config(tmp_path))
        report_text = summary.report_path.read_text(encoding="utf-8")
        assert report_text == json.dumps(old_report.to_dict(), indent=2)
        malicious = sum(r.label == "malicious" for r in old_records)
        assert summary.to_dict() == {
            "total": old_report.rows_total,
            "malicious": malicious,
            "benign": len(old_records) - malicious,
            "quarantined": old_report.rows_quarantined,
            "store_entries": len(old_records),
            "report_path": str(summary.report_path),
        }

    def test_ingest_parses_through_the_flows_binding(self, tmp_path, monkeypatch):
        # the benchmark's tracer wraps flows.parse_dataset and counts len(records)
        results = []
        real = flows.parse_dataset

        def spy(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(flows, "parse_dataset", spy)
        summary = run_ingest(make_config(tmp_path))
        ((records, report),) = results
        assert len(records) == report.rows_ok == summary.store_entries > 0


def _document(catalog, *rows: dict) -> str:
    """A CSV document of one valid row, then one row per override mapping."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(list(catalog.feature_names) + ["Label", "Attack"])
    for overrides in ({}, *rows):
        values = synth_values(catalog, **overrides)
        writer.writerow([values[name] for name in catalog.feature_names] + ["1", "scan"])
    return out.getvalue()


class TestFastAcceptBoundaries:
    @pytest.mark.parametrize(
        "column,cell,accepted",
        [
            ("L4_SRC_PORT", "65535", True),
            ("L4_SRC_PORT", "0065535", True),
            ("L4_DST_PORT", "65536", False),
            ("PROTOCOL", "255", True),
            ("PROTOCOL", "256", False),
            ("L7_PROTO", "300.5", True),  # a decimal protocol id has no maximum
            ("IN_BYTES", "٣٤", True),
            ("IN_BYTES", "๓", True),
            ("IN_BYTES", "²", False),  # a digit to str.isdigit, not to int()
            ("IN_BYTES", "1_000", True),
            ("IN_BYTES", "9" * 100, True),
            ("IN_BYTES", "9" * 4300, True),
            ("IN_BYTES", "9" * 4301, False),
            ("SRC_TO_DST_SECOND_BYTES", "1.", True),
            ("SRC_TO_DST_SECOND_BYTES", ".5", True),
            ("SRC_TO_DST_SECOND_BYTES", "1.2.3", False),
            ("IPV4_SRC_ADDR", "256.1.1.1", False),
            ("IPV4_DST_ADDR", "1.2.3", False),
            ("IPV4_DST_ADDR", " 10.0.0.1 ", True),
            ("IPV4_DST_ADDR", "fe80::1%eth0", True),
        ],
    )
    def test_row_fate_matches_reference(self, catalog, column, cell, accepted):
        records = assert_same_as_reference(_document(catalog, {column: cell}), catalog)
        assert [r.flow_id for r in records] == ["row-000001", "row-000002"][: 1 + accepted]

    def test_comma_inside_a_cell_is_left_to_the_full_parse(self, catalog):
        document = _document(catalog, {}).replace(",1,scan\r\n", ',1,"scan, then dos"\r\n')
        records = assert_same_as_reference(document, catalog)
        assert [r.attack_class for r in records] == ["scan, then dos"] * 2


def test_typing_a_row_that_changed_since_the_scan_is_an_error(catalog):
    document = _document(catalog, {}, {})
    rows, _ = scan_dataset(io.StringIO(document), catalog)
    changed = document.replace(",0,", ",zero,")
    with pytest.raises(DatasetFormatError, match="data row 1 changed since the dataset was scanned"):
        type_rows(io.StringIO(changed), catalog, rows)
    shorter = "".join(document.splitlines(keepends=True)[:3])
    with pytest.raises(DatasetFormatError, match="data row 3 changed"):
        type_rows(io.StringIO(shorter), catalog, rows)


def test_rows_over_several_lines_and_blank_lines_are_typed_from_their_lines(catalog):
    document = _document(catalog, {}, {})
    document = document.replace(",1,scan\r\n", ',1,"scan\r\nthen dos"\r\n\r\n')
    records = assert_same_as_reference(document, catalog)
    assert [r.attack_class for r in records] == ["scan\r\nthen dos"] * 3
    rows, _ = scan_dataset(io.StringIO(document), catalog)
    assert [row.lines for row in rows] == [(1, 3), (4, 6), (7, 9)]


@pytest.mark.parametrize(
    "row_2", ['"{}', "\r\n", "x" * 200_000 + ",{}"], ids=["open-quote", "blank", "huge-cell"]
)
def test_typing_a_row_whose_lines_changed_is_an_error(catalog, row_2):
    document = _document(catalog, {}, {})
    rows, _ = scan_dataset(io.StringIO(document), catalog)
    lines = document.splitlines(keepends=True)
    changed = "".join([*lines[:2], row_2.format(lines[2]), *lines[3:]])
    with pytest.raises(DatasetFormatError, match="data row 2 changed"):
        type_rows(io.StringIO(changed), catalog, rows)
