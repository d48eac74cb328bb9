import io
import ipaddress
import json
from collections import Counter
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowexplain.flows import (
    DatasetFormatError,
    FlowRecord,
    RecordValidationError,
    SamplingError,
    checked_address,
    parse_dataset,
    render_flow_text,
    row_parser,
    sample_malicious,
    scan_dataset,
    type_rows,
)
from flowexplain.config import _HISTORY_FEATURES, _store_row, history_row
from flowexplain.pipeline import history_entry_for

from .conftest import DATA_DIR, DATASET, make_record, synth_values
from .data.record_parse_golden import FUZZ_CASES, FUZZ_SEED, MAX_ROWS, digests, fuzz_documents

GOLDEN = json.loads((DATA_DIR / "parse_golden.json").read_text(encoding="utf-8"))


def _csv_text(catalog, data_rows, header=None):
    header = header or list(catalog.feature_names) + ["Label", "Attack"]
    lines = [",".join(header)]
    lines.extend(",".join(str(cell) for cell in row) for row in data_rows)
    return io.StringIO("\n".join(lines) + "\n")


def _row(catalog, label="1", attack="scan", **overrides):
    values = synth_values(catalog, **overrides)
    cells = [values[name] for name in catalog.feature_names]
    return cells + [label, attack]


class TestParseDataset:
    def test_fixture_row_is_typed(self, catalog):
        stream = _csv_text(
            catalog, [_row(catalog, PROTOCOL=6, L7_PROTO="7.0", IN_BYTES=1200)]
        )
        records, report = parse_dataset(stream, catalog)
        assert len(records) == 1
        record = records[0]
        assert record.label == "malicious"
        assert record.values["PROTOCOL"] == 6
        assert record.values["L7_PROTO"] == Decimal("7.0")
        assert record.values["IN_BYTES"] == 1200
        assert isinstance(record.values["IPV4_SRC_ADDR"], str)
        assert report.rows_total == 1 and report.rows_ok == 1

    def test_label_zero_maps_to_benign(self, catalog):
        records, _ = parse_dataset(_csv_text(catalog, [_row(catalog, label="0")]), catalog)
        assert records[0].label == "benign"

    def test_header_only_yields_empty(self, catalog):
        records, report = parse_dataset(_csv_text(catalog, []), catalog)
        assert records == []
        assert report.issues == []
        assert report.rows_total == 0

    def test_bad_cell_reports_row_and_column(self, catalog):
        stream = _csv_text(catalog, [_row(catalog, IN_BYTES="abc")])
        records, report = parse_dataset(stream, catalog)
        assert records == []
        assert report.rows_quarantined == 1
        issue = report.issues[0]
        assert issue.row == 1
        assert issue.column == "IN_BYTES"

    def test_negative_bytes_quarantined(self, catalog):
        _, report = parse_dataset(_csv_text(catalog, [_row(catalog, OUT_BYTES=-5)]), catalog)
        assert any(i.column == "OUT_BYTES" for i in report.issues)

    def test_malformed_row_does_not_abort_parse(self, catalog):
        good = _row(catalog)
        bad = _row(catalog, IN_BYTES="x")
        records, report = parse_dataset(_csv_text(catalog, [bad, good]), catalog)
        assert len(records) == 1
        assert report.rows_total == 2 and report.rows_ok == 1

    def test_header_mismatch_list_missing_and_extra(self, catalog):
        header = list(catalog.feature_names) + ["Label", "Attack"]
        header[0] = "SRC_IP"  # unexpected name
        with pytest.raises(DatasetFormatError) as err:
            parse_dataset(_csv_text(catalog, [], header=header), catalog)
        assert "IPV4_SRC_ADDR" in str(err.value)
        assert "SRC_IP" in str(err.value)

    def test_header_permutation_accepted_and_recorded(self, catalog):
        header = list(catalog.feature_names) + ["Label", "Attack"]
        header[0], header[1] = header[1], header[0]
        values = synth_values(catalog, L4_SRC_PORT=1234)
        cells = [values[name] for name in header[:-2]] + ["1", "scan"]
        records, report = parse_dataset(
            _csv_text(catalog, [cells], header=header), catalog
        )
        assert report.header_reordered is True
        assert records[0].values["L4_SRC_PORT"] == 1234

    def test_byte_order_mark_before_the_header_is_skipped(self, tmp_path, catalog):
        # spreadsheets' "CSV UTF-8" starts the file with one
        marked = tmp_path / "marked.csv"
        marked.write_bytes("\ufeff".encode() + DATASET.read_bytes())
        records, report = parse_dataset(DATASET, catalog)
        with open(marked, encoding="utf-8", newline="") as stream:
            sources = [marked, stream, io.StringIO(marked.read_bytes().decode())]
            for source in sources:
                marked_records, marked_report = parse_dataset(source, catalog)
                assert (marked_records, marked_report) == (records, report)
        rows, _ = scan_dataset(marked, catalog)
        assert type_rows(marked, catalog, rows[:3]) == records[:3]

    def test_integer_tolerates_decimal_suffix(self, catalog):
        records, _ = parse_dataset(_csv_text(catalog, [_row(catalog, PROTOCOL="6.0")]), catalog)
        assert records[0].values["PROTOCOL"] == 6

    def test_flow_ids_are_stable_row_numbers(self, catalog):
        records, _ = parse_dataset(_csv_text(catalog, [_row(catalog), _row(catalog)]), catalog)
        assert [r.flow_id for r in records] == ["row-000001", "row-000002"]

    def test_timestamps_count_only_the_rows_that_parsed(self, catalog):
        rows = [_row(catalog), _row(catalog, IN_BYTES="x"), _row(catalog), _row(catalog)]
        records, _ = parse_dataset(_csv_text(catalog, rows), catalog)
        assert [(r.flow_id, r.timestamp) for r in records] == [
            ("row-000001", 0), ("row-000003", 1), ("row-000004", 2),
        ]

    @pytest.mark.parametrize(
        "column, text",
        [
            ("SRC_TO_DST_SECOND_BYTES", "NaN"),
            ("SRC_TO_DST_SECOND_BYTES", "sNaN"),
            ("SRC_TO_DST_SECOND_BYTES", "Infinity"),
            ("L7_PROTO", "-inf"),
            ("IN_BYTES", "Infinity"),
            ("IN_BYTES", "-inf"),
            ("IN_BYTES", "sNaN"),
            ("IN_BYTES", "1e400000000"),  # would be an integer of 400 million digits
        ],
    )
    def test_non_finite_or_huge_number_quarantines_its_row(self, catalog, column, text):
        stream = _csv_text(catalog, [_row(catalog, **{column: text}), _row(catalog)])
        records, report = parse_dataset(stream, catalog)
        assert [r.flow_id for r in records] == ["row-000002"]
        assert [(i.row, i.column) for i in report.issues] == [(1, column)]

    @pytest.mark.parametrize(
        "column, sign, digit",
        [
            ("IN_BYTES", "", "a"),
            ("SRC_TO_DST_SECOND_BYTES", "", "a"),
            ("SRC_TO_DST_SECOND_BYTES", "-", "1"),  # a negative value
            ("IPV4_SRC_ADDR", "", "a"),
            ("Label", "", "a"),
        ],
    )
    def test_issue_for_a_long_cell_is_bounded(self, catalog, column, sign, digit):
        # 100,000 characters: under the csv module's default field limit
        text = sign + digit * 100_000
        row = _row(catalog, **({} if column == "Label" else {column: text}))
        if column == "Label":
            row[-2] = text  # _row ends with the label and attack cells
        _, report = parse_dataset(_csv_text(catalog, [row]), catalog)
        [issue] = report.issues
        assert issue.column == column
        assert f"… ({len(text)} characters)" in issue.message
        assert len(issue.message) < 200

    def test_1mb_cell_quarantines_its_row(self, catalog):
        rows = [_row(catalog, IN_BYTES="1" * 1_000_000), _row(catalog)]
        records, report = parse_dataset(_csv_text(catalog, rows), catalog)
        assert [r.flow_id for r in records] == ["row-000002"]
        assert [(i.row, i.column) for i in report.issues] == [(1, "*")]
        assert len(report.issues[0].message) < 200
        assert (report.rows_total, report.rows_ok) == (2, 1)

    def test_each_address_string_is_checked_once(self, catalog, monkeypatch):
        addresses = [f"10.0.{i // 10}.{i}" for i in range(48)] + ["2001:db8::7"]
        rows = [
            _row(catalog, IPV4_SRC_ADDR=addresses[i % 49], IPV4_DST_ADDR=addresses[i * 7 % 49])
            for i in range(2000)
        ]
        checked = Counter()
        real = ipaddress.ip_address

        def counting(text):
            checked[text] += 1
            return real(text)

        monkeypatch.setattr(ipaddress, "ip_address", counting)
        checked_address.cache_clear()
        try:
            records, _ = parse_dataset(_csv_text(catalog, rows), catalog)
            entries = [history_entry_for(record) for record in records]
        finally:
            checked_address.cache_clear()
        assert len(entries) == 2000
        assert sorted(checked) == sorted(addresses)
        assert set(checked.values()) == {1}


class TestParseGolden:
    """Parser output matches digests recorded with the cell-by-cell parser.

    ``data/record_parse_golden.py`` records ``data/parse_golden.json`` from
    seeded CSV documents that mix valid cells with edge spellings.
    """

    def test_fuzz_settings_match_recording(self):
        assert GOLDEN["fuzz"] == {"seed": FUZZ_SEED, "cases": FUZZ_CASES, "max_rows": MAX_ROWS}

    def test_fuzz_matches_golden_digests(self, catalog):
        assert digests(catalog) == GOLDEN["digests"]


class TestRowBuilder:
    def test_ingest_builds_the_history_rows_of_the_records(self, catalog):
        features = [name for name in _HISTORY_FEATURES if name in catalog]
        for document in [DATASET.read_text(), *fuzz_documents()]:
            records, report = parse_dataset(io.StringIO(document), catalog)
            rows, ingest_report = parse_dataset(
                io.StringIO(document), catalog, features, _store_row
            )
            assert ingest_report.to_dict() == report.to_dict()
            # repr tells an int from an equal Decimal
            assert repr(rows) == repr([history_row(record) for record in records])


class TestRenderFlowText:
    def test_contains_protocol_line(self, catalog):
        record = make_record(catalog, PROTOCOL=17)
        assert "PROTOCOL: 17" in render_flow_text(record, catalog).splitlines()

    def test_byte_identical_renders(self, catalog, sample_record):
        assert render_flow_text(sample_record, catalog) == render_flow_text(
            sample_record, catalog
        )

    def test_one_line_per_feature_in_catalog_order(self, catalog, sample_record):
        lines = render_flow_text(sample_record, catalog).splitlines()
        assert len(lines) == len(catalog)
        assert [line.split(":")[0] for line in lines] == list(catalog.feature_names)

    def test_label_not_rendered(self, catalog, sample_record):
        text = render_flow_text(sample_record, catalog)
        assert "Label" not in text and "malicious" not in text

    def test_missing_feature_named_in_error(self, catalog):
        values = synth_values(catalog)
        del values["MIN_TTL"]
        record = FlowRecord(flow_id="x", values=values, label="malicious")
        with pytest.raises(RecordValidationError, match="MIN_TTL"):
            render_flow_text(record, catalog)

    def test_extra_feature_rejected(self, catalog):
        values = synth_values(catalog, PACKET_ENTROPY=1)
        record = FlowRecord(flow_id="x", values=values, label="malicious")
        with pytest.raises(RecordValidationError, match="PACKET_ENTROPY"):
            render_flow_text(record, catalog)


class TestSampleMalicious:
    def _records(self, catalog, per_class, classes=("a", "b", "c", "d", "e"), benign=5):
        records = []
        i = 0
        for cls in classes:
            for _ in range(per_class):
                records.append(make_record(catalog, flow_id=f"m{i}", attack_class=cls))
                i += 1
        for j in range(benign):
            records.append(make_record(catalog, flow_id=f"b{j}", label="benign"))
        return records

    def test_even_split_across_five_classes(self, catalog):
        records = self._records(catalog, per_class=10)
        sample = sample_malicious(records, 50, seed=7)
        assert len(sample) == 50
        assert all(r.label == "malicious" for r in sample)
        counts = Counter(r.attack_class for r in sample)
        assert counts == {"a": 10, "b": 10, "c": 10, "d": 10, "e": 10}

    def test_remainder_round_robin_by_class_name(self, catalog):
        records = self._records(catalog, per_class=11)
        counts = Counter(r.attack_class for r in sample_malicious(records, 52, seed=7))
        assert counts == {"a": 11, "b": 11, "c": 10, "d": 10, "e": 10}

    def test_short_class_spills_to_others(self, catalog):
        records = self._records(catalog, per_class=10, classes=("a", "b"))
        records.append(make_record(catalog, flow_id="lone", attack_class="c"))
        counts = Counter(r.attack_class for r in sample_malicious(records, 15, seed=1))
        assert counts["c"] == 1
        assert counts["a"] + counts["b"] == 14

    def test_deterministic_for_seed(self, catalog):
        records = self._records(catalog, per_class=10)
        first = [r.flow_id for r in sample_malicious(records, 20, seed=42)]
        second = [r.flow_id for r in sample_malicious(records, 20, seed=42)]
        assert first == second
        different = [r.flow_id for r in sample_malicious(records, 20, seed=43)]
        assert first != different

    def test_uniform_mode(self, catalog):
        records = self._records(catalog, per_class=10)
        sample = sample_malicious(records, 20, seed=3, stratified=False)
        assert len(sample) == 20
        assert all(r.label == "malicious" for r in sample)

    def test_zero_sample_is_empty(self, catalog):
        assert sample_malicious(self._records(catalog, 2), 0, seed=1) == []

    def test_insufficient_malicious_reports_available_count(self, catalog):
        records = self._records(catalog, per_class=6)  # 30 malicious
        with pytest.raises(SamplingError, match="only 30 available"):
            sample_malicious(records, 50, seed=7)

    def test_output_preserves_input_order(self, catalog):
        records = self._records(catalog, per_class=10)
        sample = sample_malicious(records, 25, seed=9)
        ids = [r.flow_id for r in sample]
        positions = [int(i[1:]) for i in ids]
        assert positions == sorted(positions)


# property: parse -> render -> re-parse round-trips every typed value
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_render_roundtrip_property(data):
    from flowexplain.catalog import default_catalog

    catalog = default_catalog()
    overrides = {
        "IN_BYTES": data.draw(st.integers(min_value=0, max_value=2**40)),
        "L7_PROTO": Decimal(
            f"{data.draw(st.integers(0, 400))}.{data.draw(st.integers(0, 255))}"
        ),
        "SRC_TO_DST_SECOND_BYTES": Decimal(
            f"{data.draw(st.integers(0, 10**7))}.{data.draw(st.integers(0, 9))}"
        ),
        "MIN_TTL": data.draw(st.integers(0, 255)),
        "IPV4_DST_ADDR": str(data.draw(st.ip_addresses(v=4))),
    }
    record = make_record(catalog, **overrides)
    rendered = render_flow_text(record, catalog)
    names, cells = zip(*(line.split(": ", 1) for line in rendered.splitlines()))
    assert row_parser(catalog, names)(cells) == (dict(record.values), {})


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=30),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sampling_is_pure_function_of_inputs(n, seed):
    from flowexplain.catalog import default_catalog

    catalog = default_catalog()
    records = [
        make_record(catalog, flow_id=f"m{i}", attack_class=("x", "y", "z")[i % 3])
        for i in range(30)
    ]
    assert [r.flow_id for r in sample_malicious(records, n, seed)] == [
        r.flow_id for r in sample_malicious(records, n, seed)
    ]


def test_all_parsed_fixture_rows_match_catalog_key_set(records, catalog):
    names = set(catalog.feature_names)
    assert records, "fixture dataset parsed to zero records"
    for record in records:
        assert set(record.values.keys()) == names
