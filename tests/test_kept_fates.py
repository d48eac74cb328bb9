"""The fates an explain pass keeps in the store, so that a later pass over
the same export picks its flows without scanning it.

A pass keeps the fates of the export's malicious rows under the export's
key (``flows.fates_key``). On a warm store, ``_select_records`` must return
what it returns on a cold one, or raise the same error; whatever the key
does not match scans again.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import sqlite3
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowexplain import pipeline
from flowexplain.catalog import FeatureCatalog, default_catalog
from flowexplain.flows import decode_fates, encode_fates, fates_key, scan_dataset
from flowexplain.history import FlowHistoryStore, StoreError
from flowexplain.pipeline import PipelineConfig, _select_records, run_explain

from .conftest import DATASET
from .test_line_scan import FIELD_LIMIT, documents, field_limit
from .test_pipeline_cli import make_config

CATALOG = default_catalog()


def _shape(record):
    values = [(name, type(value).__name__, str(value)) for name, value in record.values.items()]
    return record.flow_id, values, record.label, record.attack_class, record.timestamp


def _outcome(config: PipelineConfig, store, flow_ids=None, sample_file=None, catalog=CATALOG):
    """The shapes of the selected records, or the type and text of the error."""
    try:
        return [_shape(r) for r in _select_records(config, catalog, store, flow_ids, sample_file)]
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc).__name__, str(exc)


def _kept_rows(path: Path) -> list[tuple]:
    with sqlite3.connect(path) as conn:
        rows = conn.execute("SELECT key, fates FROM export_fates").fetchall()
    conn.close()
    return rows


@pytest.fixture
def scans(monkeypatch):
    """The number of scans the pipeline has made since the test began."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return scan_dataset(*args, **kwargs)

    monkeypatch.setattr(pipeline, "scan_dataset", counting)
    return calls


@settings(max_examples=120, deadline=None)
@given(
    document=documents(),
    bom=st.booleans(),
    sample_size=st.integers(0, 4),
    seed=st.integers(0, 3),
    stratified=st.booleans(),
    how=st.sampled_from(["sample", "flow_ids", "sample_file"]),
    ids=st.lists(st.integers(1, 9), max_size=5),
)
def test_warm_store_selects_what_a_cold_one_selects(
    document, bom, sample_size, seed, stratified, how, ids
):
    with field_limit(FIELD_LIMIT), tempfile.TemporaryDirectory() as work:
        work = Path(work)
        dataset = work / "flows.csv"
        dataset.write_bytes((("\ufeff" if bom else "") + document).encode("utf-8"))
        config = PipelineConfig(
            dataset=dataset, store=work / "history.db", output_dir=work / "out",
            sample_size=sample_size, seed=seed, stratified_sampling=stratified,
        )
        # a document has at most six rows: ids past them are unknown
        wanted = [f"row-{n:06d}" for n in ids]
        flow_ids = wanted if how == "flow_ids" else None
        sample_file = None
        if how == "sample_file":
            sample_file = work / "sample.json"
            sample_file.write_text(json.dumps({"flow_ids": wanted}))
        with FlowHistoryStore() as cold:
            expected = _outcome(config, cold, flow_ids, sample_file)
        with FlowHistoryStore() as warm:
            _outcome(config, warm)  # a pass that draws the configured sample
            assert _outcome(config, warm, flow_ids, sample_file) == expected
            # kept when the scan read the header, and only then
            try:
                scan_dataset(dataset, CATALOG)
            except Exception:  # noqa: BLE001
                assert warm.kept_fates(fates_key(dataset, CATALOG)) is None
            else:
                assert warm.kept_fates(fates_key(dataset, CATALOG)) is not None


def test_fates_survive_their_encoding():
    rows, _ = scan_dataset(DATASET, CATALOG)
    malicious = [row for row in rows if row.label == "malicious"]
    assert len(malicious) == 80
    assert decode_fates(encode_fates(rows)) == malicious
    assert decode_fates(encode_fates([])) == []
    for corrupt in ("", "{", "{}", "5", '"fates"', "[[1, 2], [3]]", "[[1], [2], [3]]",
                    '[["x"], [null], [0], [1], [2]]', "[[1, 2], [null], [0], [1], [2]]"):
        assert decode_fates(corrupt) is None, corrupt


class TestSecondPass:
    def test_second_pass_scans_nothing_and_writes_the_same_log(self, tmp_path, scans):
        config = make_config(tmp_path, sample_size=12)
        first = run_explain(config, "augmented", run_id="first")
        assert len(scans) == 1
        second = run_explain(config, "augmented", run_id="second")
        assert len(scans) == 1

        def log(result):
            return [{k: v for k, v in json.loads(line).items()
                     if k not in ("timestamps", "latency_ms", "explanation_id")}
                    for line in result.log_path.read_text().splitlines()]

        assert log(second) == log(first) and len(log(first)) == 12

    def test_flow_ids_among_the_kept_rows_scan_nothing(self, tmp_path, scans):
        config = make_config(tmp_path)
        with FlowHistoryStore(config.store) as store:
            rows = _outcome(config, store)
            malicious = [flow_id for flow_id, *_ in rows]
            picked = malicious[3:0:-1] + malicious[1:2]
            assert [r[0] for r in _outcome(config, store, picked)] == picked
            sample = tmp_path / "sample.json"
            sample.write_text(json.dumps({"flow_ids": picked}))
            assert [r[0] for r in _outcome(config, store, None, sample)] == picked
        assert len(scans) == 1

    @pytest.mark.parametrize("extra", ["benign", "unknown"])
    def test_an_id_not_kept_scans(self, tmp_path, scans, extra):
        config = make_config(tmp_path)
        benign = next(row.flow_id for row in scan_dataset(DATASET, CATALOG)[0]
                      if row.label == "benign")
        wanted = ["row-000003", benign if extra == "benign" else "row-999999"]
        with FlowHistoryStore() as cold:
            expected = _outcome(config, cold, wanted)
        with FlowHistoryStore() as warm:
            _outcome(config, warm)
            scans.clear()
            assert _outcome(config, warm, wanted) == expected
        assert len(scans) == 1


class TestMiss:
    """Each change of what a scan reads makes the kept fates miss, and the pass scans."""

    def _warm(self, tmp_path, dataset):
        config = make_config(tmp_path, dataset=dataset, sample_size=6)
        store = FlowHistoryStore(config.store)
        _outcome(config, store)
        return config, store

    def test_one_byte_edit_at_the_same_size_and_mtime(self, tmp_path, scans):
        dataset = tmp_path / "flows.csv"
        dataset.write_bytes(DATASET.read_bytes())
        config, store = self._warm(tmp_path, dataset)
        with store:
            text = dataset.read_bytes()
            stat = dataset.stat()
            # the last row's label, benign, becomes malicious
            at = text.rindex(b",0,Benign") + 1
            dataset.write_bytes(text[:at] + b"1" + text[at + 1:])
            os.utime(dataset, ns=(stat.st_atime_ns, stat.st_mtime_ns))
            assert dataset.stat().st_size == stat.st_size
            scans.clear()
            with FlowHistoryStore() as cold:
                expected = _outcome(config, cold)
            assert _outcome(config, store) == expected
        assert len(scans) == 2  # the cold store's and the warm store's

    def test_another_catalog(self, tmp_path, scans):
        config, store = self._warm(tmp_path, DATASET)
        with store:
            # a unit that allows negative counts decides other fates
            other = FeatureCatalog(CATALOG.version, tuple(
                dataclasses.replace(spec, unit="dimensionless") if spec.name == "IN_PKTS"
                else spec for spec in CATALOG.features
            ), CATALOG.label_column, CATALOG.attack_column)
            assert fates_key(DATASET, other) != fates_key(DATASET, CATALOG)
            scans.clear()
            _outcome(config, store, catalog=other)
            assert len(scans) == 1
            # a definition is not read by the scan: the fates are those kept
            reworded = FeatureCatalog(CATALOG.version, tuple(
                dataclasses.replace(spec, definition="reworded") for spec in CATALOG.features
            ), CATALOG.label_column, CATALOG.attack_column)
            assert fates_key(DATASET, reworded) == fates_key(DATASET, CATALOG)
            # the other catalog's fates hold the slot, so a reworded catalog
            # scans once, and the original one then reads what that scan kept
            _outcome(config, store, catalog=reworded)
            assert len(scans) == 2
            _outcome(config, store, catalog=CATALOG)
            assert len(scans) == 2

    def test_another_field_size_limit(self, tmp_path, scans):
        config, store = self._warm(tmp_path, DATASET)
        with store:
            scans.clear()
            with field_limit(csv.field_size_limit() // 2):
                _outcome(config, store)
            assert len(scans) == 1

    def test_corrupt_entry(self, tmp_path, scans):
        config, store = self._warm(tmp_path, DATASET)
        expected = _outcome(config, store)
        store.close()
        with sqlite3.connect(config.store) as conn:
            conn.execute("UPDATE export_fates SET fates = '[[1, 2'")
        conn.close()
        with FlowHistoryStore(config.store) as store:
            scans.clear()
            assert _outcome(config, store) == expected
            assert len(scans) == 1
            _outcome(config, store)  # the scan kept its fates again
            assert len(scans) == 1


def test_store_keeps_one_export(tmp_path):
    other = tmp_path / "other.csv"
    other.write_bytes(DATASET.read_bytes().replace(b",1,", b",0,", 1))
    config = make_config(tmp_path)
    with FlowHistoryStore(config.store) as store:
        _outcome(config, store)
        _outcome(dataclasses.replace(config, dataset=other), store)
    kept = _kept_rows(config.store)
    assert len(kept) == 1 and kept[0][0] == fates_key(other, CATALOG)


def test_export_changed_during_the_scan_is_not_kept(tmp_path, monkeypatch):
    dataset = tmp_path / "flows.csv"
    dataset.write_bytes(DATASET.read_bytes())

    def scan_then_edit(*args, **kwargs):
        scanned = scan_dataset(*args, **kwargs)
        dataset.write_bytes(DATASET.read_bytes() + b"\n")
        return scanned

    monkeypatch.setattr(pipeline, "scan_dataset", scan_then_edit)
    config = make_config(tmp_path, dataset=dataset)
    with FlowHistoryStore(config.store) as store:
        _outcome(config, store)
    assert _kept_rows(config.store) == []


def test_failing_keep_leaves_the_log_unchanged(tmp_path, monkeypatch):
    def log(directory):
        directory.mkdir()
        config = make_config(directory, sample_size=8)
        result = run_explain(config, "augmented", run_id="pass")
        return [{k: v for k, v in json.loads(line).items()
                 if k not in ("timestamps", "latency_ms")}
                for line in result.log_path.read_text().splitlines()]

    expected = log(tmp_path / "kept")

    def failing(self, key, fates):
        raise StoreError("keeping fates failed: disk I/O error")

    monkeypatch.setattr(FlowHistoryStore, "keep_fates", failing)
    assert log(tmp_path / "failed") == expected
    assert _kept_rows(tmp_path / "failed" / "history.db") == []
