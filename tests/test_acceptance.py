"""Acceptance suite: one test per release criterion, offline and deterministic.

Each test prints a PASS line once its assertions hold; a failing criterion
shows up as an ordinary pytest failure for that test.
"""

import dataclasses
import json
import socket
import time
from decimal import Decimal
from pathlib import Path

from flowexplain.catalog import default_catalog
from flowexplain.checkers import (
    check_factual_claims,
    decode_tcp_flags,
    milliseconds_to,
    run_all_checks,
    well_known_ports,
)
from flowexplain.enrichment import ContextBuilder
from flowexplain.config import PricingTable, estimate_cost, run_ingest, run_sample
from flowexplain.evaluation import METRICS, aggregate_metrics
from flowexplain.flows import parse_dataset
from flowexplain.history import FlowHistoryEntry, FlowHistoryStore
from flowexplain.pipeline import run_explain
from flowexplain.protocols import map_l4_protocol

from .conftest import DATASET, annotation_set_with
from .test_pipeline_cli import make_config

PRICING = PricingTable.per_million("2.50", "10.00")


def _passed(number: int, message: str) -> None:
    print(f"\n[acceptance] criterion {number}: PASS: {message}")


def test_criterion_1_cost_reproduction():
    basic = estimate_cost(1000, 461, 460, PRICING)
    augmented = estimate_cost(1000, 2308, 460, PRICING)
    assert basic == Decimal("5.75")
    assert augmented == Decimal("10.37")
    _passed(1, "cost per 1,000 queries is $5.75 basic and $10.37 augmented, exact")


REFERENCE_ROWS = [
    ("LLama3-70B-Instruct", "basic", (13, 42, 21), (26, 84, 42), "50.66", (6, 5, 7)),
    ("LLama3-70B-Instruct", "augmented", (18, 50, 45), (36, 100, 90), "75.33", (6, 0, 4)),
    ("GPT-4", "basic", (20, 48, 39), (40, 96, 78), "71.33", (6, 2, 5)),
    ("GPT-4", "augmented", (40, 50, 46), (80, 100, 92), "90.66", (5, 0, 3)),
]


def test_criterion_2_reference_table_aggregation():
    for model, mode, counts, cells, average, published_se in REFERENCE_ROWS:
        positives = dict(zip(METRICS, counts))
        report = aggregate_metrics(annotation_set_with(positives, 50), n=50, model=model, mode=mode)
        got_cells = (
            report.correctness.percent,
            report.feature_consistency.percent,
            report.factual_consistency.percent,
        )
        for got, expected in zip(got_cells, cells):
            assert got == Decimal(expected), f"{model}/{mode}: {got} != {expected}"
        assert str(report.average_performance) == average
        got_se = (
            report.correctness.standard_error,
            report.feature_consistency.standard_error,
            report.factual_consistency.standard_error,
        )
        for got, reference in zip(got_se, published_se):
            assert abs(got - reference) <= 1.0, f"{model}/{mode}: SE {got} vs ±{reference}"
    _passed(2, "all 12 cells, 4 averages and 12 ± values reproduced from counts")


# --- criterion 3: seeded-fault corpus -------------------------------------

FLAG_ORDER = ("FIN", "SYN", "RST", "PSH", "ACK", "URG", "ECE", "CWR")


def _clean_explanation(record) -> str:
    values = record.values
    duration = int(values["FLOW_DURATION_MILLISECONDS"])
    minutes = float(milliseconds_to(duration, "minutes")) if duration else 0.0
    flags = int(values["TCP_FLAGS"])
    lines = [
        f"The detector flagged this flow from {values['IPV4_SRC_ADDR']} "
        f"to {values['IPV4_DST_ADDR']}.",
        f"Path hop counters were MIN_TTL: {values['MIN_TTL']}, "
        f"MAX_TTL: {values['MAX_TTL']}.",
        f"The client sent IN_BYTES: {values['IN_BYTES']} bytes at "
        f"SRC_TO_DST_AVG_THROUGHPUT: {values['SRC_TO_DST_AVG_THROUGHPUT']} bps.",
        f"The flow lasted {duration} ms, which is {minutes:.4f} minutes.",
    ]
    if flags:
        names = [n for n in FLAG_ORDER if n in decode_tcp_flags(flags)]
        lines.append(f"TCP_FLAGS {flags} means {', '.join(names)} were seen.")
    lines.append("For context, the BGP port number is 179.")
    return "\n".join(lines)


def _inject_fault(text: str, record, kind: str) -> str:
    values = record.values
    if kind == "value_edit":
        true_ttl = str(values["MIN_TTL"])
        wrong = str(int(values["MIN_TTL"]) + 122)
        return text.replace(f"MIN_TTL: {true_ttl}", f"MIN_TTL: {wrong}", 1)
    if kind == "unit_swap":
        return text.replace(" bps.", " Bps.", 1)
    if kind == "bad_conversion":
        duration = int(values["FLOW_DURATION_MILLISECONDS"])
        minutes = float(milliseconds_to(duration, "minutes"))
        return text.replace(
            f"which is {minutes:.4f} minutes", "which is equivalent to 43 minutes", 1
        )
    if kind == "false_port":
        return text.replace(
            "the BGP port number is 179", "the BGP port number is 178", 1
        )
    raise AssertionError(kind)


FAULT_KINDS = ("value_edit", "unit_swap", "bad_conversion", "false_port")
EXPECTED_FINDING = {
    "value_edit": "value_mismatch",
    "unit_swap": "unit_mismatch",
    "bad_conversion": "arithmetic_error",
    "false_port": "fact_error",
}


def _corpus_records():
    catalog = default_catalog()
    records, _ = parse_dataset(DATASET, catalog)
    chosen = []
    for r in records:
        if r.label != "malicious":
            continue
        duration = int(r.values["FLOW_DURATION_MILLISECONDS"])
        if duration < 5_000 or int(r.values["TCP_FLAGS"]) == 0:
            continue
        # the injected "43 minutes" claim must actually be wrong for this flow
        minutes = float(milliseconds_to(duration, "minutes"))
        if abs(43.0 - minutes) <= 0.06 * minutes:
            continue
        chosen.append(r)
    assert len(chosen) >= 20, "fixture dataset must provide 20 corpus flows"
    return catalog, chosen[:20]


def test_criterion_3_seeded_fault_checker_suite():
    started = time.monotonic()
    catalog, corpus = _corpus_records()

    clean_findings = 0
    flagged = 0
    for i, record in enumerate(corpus):
        clean = _clean_explanation(record)
        clean_findings += len(run_all_checks(clean, record, catalog))

        fault = FAULT_KINDS[i % len(FAULT_KINDS)]
        faulted = _inject_fault(clean, record, fault)
        assert faulted != clean, f"fault {fault} not injected for {record.flow_id}"
        findings = run_all_checks(faulted, record, catalog)
        kinds = {f.kind for f in findings}
        assert EXPECTED_FINDING[fault] in kinds, (
            f"{record.flow_id}: fault {fault} not flagged; findings {kinds}"
        )
        flagged += 1

    elapsed = time.monotonic() - started
    assert clean_findings == 0, f"{clean_findings} spurious findings on clean corpus"
    assert flagged == 20
    assert elapsed < 1.0, f"checker suite took {elapsed:.2f}s"
    _passed(3, f"20/20 injected faults flagged, 0 findings on originals ({elapsed:.2f}s)")


def test_criterion_4_fact_oracles():
    assert decode_tcp_flags(27) == {"FIN", "SYN", "PSH", "ACK"}
    minutes = milliseconds_to(4_294_964, "minutes")
    assert abs(minutes - Decimal("71.58")) <= Decimal("0.1")
    findings = check_factual_claims("4294964 ms is equivalent to 43 minutes")
    assert [f.kind for f in findings] == ["arithmetic_error"]
    assert map_l4_protocol(17).name == "UDP"
    assert map_l4_protocol(6).name == "TCP"
    assert well_known_ports()["BGP"] == 179
    _passed(4, "TCP flags, duration conversion, protocol names and BGP port all verified")


# --- criteria 5, 7, 8: full pipeline over the 50-flow fixture sample -------

SECTION_TITLES = (
    "NetFlow Specification:",
    "Protocol Specific Knowledge:",
    "IP Specific Knowledge:",
)


def _run_sampled(tmp_path: Path, run_id: str, mode: str = "augmented", **config_extra):
    config = make_config(tmp_path, **config_extra)
    run_ingest(config)
    sample_path = tmp_path / "sample.json"
    run_sample(config, sample_path)
    result = run_explain(config, mode, sample_file=sample_path, run_id=run_id)
    entries = [json.loads(line) for line in result.log_path.read_text().splitlines()]
    return config, result, entries


def test_criterion_5_prompt_structure_properties(tmp_path):
    started = time.monotonic()
    _, _, augmented_a = _run_sampled(tmp_path / "a", "runA")
    _, _, augmented_b = _run_sampled(tmp_path / "b", "runB")
    _, _, basic_run = _run_sampled(tmp_path / "c", "runC", mode="basic")

    assert len(augmented_a) == 50
    basic_by_flow = {e["flow_id"]: e for e in basic_run}
    for entry_a, entry_b in zip(augmented_a, augmented_b):
        assert entry_a["status"] == "ok"
        text = entry_a["prompt"]["text"]
        # byte-identical across two runs
        assert text == entry_b["prompt"]["text"]
        # basic prompt is a byte prefix of the augmented prompt
        basic_text = basic_by_flow[entry_a["flow_id"]]["prompt"]["text"]
        assert text.startswith(basic_text)
        # exactly the three titled sections, in order
        positions = [text.find(title) for title in SECTION_TITLES]
        assert all(p > 0 for p in positions)
        assert positions == sorted(positions)
        assert [text.count(title) for title in SECTION_TITLES] == [1, 1, 1]
        # post-budget token ceiling
        assert entry_a["prompt"]["token_count"] <= 2048
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"prompt property pass took {elapsed:.2f}s"
    _passed(5, f"prefix, section order, determinism and budget hold for 50 flows ({elapsed:.2f}s)")


def test_criterion_6_history_contract():
    store = FlowHistoryStore(":memory:")
    for i in range(7):
        store.append(
            FlowHistoryEntry(
                flow_id=f"fixture-{i}",
                timestamp=1_000 + i * 50,
                src_ip="172.31.69.50",
                dst_ip="198.51.100.7",
                l4_protocol_id=6,
                label="malicious",
                summary=f"{i * 100}B in / 0B out, 10 ms",
            )
        )
    result = store.query_history("172.31.69.50", 5)
    assert [e.flow_id for e in result] == [
        "fixture-6", "fixture-5", "fixture-4", "fixture-3", "fixture-2",
    ]
    stamps = [e.timestamp for e in result]
    assert stamps == sorted(stamps, reverse=True)

    catalog = default_catalog()
    records, _ = parse_dataset(DATASET, catalog)
    record = dataclasses.replace(records[10], timestamp=10_000)
    for k in (0, 3, 5):
        context = ContextBuilder(store=store, k=k).build(record)
        assert len(context.histories.entries[0]) <= k
        assert len(context.histories.entries[1]) <= k
    _passed(6, "7-entry fixture returns the 5 most recent, contexts never exceed k")


def test_criterion_7_no_fabrication_audit(tmp_path):
    config, result, entries = _run_sampled(
        tmp_path,
        "audit",
        geo_provider={"kind": "disabled"},
        cti_provider={"kind": "disabled"},
    )
    assert len(entries) == 50
    allowed_prefixes = (
        "Source IP ",
        "Destination IP ",
        "- classification: ",
        "- geolocation unavailable: ",
        "- threat intelligence unavailable: ",
        "- recent connections",
    )
    for entry in entries:
        text = entry["prompt"]["text"]
        offset, length = entry["prompt"]["sections"]["ip_knowledge"]
        section = text[offset : offset + length]
        for line in section.splitlines():
            line = line.rstrip()
            if not line or line == "IP Specific Knowledge:":
                continue
            if line.startswith("  "):  # history entry / omission marker
                continue
            assert line.startswith(allowed_prefixes), f"unexpected line: {line!r}"
            assert not line.startswith("- geolocation: ")
            assert not line.startswith("- threat intelligence: ")
    _passed(7, "providers disabled: IP sections hold only classification and unavailability")


def test_criterion_8_end_to_end_offline_run(tmp_path, monkeypatch):
    def refuse_network(*args, **kwargs):
        raise AssertionError("network access attempted during offline run")

    monkeypatch.setattr(socket, "socket", refuse_network)
    monkeypatch.setattr(socket, "create_connection", refuse_network)

    started = time.monotonic()
    _, result_a, entries_a = _run_sampled(tmp_path / "one", "e2e")
    elapsed = time.monotonic() - started
    _, result_b, entries_b = _run_sampled(tmp_path / "two", "e2e")

    assert result_a.written == 50
    assert result_a.failed == 0
    assert elapsed < 10.0, f"run took {elapsed:.2f}s"

    def stripped(entries):
        out = []
        for entry in entries:
            entry = dict(entry)
            entry.pop("timestamps", None)
            out.append(json.dumps(entry, sort_keys=True))
        return out

    assert stripped(entries_a) == stripped(entries_b)
    _passed(8, f"50 records, no sockets, {elapsed:.2f}s, identical logs modulo timestamps")
