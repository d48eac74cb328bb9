from __future__ import annotations

import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import flowexplain
from flowexplain.catalog import FeatureCatalog, default_catalog
from flowexplain.evaluation import METRICS, AnnotationSet
from flowexplain.flows import FlowRecord, parse_dataset
from flowexplain.history import FlowHistoryEntry, FlowHistoryStore
from flowexplain.prompts import PromptBundle

DATA_DIR = Path(__file__).parent / "data"
DATASET = DATA_DIR / "flows_small.csv"
GEO_FIXTURE = DATA_DIR / "geo_fixture.jsonl"
CTI_FIXTURE = DATA_DIR / "cti_fixture.jsonl"
#: a JSON document nested past any recursion limit
DEEP_JSON = "[" * 200_000 + "]" * 200_000


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this copy of the package."""
    src = str(Path(flowexplain.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


@pytest.fixture(scope="session")
def catalog() -> FeatureCatalog:
    return default_catalog()


@pytest.fixture(scope="session")
def dataset_path() -> Path:
    return DATASET


@pytest.fixture(scope="session")
def parsed_dataset(catalog):
    return parse_dataset(DATASET, catalog)


@pytest.fixture(scope="session")
def records(parsed_dataset):
    return parsed_dataset[0]


def synth_values(catalog: FeatureCatalog, **overrides):
    """A minimal valid value map for the catalog, with overrides applied."""
    values = {}
    for spec in catalog.features:
        if spec.value_kind == "integer":
            values[spec.name] = 0
        elif spec.value_kind == "decimal":
            values[spec.name] = Decimal("0.0")
        elif spec.value_kind == "address":
            values[spec.name] = "172.31.69.17"
        else:
            values[spec.name] = ""
    values.update(overrides)
    return values


def make_record(
    catalog: FeatureCatalog,
    flow_id: str = "flow-test",
    label: str = "malicious",
    attack_class: str | None = "scan",
    timestamp: int | None = None,
    **overrides,
) -> FlowRecord:
    return FlowRecord(
        flow_id=flow_id,
        values=synth_values(catalog, **overrides),
        label=label,
        attack_class=attack_class,
        timestamp=timestamp,
    )


@pytest.fixture
def sample_record(catalog) -> FlowRecord:
    return make_record(
        catalog,
        PROTOCOL=6,
        L7_PROTO=Decimal("7.0"),
        IPV4_SRC_ADDR="172.31.69.17",
        IPV4_DST_ADDR="8.8.8.8",
        L4_SRC_PORT=50879,
        L4_DST_PORT=80,
        IN_BYTES=4812,
        IN_PKTS=12,
        OUT_BYTES=9200,
        OUT_PKTS=10,
        TCP_FLAGS=27,
        MIN_TTL=32,
        MAX_TTL=32,
        FLOW_DURATION_MILLISECONDS=4294964,
        SRC_TO_DST_AVG_THROUGHPUT=8000,
        DST_TO_SRC_AVG_THROUGHPUT=16000,
        timestamp=10_000,
    )


def seeded_store(entries: list[FlowHistoryEntry]) -> FlowHistoryStore:
    store = FlowHistoryStore(":memory:")
    store.append_many(entries)
    return store


def history_entry(
    flow_id: str = "h-1",
    timestamp: int | None = 0,
    src_ip: str = "172.31.69.17",
    dst_ip: str = "8.8.8.8",
    l4_protocol_id: int = 6,
    label: str = "malicious",
    summary: str = "100B in / 50B out, 10 ms",
) -> FlowHistoryEntry:
    return FlowHistoryEntry(
        flow_id=flow_id,
        timestamp=timestamp,
        src_ip=src_ip,
        dst_ip=dst_ip,
        l4_protocol_id=l4_protocol_id,
        label=label,
        summary=summary,
    )


def section_text(bundle: PromptBundle, section_id: str) -> str:
    """The text of one section of a prompt, cut out by its ``sections`` entry."""
    offset, length = bundle.sections[section_id]
    return bundle.text[offset : offset + length]


def annotation_set_with(positives: dict[str, int], n: int) -> AnnotationSet:
    """An agreed verdict for each of ``n`` explanations, ``positives[metric]`` of them true."""
    return AnnotationSet(
        {f"e{i}": {metric: i < positives[metric] for metric in METRICS} for i in range(n)}
    )
