"""Seeded inputs for both workloads, built with the fixture row generator.

Every input the program sees (dataset CSV, config, request bodies) is made
here from the ``--seed`` argument, so the same seed gives byte-identical
inputs. Rows come from ``tests/data/generate_fixtures.make_row``, whose
fixed address pools give every address a deep connection history once the
export holds thousands of rows. Importers put the repository root on
``sys.path``.
"""

from __future__ import annotations

import csv
import json
import random
from collections import Counter
from pathlib import Path

from tests.data.generate_fixtures import ATTACK_CLASSES, COLUMNS, make_row

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"

MALICIOUS_SHARE = 0.4
K_HISTORY = 5
TOKEN_BUDGET = 2048


def labels_for(rng: random.Random, rows: int) -> list[str | None]:
    """Attack class per row (None = benign), malicious rows split evenly."""
    malicious = int(rows * MALICIOUS_SHARE)
    labels: list[str | None] = [None] * (rows - malicious)
    for i in range(malicious):
        labels.append(ATTACK_CLASSES[i % len(ATTACK_CLASSES)])
    rng.shuffle(labels)
    return labels


def write_dataset(path: Path, rows: int, rng: random.Random) -> list[dict]:
    generated = [make_row(rng, attack) for attack in labels_for(rng, rows)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=COLUMNS)
        writer.writeheader()
        writer.writerows(generated)
    return generated


def write_config(path: Path, dataset: Path, work: Path, seed: int, backend: dict,
                 sample_size: int, workers: int) -> None:
    config = {
        "dataset": str(dataset),
        "store": str(work / "history.db"),
        "output_dir": str(work / "out"),
        "geo_provider": {"kind": "fixture", "fixture": str(DATA / "geo_fixture.jsonl")},
        "cti_provider": {"kind": "fixture", "fixture": str(DATA / "cti_fixture.jsonl")},
        "backend": backend,
        "k_history": K_HISTORY,
        "token_budget": TOKEN_BUDGET,
        "sample_size": sample_size,
        "seed": seed,
        "workers": workers,
    }
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")


def unlabelled_requests(rng: random.Random, count: int) -> list[tuple[str, bytes]]:
    """``(mode, body)`` pairs: malicious rows without Label/Attack, half augmented.

    Modes alternate, so every window of an even number of consecutive
    requests is exactly half augmented. Augmented requests take about 1.6x
    as long, so the latency distribution has two modes with the median
    between them, and a drawn mix would move the median with the share.
    """
    requests = []
    for i in range(count):
        row = make_row(rng, ATTACK_CLASSES[i % len(ATTACK_CLASSES)])
        del row["Label"], row["Attack"]
        mode = ("basic", "augmented")[i % 2]
        requests.append((mode, json.dumps({"flow": row, "mode": mode}).encode("utf-8")))
    return requests


def dataset_properties(rows: list[dict]) -> dict:
    """Share of malicious rows and how deep each address's history runs."""
    per_address: Counter[str] = Counter()
    for row in rows:
        per_address[row["IPV4_SRC_ADDR"]] += 1
        per_address[row["IPV4_DST_ADDR"]] += 1
    return {
        "rows": len(rows),
        "malicious_share": sum(row["Label"] for row in rows) / len(rows),
        "distinct_addresses": len(per_address),
        "history_rows_per_address_mean": sum(per_address.values()) / len(per_address),
        "history_rows_per_address_max": max(per_address.values()),
    }


def output_properties(outputs: list[dict]) -> dict:
    """Mode mix, explanation length and budget pressure of explained flows.

    Each output carries ``mode``, ``explanation_chars`` and ``trimmed``
    (whether budget fitting cut the prompt).
    """
    return {
        "augmented_share": sum(o["mode"] == "augmented" for o in outputs) / len(outputs),
        "explanation_chars_mean": sum(o["explanation_chars"] for o in outputs) / len(outputs),
        "over_budget_share": sum(o["trimmed"] for o in outputs) / len(outputs),
    }
