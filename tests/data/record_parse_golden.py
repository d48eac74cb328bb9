"""Records golden digests of the dataset parser's output. Run from the repo root:

    PYTHONPATH=src python3 tests/data/record_parse_golden.py

A case is one CSV document generated from a seed by :func:`fuzz_documents`:
a header in catalog order or shuffled, with or without the attack column,
and rows that mix valid cells with edge spellings (Unicode whitespace and
the separators U+001C..U+001F around values, ``6.0``, ``1_000``, ``+7``,
``-0``, Arabic-Indic and Thai digits, exponent forms, NaN and infinities,
empty cells, negatives, out-of-range ports and protocol ids, malformed and
IPv6 addresses), ragged rows, blank rows and bad labels. Its outcome is
every record's id, its ``(name, type, str(value))`` pairs in key order, its
label and attack class, and the parse report; outcomes are hashed one case
per digest.

The committed digests were recorded with the parser that converted every
cell through ``parse_value`` and rejected NaN and infinities;
``tests/test_flows.py`` checks that the current parser still produces them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import sys
from pathlib import Path
from typing import Iterator

from flowexplain.catalog import FeatureCatalog, FeatureSpec, default_catalog
from flowexplain.flows import parse_dataset

HERE = Path(__file__).parent
GOLDEN = HERE / "parse_golden.json"

FUZZ_SEED = 20261018
FUZZ_CASES = 200
MAX_ROWS = 40

WHITESPACE = (" ", "\t", " ", " ", "　", " ", "\x85", "\x1c", "\x1d", "\x1e", "\x1f")
NUMBER_EDGES = (
    "", "6.0", "7.00", "1_000", "+7", "-0", "-5", "-1", "٣٤", "๓", "1e3", "1E2",
    "2.5e1", "1.5", "0x10", "abc", "NaN", "sNaN", "nan", "Infinity", "-inf", "inf",
    "1e400000000", "1e4300", "0e5000", "65535", "65536", "255", "256", "_5_", "1__0", "9" * 30,
)
ADDRESSES = (
    "172.31.69.17", "10.0.0.5", "8.8.8.8", "192.168.1.20", "203.0.113.9", "2001:db8::1", "::1",
    "fe80::1%eth0",
)
ADDRESS_EDGES = (
    "", "1.2.3", "256.1.1.1", "01.2.3.4", "abc", "1.2.3.4/24", "2001:db8::g", "fe80::1%eth0 ",
    "::ffff:1.2.3.4", "1.2.3.4.5",
)
LABELS = ("0", "1", " 1 ", "Benign", "MALICIOUS", "malicious", " 0")
LABEL_EDGES = ("2", "", "yes", "-1", "1.0")
ATTACKS = ("scan", "dos", "Exploits", "", " ", " bruteforce ")


def _valid_cell(rng: random.Random, spec: FeatureSpec) -> str:
    if spec.value_kind == "address":
        return rng.choice(ADDRESSES)
    if spec.unit == "port":
        return str(rng.randrange(65536))
    if spec.unit == "protocol-id":
        cell = str(rng.randrange(256))
        return cell + f".{rng.randrange(300)}" if spec.value_kind == "decimal" else cell
    if spec.value_kind == "decimal":
        return f"{rng.randrange(10**6)}.{rng.randrange(100)}"
    return str(rng.randrange(10 ** rng.randint(1, 12)))


def _edge_cell(rng: random.Random, spec: FeatureSpec, valid: str) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        pad = "".join(rng.choices(WHITESPACE, k=rng.randint(1, 2)))
        return rng.choice((pad + valid, valid + pad, pad + valid + pad))
    if spec.value_kind == "address":
        return rng.choice(ADDRESS_EDGES + ADDRESSES)
    if kind == 1:
        return rng.choice(NUMBER_EDGES)
    return "-" + valid


def _row(rng: random.Random, catalog: FeatureCatalog, header: list[str]) -> list[str]:
    cells = {}
    for spec in catalog.features:
        cell = _valid_cell(rng, spec)
        if rng.random() < 0.04:
            cell = _edge_cell(rng, spec, cell)
        cells[spec.name] = cell
    cells[catalog.label_column] = rng.choice(LABEL_EDGES if rng.random() < 0.03 else LABELS)
    cells[catalog.attack_column] = rng.choice(ATTACKS)
    row = [cells[name] for name in header]
    shape = rng.random()
    if shape < 0.02:
        return row[:-1]
    if shape < 0.04:
        return row + ["x"]
    if shape < 0.06:
        return []
    if shape < 0.08:
        return [rng.choice(WHITESPACE[:4]) for _ in row]
    return row


def fuzz_documents(cases: int = FUZZ_CASES, seed: int = FUZZ_SEED) -> Iterator[str]:
    """Seeded CSV documents over the default catalog."""
    rng = random.Random(seed)
    catalog = default_catalog()
    for _ in range(cases):
        header = list(catalog.feature_names) + [catalog.label_column]
        if rng.random() < 0.8:
            header.append(catalog.attack_column)
        if rng.random() < 0.3:
            rng.shuffle(header)
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(header)
        for _ in range(rng.randint(1, MAX_ROWS)):
            writer.writerow(_row(rng, catalog, header))
        yield out.getvalue()


def outcome(document: str, catalog: FeatureCatalog) -> str:
    records, report = parse_dataset(io.StringIO(document), catalog)
    parsed = [
        (
            record.flow_id,
            [(name, type(value).__name__, str(value)) for name, value in record.values.items()],
            record.label,
            record.attack_class,
        )
        for record in records
    ]
    return f"{parsed!r}\n{json.dumps(report.to_dict())}"


def digests(catalog: FeatureCatalog) -> list[str]:
    return [
        hashlib.sha256(outcome(document, catalog).encode("utf-8")).hexdigest()[:16]
        for document in fuzz_documents()
    ]


def record_golden() -> dict:
    catalog = default_catalog()
    rows = ok = 0
    for document in fuzz_documents():
        _, report = parse_dataset(io.StringIO(document), catalog)
        rows += report.rows_total
        ok += report.rows_ok
    return {
        "fuzz": {"seed": FUZZ_SEED, "cases": FUZZ_CASES, "max_rows": MAX_ROWS},
        "rows_total": rows,
        "rows_ok": ok,
        "digests": digests(catalog),
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record_golden(), indent=1) + "\n", encoding="utf-8")
    print("golden digests written to", GOLDEN, file=sys.stderr)
