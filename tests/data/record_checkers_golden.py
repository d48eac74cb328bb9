"""Records golden digests of the consistency checkers' output. Run from the repo root:

    PYTHONPATH=src python3 tests/data/record_checkers_golden.py

A case is one explanation text and the flow record it is checked against.
Its outcome is the ``repr`` of what ``extract_feature_mentions`` and
``run_all_checks`` return. Three case sets are recorded:

- ``stub``: the benchmark stub server's answer (``bench/stub_llm.py``) for
  every row of ``flows_small.csv``;
- ``faults``: the clean and the seeded-fault explanations of acceptance
  criterion 3 (``tests/test_acceptance.py``);
- ``fuzz``: ``FUZZ_CASES`` seeded strings from :func:`fuzz_texts`, each
  checked against fixture row ``i % 200``.

The texts of the first two sets are stored in ``checkers_golden.json``, so
the tests import neither ``bench`` nor the acceptance suite; the fuzz
strings are generated again from the seed. Outcomes are hashed in chunks
(one case per chunk for the stored texts). A case on which the checkers
raise ``ValueError`` (``CatalogError`` is one) is left out of its chunk's
digest and listed under ``raised`` instead.

The committed digests were recorded with the checkers that matched feature
names with a case-insensitive alternation of all catalog names;
``tests/test_checkers.py`` checks that the current code still produces
them and raises on none of the ``raised`` cases: those are the ones where
model output made the checkers raise instead of returning findings.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Iterable, Iterator

from flowexplain.catalog import FeatureCatalog, default_catalog
from flowexplain.checkers import extract_feature_mentions, run_all_checks
from flowexplain.flows import FlowRecord, parse_dataset

HERE = Path(__file__).parent
GOLDEN = HERE / "checkers_golden.json"

FUZZ_SEED = 20251018
FUZZ_CASES = 100_000
FUZZ_CHUNK = 1000
FUZZ_POOL = 20_000

#: Letters whose case relation to ASCII letters is irregular: U+017F and
#: U+0131 upper-case to S and I; U+0130 and U+212A (Kelvin sign) match I and
#: K when case is ignored but upper-case to themselves; U+00DF upper-cases
#: to SS and the ligatures U+FB02 and U+FB05 to FL and ST.
ODD_LETTERS = ("ſ", "ı", "İ", "K", "ß", "ﬂ", "ﬅ")
LOOKALIKES = (
    ("S", "ſ"), ("I", "ı"), ("I", "İ"), ("K", "K"),
    ("SS", "ß"), ("FL", "ﬂ"), ("ST", "ﬅ"),
)
UNKNOWN_NAMES = (
    "PACKET_ENTROPY", "SRC_REPUTATION_SCORE", "X_1", "A1_B2_C3", "IN_BYTE", "TCP_FLAG",
    "L4_SRC", "Packet_Entropy",
)
UNITS = (
    "ms", "msec", "milliseconds", "bps", "Bps", "Kbps", "MB", "KiB", "B/s", "bytes", "bits",
    "packets", "pkts", "seconds", "sec", "s", "minutes", "min", "hours", "h", "xyz",
)
WORDS = ("the", "flow", "which", "is", "about", "port", "tcp", "flags", "means", "and", "of")
SERVICES = ("SSH", "HTTP", "https", "DNS", "BGP", "Ftp", "NTP", "SMTP", "FOOBARD")
FLAGS = ("FIN", "SYN", "RST", "PSH", "ACK", "URG", "ECE", "CWR", "syn", "ack")
SEPARATORS = (
    "", " ", " ", " ", ": ", ":", " = ", " (", ") ", ", ", ",", ".", ". ", "\n", "_", "-",
)


def _number(rng: random.Random) -> str:
    digits = "".join(rng.choice("0123456789,") for _ in range(rng.randint(0, 8)))
    number = rng.choice("0123456789") + digits
    if rng.random() < 0.3:
        number += "." + "".join(rng.choice("0123456789") for _ in range(rng.randint(0, 3)))
    return ("-" if rng.random() < 0.05 else "") + number


def _catalog_name(rng: random.Random, names: tuple[str, ...]) -> str:
    name = rng.choice(names)
    if rng.random() < 0.5:
        name = "".join(c.lower() if rng.random() < 0.5 else c for c in name)
    if rng.random() < 0.4:
        plain, odd = rng.choice(LOOKALIKES)
        at = name.upper().find(plain)
        if at >= 0:
            name = name[:at] + odd + name[at + len(plain):]
    return name


def _phrase(rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        link = rng.choice(
            ("is", "is about", ", which is", "equals", "=", "≈", "is equivalent to")
        )
        unit = rng.choice(("seconds", "secs", "minutes", "min", "hours", "hrs", "minſ", "ſecs"))
        ms = _number(rng)
        return f"{ms} {rng.choice(('ms', 'msec', 'milliseconds'))} {link} {_number(rng)} {unit}"
    if kind == 1:
        svc, port = rng.choice(SERVICES), rng.randrange(1, 70000)
        forms = (
            f"the {svc} port number is {port}", f"{svc} (port {port})", f"port {port} ({svc})",
            f"{svc} port: {port}", f"{svc} port {port}",
        )
        return rng.choice(forms)
    if kind == 2:
        flags = rng.choice((", ", " and ", "+", "|", "/")).join(
            rng.sample(FLAGS, rng.randint(1, 3))
        )
        forms = (
            f"TCP flags {rng.randrange(300)} means {flags}",
            f"TCP_FLAGS: {rng.randrange(300)} ({flags})",
            f"a tcp flag value of {rng.randrange(300)} indicates {flags}",
        )
        return rng.choice(forms)
    return ".".join(str(rng.randrange(256)) for _ in range(4))


def _token(rng: random.Random, names: tuple[str, ...]) -> str:
    kind = rng.randrange(9)
    if kind <= 1:
        return _catalog_name(rng, names)
    if kind == 2:
        return rng.choice(UNKNOWN_NAMES)
    if kind == 3:
        return _number(rng)
    if kind == 4:
        return rng.choice(UNITS)
    if kind == 5:
        return _phrase(rng)
    if kind == 6:
        return rng.choice(ODD_LETTERS)
    return rng.choice(WORDS)


def fuzz_texts(count: int = FUZZ_CASES, seed: int = FUZZ_SEED) -> Iterator[str]:
    """Seeded strings of catalog-name variants, numbers, units and claim phrases.

    Each string joins 1 to 4 tokens drawn from a pool of ``FUZZ_POOL``
    generated ones, each token followed by a separator; an empty or
    underscore separator merges neighbours into one identifier.
    """
    rng = random.Random(seed)
    names = default_catalog().feature_names
    pool = [_token(rng, names) for _ in range(FUZZ_POOL)]
    for _ in range(count):
        n = rng.randint(1, 4)
        yield "".join(map(str.__add__, rng.choices(pool, k=n), rng.choices(SEPARATORS, k=n)))


def fixture_records(catalog: FeatureCatalog) -> list[FlowRecord]:
    records, _ = parse_dataset(HERE / "flows_small.csv", catalog)
    return records


def outcome(text: str, record: FlowRecord, catalog: FeatureCatalog) -> str:
    """What the checkers return for one case; raises what they raise."""
    mentions = extract_feature_mentions(text, catalog)
    findings = run_all_checks(text, record, catalog)
    return f"{mentions!r}\n{findings!r}"


def chunk_digests(
    cases: Iterable[tuple[str, FlowRecord]],
    catalog: FeatureCatalog,
    chunk: int,
    skip: frozenset[int] = frozenset(),
) -> tuple[list[str], list[int]]:
    """Digest per ``chunk`` consecutive cases, and the cases that raised ``ValueError``.

    Cases in ``skip`` are run but left out of the digests.
    """
    hashes = []
    raised: list[int] = []
    for i, (text, record) in enumerate(cases):
        if i % chunk == 0:
            hashes.append(hashlib.sha256())
        try:
            result = outcome(text, record, catalog)
        except ValueError:
            raised.append(i)
            continue
        if i not in skip:
            hashes[-1].update(f"{i}\n{result}\n".encode("utf-8"))
    return [digest.hexdigest()[:16] for digest in hashes], raised


def text_cases(
    entries: list[dict], records: list[FlowRecord]
) -> Iterator[tuple[str, FlowRecord]]:
    by_id = {record.flow_id: record for record in records}
    return ((entry["text"], by_id[entry["flow_id"]]) for entry in entries)


def fuzz_cases(records: list[FlowRecord]) -> Iterator[tuple[str, FlowRecord]]:
    return ((text, records[i % len(records)]) for i, text in enumerate(fuzz_texts()))


def _recorded_texts(catalog: FeatureCatalog, records: list[FlowRecord]) -> dict[str, list[dict]]:
    from bench.stub_llm import compose, flow_values
    from flowexplain.prompts import build_basic_prompt, default_basic_template
    from tests.test_acceptance import (
        FAULT_KINDS,
        _clean_explanation,
        _corpus_records,
        _inject_fault,
    )

    template = default_basic_template()
    stub = [
        {
            "flow_id": record.flow_id,
            "text": compose(flow_values(build_basic_prompt(record, catalog, template).text))[0],
        }
        for record in records
    ]
    faults = []
    for i, record in enumerate(_corpus_records()[1]):
        clean = _clean_explanation(record)
        faulted = _inject_fault(clean, record, FAULT_KINDS[i % len(FAULT_KINDS)])
        faults += [
            {"flow_id": record.flow_id, "text": clean},
            {"flow_id": record.flow_id, "text": faulted},
        ]
    return {"stub": stub, "faults": faults}


def record_golden() -> dict:
    catalog = default_catalog()
    records = fixture_records(catalog)
    texts = _recorded_texts(catalog, records)
    sets = {
        name: chunk_digests(text_cases(entries, records), catalog, chunk=1)
        for name, entries in texts.items()
    }
    sets["fuzz"] = chunk_digests(fuzz_cases(records), catalog, chunk=FUZZ_CHUNK)
    return {
        "fuzz": {"seed": FUZZ_SEED, "cases": FUZZ_CASES, "chunk": FUZZ_CHUNK},
        "texts": texts,
        "digests": {name: digests for name, (digests, _) in sets.items()},
        "raised": {name: raised for name, (_, raised) in sets.items()},
    }


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1]))  # for bench.stub_llm and tests.test_acceptance
    GOLDEN.write_text(json.dumps(record_golden(), indent=1) + "\n", encoding="utf-8")
    print("golden digests written to", GOLDEN)
