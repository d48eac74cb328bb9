import os
import sqlite3
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowexplain.history import (
    _INSERT,
    _SCHEMA,
    _read_statement,
    HISTORY_LABELS,
    FlowHistoryEntry,
    FlowHistoryStore,
    StoreError,
)

from .conftest import history_entry, seeded_store


class TestAppendAndQuery:
    def test_append_then_query_by_src(self):
        store = seeded_store([history_entry(flow_id="e1")])
        result = store.query_history("172.31.69.17", 1)
        assert [e.flow_id for e in result] == ["e1"]

    def test_entry_retrievable_by_both_endpoints(self):
        store = seeded_store([history_entry(flow_id="e1")])
        assert store.query_history("8.8.8.8", 5)
        assert store.query_history("172.31.69.17", 5)

    def test_duplicate_appends_are_both_retained(self):
        entry = history_entry(flow_id="dup")
        store = seeded_store([entry, entry])
        assert store.count() == 2
        assert len(store.query_history("8.8.8.8", 10)) == 2

    def test_invalid_address_rejected(self):
        with pytest.raises(ValueError, match="src_ip"):
            history_entry(src_ip="not-an-ip")

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            history_entry(label="bad")

    def test_seven_entries_k5_returns_five_most_recent_descending(self):
        entries = [history_entry(flow_id=f"e{i}", timestamp=i * 100) for i in range(7)]
        store = seeded_store(entries)
        result = store.query_history("172.31.69.17", 5)
        assert [e.flow_id for e in result] == ["e6", "e5", "e4", "e3", "e2"]
        stamps = [e.timestamp for e in result]
        assert stamps == sorted(stamps, reverse=True)

    def test_unknown_ip_yields_empty_list(self):
        store = seeded_store([history_entry()])
        assert store.query_history("10.9.9.9", 5) == []

    def test_fewer_entries_than_k_returns_all(self):
        store = seeded_store(
            [history_entry(flow_id=f"e{i}", timestamp=i) for i in range(3)]
        )
        assert len(store.query_history("8.8.8.8", 5)) == 3

    def test_equal_timestamps_break_by_reverse_insertion(self):
        entries = [history_entry(flow_id=f"e{i}", timestamp=50) for i in range(3)]
        store = seeded_store(entries)
        result = store.query_history("8.8.8.8", 3)
        assert [e.flow_id for e in result] == ["e2", "e1", "e0"]

    def test_before_filter_is_strict(self):
        store = seeded_store(
            [history_entry(flow_id=f"e{i}", timestamp=i * 10) for i in range(5)]
        )
        result = store.query_history("8.8.8.8", 10, before=20)
        assert [e.flow_id for e in result] == ["e1", "e0"]

    def test_label_filter(self):
        store = seeded_store(
            [
                history_entry(flow_id="m", label="malicious", timestamp=1),
                history_entry(flow_id="b", label="benign", timestamp=2),
            ]
        )
        result = store.query_history("8.8.8.8", 10, include_benign=False)
        assert [e.flow_id for e in result] == ["m"]

    def test_negative_k_rejected(self):
        store = seeded_store([history_entry()])
        with pytest.raises(ValueError):
            store.query_history("8.8.8.8", -1)


class TestPersistence:
    def test_reopen_preserves_entries(self, tmp_path):
        path = tmp_path / "history.db"
        store = FlowHistoryStore(path)
        store.append(history_entry(flow_id="persisted"))
        store.close()
        reopened = FlowHistoryStore(path)
        assert reopened.count() == 1
        reopened.close()

    def test_rollback_journal_store_opens_and_answers_the_same(self, tmp_path):
        path = tmp_path / "history.db"
        addresses = ["10.0.0.1", "10.0.0.2", "8.8.8.8", "2001:db8::1"]
        entries = [
            history_entry(flow_id=f"e{i}", timestamp=i // 3, src_ip=addresses[i % 4],
                          dst_ip=addresses[i * 7 % 4], label=HISTORY_LABELS[i % 3])
            for i in range(60)
        ]
        conn = sqlite3.connect(path)  # a store file as written before WAL
        conn.executescript(_SCHEMA)
        conn.executemany(_INSERT, [
            (e.flow_id, e.timestamp, e.src_ip, e.dst_ip, e.l4_protocol_id, e.label, e.summary)
            for e in entries
        ])
        conn.commit()
        assert conn.execute("PRAGMA journal_mode").fetchone() == ("delete",)
        conn.close()
        reference = seeded_store(entries)
        with FlowHistoryStore(path) as store:
            for ip in addresses:
                for args in [(ip, 7), (ip, 100, 12, False)]:
                    assert store.query_history(*args) == reference.query_history(*args)
            store.append(history_entry(flow_id="new", timestamp=None))
            assert store.query_history("8.8.8.8", 1)[0].timestamp == 20

    def test_file_store_is_write_ahead_logged_and_fully_synchronous(self, tmp_path):
        with FlowHistoryStore(tmp_path / "history.db") as store:
            assert store._conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
            assert store._conn.execute("PRAGMA synchronous").fetchone() == (2,)

    def test_closed_store_is_readable_read_only(self, tmp_path):
        path = tmp_path / "history.db"
        with FlowHistoryStore(path) as store:
            store.append_many(history_entry(flow_id=f"e{i}") for i in range(3))
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        try:
            assert conn.execute("SELECT COUNT(*) FROM flow_history").fetchone() == (3,)
        finally:
            conn.close()

    @pytest.mark.parametrize("max_entries", [0, -1])
    def test_max_entries_below_one_rejected(self, max_entries):
        with pytest.raises(ValueError, match="max_entries must be at least 1"):
            FlowHistoryStore(":memory:", max_entries=max_entries)

    def test_max_entries_cap_evicts_oldest(self):
        store = FlowHistoryStore(":memory:", max_entries=3)
        for i in range(5):
            store.append(history_entry(flow_id=f"e{i}", timestamp=i))
        remaining = store.query_history("8.8.8.8", 10)
        assert [e.flow_id for e in remaining] == ["e4", "e3", "e2"]


class TestStamping:
    def test_unstamped_entry_follows_the_newest(self):
        store = seeded_store([history_entry(timestamp=7), history_entry(timestamp=3)])
        store.append(history_entry(flow_id="new", timestamp=None))
        newest = store.query_history("8.8.8.8", 1)
        assert [(e.flow_id, e.timestamp) for e in newest] == [("new", 8)]

    def test_empty_store_stamps_zero(self):
        store = FlowHistoryStore(":memory:")
        store.append_many([history_entry(flow_id="a", timestamp=None)] * 2)
        stamps = [e.timestamp for e in store.query_history("8.8.8.8", 5)]
        assert stamps == [1, 0]

    def test_stamps_stay_monotone_after_eviction(self):
        store = FlowHistoryStore(":memory:", max_entries=3)
        store.append_many(history_entry(flow_id=f"e{i}", timestamp=i) for i in range(10))
        store.append(history_entry(flow_id="new", timestamp=None))
        assert store.count() == 3
        newest = store.query_history("8.8.8.8", 1)[0]
        assert (newest.flow_id, newest.timestamp) == ("new", 10)

    def test_reopened_store_stamps_past_its_rows(self, tmp_path):
        path = tmp_path / "history.db"
        with FlowHistoryStore(path) as store:
            store.append(history_entry(timestamp=41))
        with FlowHistoryStore(path) as store:
            store.append(history_entry(flow_id="new", timestamp=None))
            newest = store.query_history("8.8.8.8", 1)[0]
        assert newest.timestamp == 42

    def test_concurrent_appends_get_distinct_stamps(self):
        store = FlowHistoryStore(":memory:")
        workers, per_worker = (os.cpu_count() or 1) + 2, 50
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda: [
                        store.append(history_entry(timestamp=None)) for _ in range(per_worker)
                    ]
                )
                for _ in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        total = workers * per_worker
        stamps = [e.timestamp for e in store.query_history("8.8.8.8", total)]
        assert sorted(stamps) == list(range(total))


def _rows(path) -> list[tuple]:
    """Every row of a store file with its id, as another connection reads it."""
    conn = sqlite3.connect(path)
    try:
        return conn.execute("SELECT * FROM flow_history ORDER BY id").fetchall()
    finally:
        conn.close()


def _write_lock_is_free(path) -> bool:
    conn = sqlite3.connect(path, timeout=0)
    try:
        conn.execute("BEGIN IMMEDIATE")
        conn.rollback()
        return True
    except sqlite3.OperationalError:  # database is locked
        return False
    finally:
        conn.close()


#: rows the store cannot take: one short of a field, which the store finds,
#: and one without a summary, which SQLite finds while it loads the rows
BAD_ROWS = pytest.mark.parametrize(
    "bad_row",
    [tuple(history_entry(timestamp=50))[:-1], (*history_entry(timestamp=50)[:-1], None)],
    ids=["short", "null"],
)


class TestFailedWrite:
    """A write that fails leaves no trace: no row, no lock and no stamp."""

    @BAD_ROWS
    def test_failed_bulk_append_rolls_back(self, tmp_path, bad_row):
        path = tmp_path / "history.db"
        with FlowHistoryStore(path) as store:
            store.append(history_entry(flow_id="old", timestamp=3))
            # more good rows than one INSERT statement takes
            good = [history_entry(flow_id="good", timestamp=None)] * 150
            with pytest.raises(StoreError, match="bulk append failed"):
                store.append_many([*good, bad_row])
            assert store.count() == 1
            assert _write_lock_is_free(path)
            store.append(history_entry(flow_id="next", timestamp=None))
            assert [(row[1], row[2]) for row in _rows(path)] == [("old", 3), ("next", 4)]

    def test_failed_append_rolls_back(self, tmp_path):
        path = tmp_path / "history.db"
        with FlowHistoryStore(path, max_entries=1) as store:
            store.append(history_entry(flow_id="old", timestamp=3))
            store._conn.execute(
                "CREATE TRIGGER keep BEFORE DELETE ON flow_history "
                "BEGIN SELECT RAISE(ABORT, 'eviction refused'); END"
            )
            store._conn.commit()
            with pytest.raises(StoreError, match="append failed: eviction refused"):
                store.append(history_entry(flow_id="kept out", timestamp=None))
            assert store.count() == 1
            assert _write_lock_is_free(path)
            store._conn.execute("DROP TRIGGER keep")
            store.append(history_entry(flow_id="next", timestamp=None))
            assert [(row[1], row[2]) for row in _rows(path)] == [("next", 4)]


class TestRebuild:
    """``append_many(rows, replace=True)``, which ``ingest`` runs by default."""

    INDEXES = [
        ("idx_history_dst", "CREATE INDEX idx_history_dst ON flow_history (dst_ip, timestamp)"),
        ("idx_history_src", "CREATE INDEX idx_history_src ON flow_history (src_ip, timestamp)"),
    ]

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "history.db"
        with FlowHistoryStore(path) as store:
            store.append_many(history_entry(flow_id=f"old{i}", timestamp=i) for i in range(5))
        return path

    @staticmethod
    def indexes(conn) -> list[tuple]:
        return conn.execute(
            "SELECT name, sql FROM sqlite_master WHERE type = 'index' ORDER BY name"
        ).fetchall()

    def test_rows_are_replaced_and_ids_count_on(self, path):
        with FlowHistoryStore(path) as store:
            assert store.append_many(
                [history_entry(flow_id="new0", timestamp=None), history_entry(flow_id="new1")],
                replace=True,
            ) == 2
            store.append(history_entry(flow_id="served", timestamp=None))
        assert [row[:3] for row in _rows(path)] == [
            (6, "new0", 0), (7, "new1", 0), (8, "served", 1)
        ]

    @pytest.mark.parametrize("replace", [True, False])
    def test_both_endpoint_indexes_are_rebuilt_and_searched(self, path, replace):
        with FlowHistoryStore(path) as store:
            store.append_many([history_entry(flow_id="new")], replace=replace)
            assert self.indexes(store._conn) == self.INDEXES
            arm = ("8.8.8.8", 10, False, 5)
            plan = " | ".join(
                row[3]
                for row in store._conn.execute(
                    "EXPLAIN QUERY PLAN " + _read_statement(False, 1, True), (*arm, *arm)
                )
            )
        assert "USING INDEX idx_history_src" in plan and "USING INDEX idx_history_dst" in plan

    def test_cap_applies_to_the_rebuilt_rows(self, path):
        with FlowHistoryStore(path, max_entries=2) as store:
            store.append_many(
                (history_entry(flow_id=f"new{i}", timestamp=i) for i in range(4)), replace=True
            )
        assert [row[1] for row in _rows(path)] == ["new2", "new3"]

    @BAD_ROWS
    def test_failed_rebuild_leaves_the_previous_store(self, path, bad_row):
        before = _rows(path)
        with FlowHistoryStore(path) as store:
            with pytest.raises(StoreError, match="bulk append failed"):
                store.append_many([history_entry(flow_id="new"), bad_row], replace=True)
            assert self.indexes(store._conn) == self.INDEXES
            assert _rows(path) == before
            store.append(history_entry(flow_id="served", timestamp=None))
        assert _rows(path)[-1][:3] == (6, "served", 5)


@settings(max_examples=30, deadline=None)
@given(
    stamps=st.lists(st.integers(min_value=0, max_value=1000), min_size=0, max_size=25),
    k=st.integers(min_value=0, max_value=10),
)
def test_query_size_and_ordering_properties(stamps, k):
    entries = [history_entry(flow_id=f"e{i}", timestamp=ts) for i, ts in enumerate(stamps)]
    store = seeded_store(entries)
    try:
        result = store.query_history("8.8.8.8", k)
        assert len(result) == min(k, len(entries))
        ordered = [e.timestamp for e in result]
        assert ordered == sorted(ordered, reverse=True)
        # an unbounded query returns every entry of the address
        everything = store.query_history("8.8.8.8", len(entries) + 1)
        assert len(everything) == store.count()
    finally:
        store.close()


ADDRESSES = ("10.0.0.1", "10.0.0.2", "10.0.0.3")


def reference_query(entries, ip, k, before=None, include_benign=True):
    """Brute-force ``query_history``: ``entries`` are in insertion order."""
    matching = [
        (entry.timestamp, position, entry)
        for position, entry in enumerate(entries)
        if ip in (entry.src_ip, entry.dst_ip)
        and (before is None or entry.timestamp < before)
        and (include_benign or entry.label != "benign")
    ]
    matching.sort(key=lambda item: item[:2], reverse=True)
    return [entry for _, _, entry in matching[:k]]


@st.composite
def history_cases(draw):
    # few addresses, stamps, labels and ids, so self-connections, tied
    # timestamps and entries of equal content are common
    entries = draw(
        st.lists(
            st.builds(
                history_entry,
                flow_id=st.sampled_from(("f0", "f1")),
                timestamp=st.integers(min_value=0, max_value=5),
                src_ip=st.sampled_from(ADDRESSES),
                dst_ip=st.sampled_from(ADDRESSES),
                label=st.sampled_from(HISTORY_LABELS),
            ),
            max_size=30,
        )
    )
    query = (
        draw(st.sampled_from(ADDRESSES)),
        draw(st.integers(min_value=0, max_value=len(entries) + 1)),
        draw(st.none() | st.integers(min_value=0, max_value=6)),
        draw(st.booleans()),
    )
    return entries, query


@settings(max_examples=300, deadline=None)
@given(case=history_cases())
def test_query_matches_brute_force_reference(case):
    entries, query = case
    store = seeded_store(entries)
    try:
        assert store.query_history(*query) == reference_query(entries, *query)
    finally:
        store.close()


@settings(max_examples=300, deadline=None)
@given(case=history_cases(), other=st.sampled_from(ADDRESSES))
def test_two_addresses_are_read_and_counted_as_each_alone(case, other):
    entries, (ip, k, before, include_benign) = case
    store = seeded_store(entries)
    try:
        ips = (ip, other)
        expected = [reference_query(entries, address, k, before, include_benign) for address in ips]
        assert store.query_histories(ips, k, before, include_benign) == expected
        assert store.count_histories(ips, k, before, include_benign) == [*map(len, expected)]
    finally:
        store.close()


@pytest.mark.parametrize("counts", [False, True], ids=["rows", "counts"])
@pytest.mark.parametrize("addresses", [1, 2])
@pytest.mark.parametrize("before", [False, True], ids=["all", "before"])
def test_reads_walk_the_endpoint_indexes_and_sort_nothing(counts, addresses, before):
    sql = _read_statement(counts, addresses, before)
    with seeded_store([history_entry()]) as store:
        plan = [row[3] for row in store._conn.execute(
            "EXPLAIN QUERY PLAN " + sql, [None] * sql.count("?")
        )]
    searches = [step for step in plan if step.startswith("SEARCH")]
    assert searches == [
        f"SEARCH flow_history USING INDEX idx_history_{column} ({column}_ip=?"
        + (" AND timestamp<?)" if before else ")")
        for _ in range(addresses) for column in ("src", "dst")
    ]
    assert not any("TEMP B-TREE" in step for step in plan), plan


class TestQueryCost:
    """A query's work is bounded by ``k``, not by the address's history depth."""

    SHALLOW, DEEP, PEER = "10.0.0.1", "10.0.0.2", "10.0.0.3"

    @pytest.fixture(scope="class")
    def store(self):
        # each address is the source of half its entries and the destination
        # of the other half; the two histories interleave in time
        entries = [
            history_entry(
                flow_id=f"e{i}",
                timestamp=i,
                src_ip=ip if i % 2 else self.PEER,
                dst_ip=self.PEER if i % 2 else ip,
            )
            for ip, depth in ((self.DEEP, 10_000), (self.SHALLOW, 100))
            for i in range(depth)
        ]
        store = seeded_store(entries)
        yield store
        store.close()

    @staticmethod
    def instructions(store, ip):
        """SQLite VM instructions spent on one k=5 query for ``ip``."""
        spent = 0

        def tick():
            nonlocal spent
            spent += 1
            return 0

        store._conn.set_progress_handler(tick, 1)
        try:
            assert len(store.query_history(ip, 5)) == 5
        finally:
            store._conn.set_progress_handler(None, 1)
        return spent

    def test_instructions_do_not_grow_with_history_depth(self, store):
        shallow = self.instructions(store, self.SHALLOW)
        deep = self.instructions(store, self.DEEP)
        assert max(shallow, deep) <= 2 * min(shallow, deep), (shallow, deep)

    def test_plan_seeks_each_endpoint_index(self, store):
        statements = []
        store._conn.set_trace_callback(statements.append)
        try:
            store.query_history(self.DEEP, 5, before=50, include_benign=False)
        finally:
            store._conn.set_trace_callback(None)
        (statement,) = statements
        plan = " | ".join(
            row[3] for row in store._conn.execute("EXPLAIN QUERY PLAN " + statement)
        )
        assert "MULTI-INDEX OR" not in plan
        assert "USING INDEX idx_history_src" in plan and "USING INDEX idx_history_dst" in plan
