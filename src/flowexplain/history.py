"""Per-IP connection history store.

An embedded, append-only SQLite log with per-IP indexes. Entries are never
updated or deduplicated; queries answer "last K connections involving this
address" for the prompt augmenter.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError
from .flows import checked_address

HISTORY_LABELS = ("benign", "malicious", "unlabeled")


class StoreError(InputError, RuntimeError):
    """Raised when the persistent store itself fails."""


class _EntryRow(NamedTuple):
    flow_id: str
    timestamp: int | None
    src_ip: str
    dst_ip: str
    l4_protocol_id: int
    label: str
    summary: str


class FlowHistoryEntry(_EntryRow):
    """One observed flow, indexed by both of its endpoint addresses.

    An entry is the store row it is written as; the constructor checks
    its values. An entry appended with no ``timestamp`` is stamped by the
    store.
    """

    __slots__ = ()

    def __new__(
        cls,
        flow_id: str,
        timestamp: int | None,
        src_ip: str,
        dst_ip: str,
        l4_protocol_id: int,
        label: str,
        summary: str,
    ) -> "FlowHistoryEntry":
        for field_name, ip in (("src_ip", src_ip), ("dst_ip", dst_ip)):
            try:
                checked_address(ip)
            except ValueError:
                raise ValueError(f"{field_name} is not a valid address: {ip!r}") from None
        if not 0 <= l4_protocol_id <= 255:
            raise ValueError(f"l4_protocol_id out of range: {l4_protocol_id}")
        if label not in HISTORY_LABELS:
            raise ValueError(f"label must be one of {HISTORY_LABELS}, got {label!r}")
        return super().__new__(
            cls, flow_id, timestamp, src_ip, dst_ip, l4_protocol_id, label, summary
        )


_SCHEMA = """
CREATE TABLE IF NOT EXISTS flow_history (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    flow_id TEXT NOT NULL,
    timestamp INTEGER NOT NULL,
    src_ip TEXT NOT NULL,
    dst_ip TEXT NOT NULL,
    l4_protocol_id INTEGER NOT NULL,
    label TEXT NOT NULL,
    summary TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_history_src ON flow_history (src_ip, timestamp);
CREATE INDEX IF NOT EXISTS idx_history_dst ON flow_history (dst_ip, timestamp);
"""

# the fields of FlowHistoryEntry, in order
_COLUMNS = "flow_id, timestamp, src_ip, dst_ip, l4_protocol_id, label, summary"
_INSERT = f"INSERT INTO flow_history ({_COLUMNS}) VALUES (?, ?, ?, ?, ?, ?, ?)"


def _newest_k(where: str) -> str:
    """The union of the newest-``k`` arms of both endpoint indexes.

    Each arm binds the address, the parameters of ``where`` and ``k``; the
    union binds ``k`` once more.
    """
    newest_k = "ORDER BY timestamp DESC, id DESC LIMIT ?"
    return " UNION ".join(
        f"SELECT * FROM (SELECT id, {_COLUMNS} FROM flow_history"
        f" WHERE {column} = ?{where} {newest_k})"
        for column in ("src_ip", "dst_ip")
    ) + f" {newest_k}"


# the bound switch keeps or drops benign entries
_QUERY = _newest_k(" AND (? OR label != 'benign')")
_QUERY_BEFORE = _newest_k(" AND timestamp < ? AND (? OR label != 'benign')")


class FlowHistoryStore:
    """Append-only flow log, queryable by endpoint address.

    A single writer is serialized through an internal lock; readers see a
    consistent snapshot (appends are atomic transactions). ``max_entries``
    optionally caps the log, evicting oldest rows. An entry appended without
    a timestamp gets one past the newest timestamp this store has held, so
    stamped entries stay in order across eviction and concurrent appends.
    """

    def __init__(self, path: str | Path = ":memory:", max_entries: int | None = None):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be at least 1, got {max_entries}")
        self.path = str(path)
        self.max_entries = max_entries
        self._lock = threading.RLock()
        try:
            self._conn = sqlite3.connect(self.path, check_same_thread=False)
            # a commit appends to the write-ahead log instead of writing and
            # deleting a rollback journal; synchronous stays FULL, so a commit
            # that returned survives a power loss. In-memory stores ignore it.
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.executescript(_SCHEMA)
            self._conn.commit()
            (newest,) = self._conn.execute("SELECT MAX(timestamp) FROM flow_history").fetchone()
        except sqlite3.Error as exc:
            raise StoreError(f"cannot open history store at {self.path}: {exc}") from exc
        # kept up to date by every append, so stamping never scans the table
        self._newest: int = -1 if newest is None else newest

    def __enter__(self) -> "FlowHistoryStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def append(self, entry: FlowHistoryEntry) -> int:
        """Persist one entry; returns its insertion id."""
        with self._lock:
            try:
                cur = self._conn.execute(_INSERT, self._stamped([entry])[0])
                self._enforce_cap()
                self._conn.commit()
                return int(cur.lastrowid)
            except sqlite3.Error as exc:
                raise StoreError(f"append failed: {exc}") from exc

    def append_many(self, rows: Iterable[Sequence]) -> int:
        """Bulk append of entries, or of rows that hold checked values in the
        order of an entry's fields; returns the number written."""
        with self._lock:
            stamped = self._stamped(rows)
            try:
                self._conn.executemany(_INSERT, stamped)
                self._enforce_cap()
                self._conn.commit()
            except sqlite3.Error as exc:
                raise StoreError(f"bulk append failed: {exc}") from exc
        return len(stamped)

    def _stamped(self, rows: Iterable[Sequence]) -> list[Sequence]:
        """``rows`` with each missing timestamp filled in; needs the lock."""
        newest = self._newest
        stamped = []
        for row in rows:
            timestamp = row[1]
            if timestamp is None:
                newest += 1
                row = (row[0], newest, *row[2:])
            elif timestamp > newest:
                newest = timestamp
            stamped.append(row)
        self._newest = newest
        return stamped

    def _enforce_cap(self) -> None:
        if self.max_entries is None:
            return
        (count,) = self._conn.execute("SELECT COUNT(*) FROM flow_history").fetchone()
        excess = count - self.max_entries
        if excess > 0:
            self._conn.execute(
                "DELETE FROM flow_history WHERE id IN "
                "(SELECT id FROM flow_history ORDER BY id LIMIT ?)",
                (excess,),
            )

    def query_history(
        self, ip: str, k: int, before: int | None = None, include_benign: bool = True
    ) -> list[FlowHistoryEntry]:
        """The ``k`` most recent entries touching ``ip``, newest first.

        Ties on timestamp are broken by reverse insertion order. ``before``
        keeps only entries stamped strictly earlier; ``include_benign=False``
        drops benign entries.

        Each endpoint arm walks its ``(ip, timestamp)`` index backwards, in
        ``(timestamp, id)`` order as every index ends in the rowid, and stops
        after ``k`` rows; only the at most ``2k`` rows of the union are
        sorted. ``id`` is selected so that ``UNION`` merges only an entry
        found by both arms (``src_ip == dst_ip``), never distinct entries of
        equal content.
        """
        if k < 0:  # SQLite reads a negative LIMIT as no limit
            raise ValueError("k must be non-negative")
        if before is None:
            sql, arm = _QUERY, (ip, include_benign, k)
        else:
            sql, arm = _QUERY_BEFORE, (ip, before, include_benign, k)
        with self._lock:
            try:
                rows = self._conn.execute(sql, (*arm, *arm, k)).fetchall()
            except sqlite3.Error as exc:
                raise StoreError(f"query failed: {exc}") from exc
        # the rows were checked when they were written, so the entries are
        # made without FlowHistoryEntry's checks
        new = tuple.__new__
        return [new(FlowHistoryEntry, row[1:]) for row in rows]

    def count(self) -> int:
        with self._lock:
            (n,) = self._conn.execute("SELECT COUNT(*) FROM flow_history").fetchone()
        return int(n)

    def clear(self) -> None:
        """Drop all entries (used when re-bootstrapping from a dataset)."""
        with self._lock:
            try:
                self._conn.execute("DELETE FROM flow_history")
                self._conn.commit()
                self._newest = -1
            except sqlite3.Error as exc:
                raise StoreError(f"clear failed: {exc}") from exc
