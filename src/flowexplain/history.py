"""Per-IP connection history store.

An embedded, append-only SQLite log with per-IP indexes. Entries are never
updated or deduplicated; queries answer "last K connections involving this
address" for the prompt augmenter. Beside the log, the store keeps the
fates of one export's malicious rows for the explain passes over it.
"""

from __future__ import annotations

import functools
import sqlite3
import threading
from contextlib import contextmanager, suppress
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

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


#: the endpoint indexes, by name
_INDEXES = {
    name: f"CREATE INDEX IF NOT EXISTS {name} ON flow_history ({column}, timestamp)"
    for name, column in (("idx_history_src", "src_ip"), ("idx_history_dst", "dst_ip"))
}

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
CREATE TABLE IF NOT EXISTS export_fates (
    slot INTEGER PRIMARY KEY CHECK (slot = 0),
    key TEXT NOT NULL,
    fates TEXT NOT NULL
);
""" + "".join(f"{index};\n" for index in _INDEXES.values())

# the fields of FlowHistoryEntry, in order
_COLUMNS = "flow_id, timestamp, src_ip, dst_ip, l4_protocol_id, label, summary"
_WIDTH = len(_EntryRow._fields)
_VALUES = "(?, ?, ?, ?, ?, ?, ?)"
_INSERT = f"INSERT INTO flow_history ({_COLUMNS}) VALUES {_VALUES}"
#: rows per statement of a bulk append: 700 parameters, under the 999 that
#: every SQLite build allows. One statement per row would cost about twice
#: as much, since each also reads and writes the AUTOINCREMENT counter.
_ROWS_PER_INSERT = 100


def _arms(select: str, where: str) -> str:
    """Both endpoint arms of a history read, joined by ``UNION ALL``.

    The source arm matches ``src_ip``; the destination arm matches
    ``dst_ip`` and leaves out the entries the source arm holds
    (``src_ip == dst_ip``), so no entry comes back twice. Each arm walks its
    ``(ip, timestamp)`` index backwards, in ``(timestamp, id)`` order as
    every index ends in the rowid, and stops after ``k`` rows; it binds the
    address, the parameters of ``where`` and ``k``.
    """
    return " UNION ALL ".join(
        f"SELECT * FROM (SELECT {select} FROM flow_history WHERE {match}{where}"
        " ORDER BY timestamp DESC, id DESC LIMIT ?)"
        for match in ("src_ip = ?", "dst_ip = ? AND src_ip != dst_ip")
    )


@functools.lru_cache(maxsize=None)
def _read_statement(counts: bool, addresses: int, before: bool) -> str:
    """The statement that reads the history of ``addresses`` addresses at once.

    Its rows are each address's index, then the entry's id and fields; or,
    with ``counts``, one row of each address's count of entries. A count
    reads its two arms through a ``LIMIT k`` of its own, so it stops once
    ``k`` entries are read and never passes ``k``: SQLite skips the
    destination arm when the source arm alone fills it.
    """
    # the bound switch keeps or drops benign entries
    where = (" AND timestamp < ?" if before else "") + " AND (? OR label != 'benign')"
    if counts:
        return "SELECT " + ", ".join(
            [f"(SELECT count(*) FROM (SELECT * FROM ({_arms('1', where)}) LIMIT ?))"] * addresses
        )
    return " UNION ALL ".join(_arms(f"{i}, id, {_COLUMNS}", where) for i in range(addresses))


def _recency(row: tuple) -> tuple:
    """A read row's place in history order: by timestamp, then by id."""
    return row[3], row[1]


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
            (row,), newest = self._stamped([entry], self._newest)
            with self._writing("append"):
                cur = self._conn.execute(_INSERT, row)
                self._enforce_cap()
            self._newest = newest
            return int(cur.lastrowid)

    def append_many(self, rows: Iterable[Sequence], replace: bool = False) -> int:
        """Bulk append of entries, or of rows that hold checked values in the
        order of an entry's fields; returns the number written.

        With ``replace`` the rows take the place of every entry (ids still
        count on from the largest ever given). The endpoint indexes are
        dropped for the load and built again after it, in the same
        transaction, so a failure leaves the store as it was.
        """
        with self._lock:
            stamped, newest = self._stamped(rows, -1 if replace else self._newest)
            with self._writing("bulk append"):
                if replace:
                    self._conn.execute("DELETE FROM flow_history")
                    for name in _INDEXES:
                        self._conn.execute(f"DROP INDEX {name}")
                for start in range(0, len(stamped), _ROWS_PER_INSERT):
                    batch = stamped[start : start + _ROWS_PER_INSERT]
                    values = ", ".join([_VALUES] * len(batch))
                    self._conn.execute(
                        f"INSERT INTO flow_history ({_COLUMNS}) VALUES {values}",
                        [*chain.from_iterable(batch)],
                    )
                self._enforce_cap()
                if replace:
                    for index in _INDEXES.values():
                        self._conn.execute(index)
            self._newest = newest
        return len(stamped)

    @contextmanager
    def _writing(self, action: str) -> Iterator[None]:
        """Commit what the block writes, or roll all of it back; a failure
        of the store raises ``StoreError``. Needs the lock."""
        try:
            yield
            self._conn.commit()
        except BaseException as exc:
            with suppress(sqlite3.Error):  # such as a closed connection
                self._conn.rollback()
            if isinstance(exc, sqlite3.Error):
                raise StoreError(f"{action} failed: {exc}") from exc
            raise

    @staticmethod
    def _stamped(rows: Iterable[Sequence], newest: int) -> tuple[list[Sequence], int]:
        """``rows`` with each missing timestamp filled in past ``newest``,
        and the newest timestamp among them and ``newest``.

        A row of another width than an entry's is a ``StoreError``: a bulk
        append binds its rows as one flat list, where it would shift the rest.
        """
        stamped = []
        for row in rows:
            if len(row) != _WIDTH:
                raise StoreError(f"bulk append failed: a row of {len(row)} values, not {_WIDTH}")
            timestamp = row[1]
            if timestamp is None:
                newest += 1
                row = (row[0], newest, *row[2:])
            elif timestamp > newest:
                newest = timestamp
            stamped.append(row)
        return stamped, newest

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
        """
        [entries] = self.query_histories((ip,), k, before, include_benign)
        return entries

    def query_histories(
        self, ips: Sequence[str], k: int, before: int | None = None, include_benign: bool = True
    ) -> list[list[FlowHistoryEntry]]:
        """:meth:`query_history` of each of ``ips``, read in one statement.

        Each address's two arms (see :func:`_arms`) read their newest ``k``
        rows straight off the endpoint indexes, and nothing is sorted in
        SQLite; the at most ``2k`` rows of each address are merged here.
        """
        histories: list[list] = [[] for _ in ips]
        for row in self._read(False, ips, k, before, include_benign):
            histories[row[0]].append(row)
        # the rows were checked when they were written, so the entries are
        # made without FlowHistoryEntry's checks
        new = tuple.__new__
        for rows in histories:
            rows.sort(key=_recency, reverse=True)
            rows[:] = [new(FlowHistoryEntry, row[2:]) for row in rows[:k]]
        return histories

    def count_histories(
        self, ips: Sequence[str], k: int, before: int | None = None, include_benign: bool = True
    ) -> list[int]:
        """``len(self.query_history(ip, k, before, include_benign))`` of each
        of ``ips``, counted in one statement that returns no entry."""
        [counts] = self._read(True, ips, k, before, include_benign)
        return list(counts)

    def _read(
        self, counts: bool, ips: Sequence[str], k: int, before: int | None,
        include_benign: bool,
    ) -> list[tuple]:
        """The rows of :func:`_read_statement` for ``ips``."""
        if k < 0:  # SQLite reads a negative LIMIT as no limit
            raise ValueError("k must be non-negative")
        arm = (include_benign, k) if before is None else (before, include_benign, k)
        limit = (k,) if counts else ()  # a count's own k, after its two arms
        parameters = [value for ip in ips for value in (ip, *arm, ip, *arm, *limit)]
        sql = _read_statement(counts, len(ips), before is not None)
        with self._lock:
            try:
                return self._conn.execute(sql, parameters).fetchall()
            except sqlite3.Error as exc:
                raise StoreError(f"query failed: {exc}") from exc

    def kept_fates(self, key: str) -> str | None:
        """The fates kept under ``key`` by :meth:`keep_fates`, if any."""
        with self._lock:
            try:
                row = self._conn.execute(
                    "SELECT fates FROM export_fates WHERE key = ?", (key,)
                ).fetchone()
            except sqlite3.Error as exc:
                raise StoreError(f"query failed: {exc}") from exc
        return None if row is None else row[0]

    def keep_fates(self, key: str, fates: str) -> None:
        """Keep the text ``fates`` of an export's rows under its ``key``, in
        place of any fates kept before: the store keeps one export's."""
        with self._lock, self._writing("keeping fates"):
            self._conn.execute(
                "INSERT OR REPLACE INTO export_fates VALUES (0, ?, ?)", (key, fates)
            )

    def count(self) -> int:
        with self._lock:
            (n,) = self._conn.execute("SELECT COUNT(*) FROM flow_history").fetchone()
        return int(n)
