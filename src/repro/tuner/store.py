"""Sqlite cost-cache store: lazy, indexed, concurrent-writer safe.

:class:`SqliteCostStore` is the one persisted form of a
:class:`repro.tuner.cache.CostCache`.  It serves the planner service,
where one long-running process answers plan queries from a cache that
grows past 100k entries while background sweeps and out-of-process
tuners keep appending, and it carries a CLI sweep's evaluations from one
run to the next:

- **Lazy, indexed lookup** -- entries stay on disk, and a whole sweep's
  candidates are read in one batched query against the primary-key
  index (:meth:`SqliteCostStore.get_many`), not a full-store parse.
  A cache never reads the store per key.
- **Concurrent writers** -- WAL journal mode plus a generous busy
  timeout let several processes (CLI sweeps, planner services) write the
  same store without corrupting it; records are deterministic in their
  key, so last-writer-wins is conflict-free.
- **Fingerprint stamping** -- a ``meta`` table carries the cost-model
  source fingerprint (:func:`repro.tuner.cache.costmodel_fingerprint`);
  opening a store stamped by different code warns and clears it instead
  of serving records a cost-model edit invalidated.

:meth:`CostCache.open <repro.tuner.cache.CostCache.open>` is the front
door that builds a cache over a store, whatever the path's suffix.  The
cache writes every cold evaluation through with
:meth:`SqliteCostStore.put`, so there is nothing to flush.  A file that
is not a cost cache store is refused with a :class:`ValueError` and
left as it was.

A key is a :data:`~repro.tuner.cache.CostKey` pair of strings,
(workload text, candidate text), already encoded by the tuner; the
store writes the two joined to the ``TEXT PRIMARY KEY`` column.  A
nested-tuple key, the form earlier versions encoded here, raises.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import warnings
import weakref
from typing import Any, Iterable, Iterator

from repro.tuner.cache import CostKey, costmodel_fingerprint

__all__ = ["SqliteCostStore"]

#: ``meta`` table format marker; bump the version on incompatible changes.
_FORMAT = "repro-costcache-sqlite"
_VERSION = 1

#: Keys per ``IN (...)`` query in :meth:`SqliteCostStore.get_many`,
#: below sqlite's historical 999 bound-parameter limit.
_GET_MANY_CHUNK = 500


def _key_text(key: CostKey) -> str:
    """The stored text of a (workload text, candidate text) key."""
    workload, candidate = key
    return workload + candidate


class SqliteCostStore:
    """One cost-cache store backed by a sqlite database file.

    Connections are per-thread (sharing one sqlite3 connection between
    threads would serialize and interleave cursors), created lazily and
    configured for WAL + a 30 s busy timeout, so the store object itself
    can be shared by the threaded planner service.  Every write commits
    immediately -- a crash never loses more than the in-flight record,
    and concurrent processes see each other's entries as soon as they
    land.

    Every connection is also registered in ``_all_conns`` (tagged with
    a weak reference to its owning thread) so :meth:`close` can close
    *all* of them from whatever thread shutdown runs on -- per-thread
    connections that only died with their thread's GC leaked one fd per
    retired HTTP handler thread under long-running ``repro serve``.
    Connections whose owner thread has exited are pruned (and closed)
    whenever a new connection registers, bounding the registry to the
    live-thread count.  A generation counter makes close-then-reuse
    safe: threads whose cached connection predates the last close()
    reconnect lazily instead of using a closed handle.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        path = os.fspath(path)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self.path = path
        self._local = threading.local()
        self._conns_lock = threading.Lock()
        #: (owner-thread weakref, connection) pairs, one per live thread.
        self._all_conns: list = []  # guarded-by: _conns_lock
        self._gen = 0  # guarded-by: _conns_lock
        try:
            self._init_schema()
        except BaseException:
            # A refused file must not stay open until the next GC.
            self.close()
            raise

    # -- connections -----------------------------------------------------

    @property
    def _conn(self) -> sqlite3.Connection:
        with self._conns_lock:
            gen = self._gen
        conn = getattr(self._local, "conn", None)
        if conn is not None and getattr(self._local, "gen", None) == gen:
            return conn
        # check_same_thread=False lets close() (and the dead-owner prune
        # below) close this connection from another thread; this thread
        # still never *uses* another thread's connection.  The pragmas
        # run before registration so no lock is held across sqlite I/O.
        conn = sqlite3.connect(self.path, timeout=30.0, check_same_thread=False)
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
        except sqlite3.Error:
            conn.close()  # not registered yet, so close() would miss it
            raise
        owner = weakref.ref(threading.current_thread())
        with self._conns_lock:
            gen = self._gen
            live, dead = [], []
            for ref, registered in self._all_conns:
                thread = ref()
                if thread is None or not thread.is_alive():
                    dead.append(registered)
                else:
                    live.append((ref, registered))
            live.append((owner, conn))
            self._all_conns = live
        self._local.conn = conn
        self._local.gen = gen
        for stale in dead:  # close outside the lock; owners are gone
            try:
                stale.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass
        return conn

    def close(self) -> None:
        """Close every connection the store has open, from any thread.

        Threads still using the store reconnect lazily (their cached
        connection's generation is stale), so a racing in-flight request
        degrades to a reconnect instead of an error on a closed handle.
        """
        with self._conns_lock:
            conns = [conn for _, conn in self._all_conns]
            self._all_conns = []
            self._gen += 1
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - close is best-effort
                pass

    # -- schema / stamping ------------------------------------------------

    def _init_schema(self) -> None:
        try:
            conn = self._conn
            tables = {
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
            if tables and "meta" not in tables:
                # A valid sqlite file, but somebody else's schema --
                # refuse to graft our tables onto it.
                raise ValueError(
                    f"{self.path!r} is a sqlite database but not a cost "
                    f"cache store (tables: {sorted(tables)})"
                )
            with conn:
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS meta "
                    "(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
                )
                conn.execute(
                    "CREATE TABLE IF NOT EXISTS entries "
                    "(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
                )
        except sqlite3.DatabaseError as err:
            raise ValueError(
                f"{self.path!r} is not a sqlite cost cache store ({err})"
            ) from None
        meta = dict(conn.execute("SELECT key, value FROM meta"))
        current = costmodel_fingerprint()
        if not meta:
            with conn:
                conn.executemany(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    [
                        ("format", _FORMAT),
                        ("version", str(_VERSION)),
                        ("costmodel", current),
                    ],
                )
            return
        if meta.get("format") != _FORMAT:
            raise ValueError(
                f"{self.path!r} is not a sqlite cost cache store "
                f"(format {meta.get('format')!r})"
            )
        if meta.get("version") != str(_VERSION):
            raise ValueError(
                f"{self.path!r}: unsupported sqlite cost cache version "
                f"{meta.get('version')!r} (expected {_VERSION})"
            )
        stamped = meta.get("costmodel")
        if stamped != current:
            # Records computed by a different cost model are stale.
            # Clearing + restamping keeps the file usable in place --
            # every concurrent writer runs the same code, so they agree
            # on the new stamp.
            warnings.warn(
                f"{self.path!r}: sqlite cost cache stamped with cost-model "
                f"fingerprint {stamped!r} but the running code is "
                f"{current!r}; clearing the store (its records were "
                "computed by a different cost model)",
                stacklevel=3,
            )
            with conn:
                conn.execute("DELETE FROM entries")
                conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
                    ("costmodel", current),
                )

    # -- entries ----------------------------------------------------------

    def get(self, key: CostKey) -> Any | None:
        """The record stored under ``key``, or None (one indexed query)."""
        row = self._conn.execute(
            "SELECT value FROM entries WHERE key = ?", (_key_text(key),)
        ).fetchone()
        return None if row is None else json.loads(row[0])

    def get_many(self, keys: Iterable[CostKey]) -> dict[CostKey, Any]:
        """The stored records among ``keys``, as ``{key: record}``.

        One ``IN (...)`` query per :data:`_GET_MANY_CHUNK` keys instead
        of one point query per key; absent keys are simply missing from
        the result.
        """
        by_text = {_key_text(key): key for key in keys}
        texts = list(by_text)
        found: dict[CostKey, Any] = {}
        conn = self._conn
        for start in range(0, len(texts), _GET_MANY_CHUNK):
            chunk = texts[start:start + _GET_MANY_CHUNK]
            marks = ",".join("?" * len(chunk))
            for key_text, value_text in conn.execute(
                f"SELECT key, value FROM entries WHERE key IN ({marks})", chunk
            ):
                found[by_text[key_text]] = json.loads(value_text)
        return found

    def put(self, key: CostKey, record: Any) -> None:
        """Insert or replace one record (committed immediately)."""
        with self._conn as conn:
            conn.execute(
                "INSERT OR REPLACE INTO entries (key, value) VALUES (?, ?)",
                (_key_text(key), json.dumps(record, separators=(",", ":"))),
            )

    def put_many(self, entries: Iterator[tuple[CostKey, Any]]) -> int:
        """Insert or replace a batch in one transaction; returns the count."""
        rows = [
            (_key_text(key), json.dumps(record, separators=(",", ":")))
            for key, record in entries
        ]
        if rows:
            with self._conn as conn:
                conn.executemany(
                    "INSERT OR REPLACE INTO entries (key, value) "
                    "VALUES (?, ?)",
                    rows,
                )
        return len(rows)

    def __contains__(self, key: CostKey) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM entries WHERE key = ?", (_key_text(key),)
        ).fetchone()
        return row is not None

    def __len__(self) -> int:
        return int(
            self._conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
        )
