"""Memoizing cost cache for auto-tuner candidate evaluations.

Building and simulating a schedule is deterministic in the candidate
tuple (workload shape x schedule x recompute strategy x micro-batch
count x options x memory cap), so repeated sweeps -- the long-context
planner re-ranking configurations, interactive what-if loops, nested
tuner calls -- can reuse earlier evaluations instead of re-running the
discrete-event simulator.

The cache is a plain dict keyed on that tuple; entries are the raw
evaluation records (simulated metrics or the build-failure reason), so a
hit reproduces the cold result exactly.  Two extensions make it a
subsystem rather than a dict:

- **Persistence** (:meth:`CostCache.save` / :meth:`CostCache.load` /
  :meth:`CostCache.open` / :meth:`CostCache.from_file`): the cache
  persists to one of two backends, selected by path suffix or an
  explicit ``backend=`` (:func:`repro.tuner.store.detect_backend`) --
  an eagerly-loaded JSON file, or a lazily-queried sqlite store
  (:class:`repro.tuner.store.SqliteCostStore`: indexed lookup, WAL-mode
  concurrent writers, 100k+ entries) that serves the planner service.
  Candidate keys are stable nested tuples of primitives (see
  :func:`repro.schedules.registry.workload_cache_key`), which round-trip
  through JSON lists losslessly on either backend.  Stores are stamped
  with a cost-model source fingerprint (:func:`costmodel_fingerprint`);
  loading a store written by a different cost model warns and discards
  it instead of serving stale records.
- **Merging** (:meth:`CostCache.merge`): adopt another cache's entries,
  which is how :func:`repro.tuner.autotune` folds its process-pool
  workers' per-worker caches back into the caller's cache on join.

:class:`CacheStats` distinguishes *memory* hits (entries evaluated or
merged in this process) from *disk* hits (entries loaded from a
persisted store), so a sweep can assert "zero cold evaluations" after a
reload.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import threading
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable

if TYPE_CHECKING:  # repro.tuner.store imports this module; avoid the cycle
    from repro.tuner.store import SqliteCostStore

__all__ = ["CacheStats", "CostCache", "costmodel_fingerprint"]

#: On-disk format marker; bump the version on incompatible changes.
_FORMAT = "repro-costcache"
_VERSION = 1

_fingerprint: str | None = None


def costmodel_fingerprint() -> str:
    """Content hash of the cost-model source the cached records depend on.

    Candidate keys capture the *workload* exactly, but a cached record
    also bakes in the code that computed it: the analytic cost models
    (:mod:`repro.costmodel`), the schedule builders and cost providers
    (:mod:`repro.schedules`, :mod:`repro.core`), the hardware and
    network models (:mod:`repro.cluster`, :mod:`repro.comm`), the model
    presets (:mod:`repro.model`), the discrete-event simulator
    (:mod:`repro.sim`) and the workload glue that prices every candidate
    (:mod:`repro.workloads`: ``Workload.costs`` and ``static_memory``).
    Persisted stores are stamped with this fingerprint so that editing
    any of those sources invalidates old stores -- a changed cost model
    triggers re-evaluation instead of silently serving stale disk hits
    (ROADMAP "cross-run cache invalidation").

    The hash is over the source files' bytes, so it is identical across
    processes and hosts running the same code, and memoized per process
    (the sources cannot change under a running interpreter in a way the
    interpreter would see anyway).
    """
    global _fingerprint
    if _fingerprint is not None:
        return _fingerprint
    # Every package whose code feeds a candidate evaluation -- including
    # this one (the evaluation/record logic lives in repro.tuner): an
    # edit anywhere in build-or-simulate must flip the stamp, or a
    # persisted store would keep serving records the edit invalidated.
    import repro.cluster
    import repro.comm
    import repro.core
    import repro.costmodel
    import repro.model
    import repro.schedules
    import repro.sim
    import repro.tuner
    import repro.workloads

    packages = (
        repro.cluster,
        repro.comm,
        repro.core,
        repro.costmodel,
        repro.model,
        repro.schedules,
        repro.sim,
        repro.tuner,
    )
    sources: list[tuple[str, str]] = []
    for pkg in packages:
        pkg_root = os.path.dirname(pkg.__file__)
        for root, dirs, files in os.walk(pkg_root):
            dirs.sort()  # deterministic walk order across filesystems
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(root, name)
                    rel = os.path.relpath(path, pkg_root)
                    sources.append((f"{pkg.__name__}/{rel}", path))
    sources.append(("repro.workloads", repro.workloads.__file__))
    digest = hashlib.sha256()
    for label, path in sources:
        digest.update(label.encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    _fingerprint = digest.hexdigest()[:16]
    return _fingerprint


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`CostCache`.

    ``hits`` counts lookups served from entries created in-process
    (evaluated, adopted or merged); ``disk_hits`` counts lookups served
    from entries loaded off a persisted store.  ``misses`` counts cold
    evaluations.  ``pruned`` counts candidates the auto-tuner's
    admissible lower bound skipped without simulating (they never touch
    the cache, so they appear in no other counter).
    """

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    pruned: int = 0

    @property
    def total_hits(self) -> int:
        return self.hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.total_hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.total_hits / self.lookups if self.lookups else 0.0

    def __str__(self) -> str:
        disk = f" ({self.disk_hits} from disk)" if self.disk_hits else ""
        pruned = f" / {self.pruned} pruned" if self.pruned else ""
        return f"{self.total_hits} hits{disk} / {self.misses} misses{pruned}"


def _freeze(value: Any) -> Any:
    """Recursively turn JSON lists back into the tuples keys are made of."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


@dataclass
class CostCache:
    """Dict-backed memoization of candidate evaluations.

    With a :class:`~repro.tuner.store.SqliteCostStore` attached
    (:meth:`open` / :meth:`attach_store`), the dict becomes a hot layer
    over the lazy on-disk store: lookups fall through to one indexed
    sqlite query (a sweep reads all its keys at once through
    :meth:`fetch_many`), fetched entries count as disk hits, and cold
    evaluations write through so concurrent processes sharing the store
    see them immediately.

    The cache is thread-safe: the threaded planner service shares one
    instance between request handlers and background sweeps.  ``_lock``
    guards the in-memory layer only and is never held across store I/O
    or candidate evaluation -- a lookup snapshots what it needs, does
    the slow work unlocked, and re-acquires to publish.  Two threads
    racing the same cold key may therefore both evaluate it; the
    evaluation is deterministic in the key, so both arrive at the same
    record and last-write-wins is harmless (the service's ``_eval_lock``
    serializes sweeps anyway).
    """

    _data: dict[Hashable, Any] = field(default_factory=dict)  # guarded-by: _lock
    stats: CacheStats = field(default_factory=CacheStats)
    #: Keys whose entries came off a persisted store (for stats only).
    _disk_keys: set[Hashable] = field(default_factory=set)  # guarded-by: _lock
    #: Keys in ``_data`` not known to be in ``store`` (adopted, merged,
    #: JSON-loaded, held before the store was attached, or evaluated and
    #: not yet written through); the only keys :meth:`__len__` has to
    #: probe the store for, and the only ones :meth:`save` writes to it.
    _unstored: set[Hashable] = field(default_factory=set)  # guarded-by: _lock
    #: Lazy on-disk backend; None for a purely in-memory (or JSON) cache.
    store: "SqliteCostStore | None" = None
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __getstate__(self) -> dict[str, Any]:
        # Worker processes return their local cache across the pool;
        # locks do not pickle, so the receiving side gets a fresh one.
        state = dict(self.__dict__)
        state.pop("_lock", None)
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def get_or_eval(self, key: Hashable, evaluate: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, evaluating on first use."""
        with self._lock:
            if key in self._data:
                value = self._data[key]
                if key in self._disk_keys:
                    self.stats.disk_hits += 1
                else:
                    self.stats.hits += 1
                return value
            store = self.store
        if store is not None:
            value = store.get(key)
            if value is not None:
                with self._lock:
                    self._data[key] = value
                    self._disk_keys.add(key)
                    self.stats.disk_hits += 1
                return value
        value = evaluate()
        with self._lock:
            self.stats.misses += 1
            self._data[key] = value
            if store is not None:
                self._unstored.add(key)
        if store is not None:
            # Write-through: a concurrent process sharing the store
            # (another sweep, the planner service) can reuse this
            # evaluation without waiting for an explicit save().  The
            # key stays unstored until the put returns, so a save()
            # after a failed put still writes it.
            store.put(key, value)
            with self._lock:
                self._unstored.discard(key)
        return value

    def peek(self, key: Hashable) -> Any:
        """Return the cached value without touching the hit counters."""
        with self._lock:
            if key in self._data:
                return self._data[key]
            store = self.store
        if store is not None:
            value = store.get(key)
            if value is not None:
                with self._lock:
                    self._data[key] = value
                    self._disk_keys.add(key)
                return value
        raise KeyError(key)

    def fetch_many(self, keys: Iterable[Hashable]) -> set[Hashable]:
        """The subset of ``keys`` this cache holds, in memory or in the store.

        Keys missing from memory are read from an attached store in one
        batched query (:meth:`SqliteCostStore.get_many
        <repro.tuner.store.SqliteCostStore.get_many>`, run outside
        ``_lock``); the records found are loaded into memory as disk
        entries, so later :meth:`get_or_eval` calls on them are memory
        lookups.  No hit counters change.
        """
        keys = list(keys)
        with self._lock:
            held = {key for key in keys if key in self._data}
            store = self.store
        missing = [key for key in keys if key not in held]
        if store is None or not missing:
            return held
        found = store.get_many(missing)
        with self._lock:
            for key, value in found.items():
                if key not in self._data:
                    self._data[key] = value
                    self._disk_keys.add(key)
        held.update(found)
        return held

    def adopt(self, key: Hashable, value: Any) -> None:
        """Insert an externally-evaluated entry (no stats recorded)."""
        with self._lock:
            self._data[key] = value
            self._unstored.add(key)

    def _snapshot(self) -> tuple[dict[Hashable, Any], set[Hashable]]:
        """Consistent copy of the in-memory layer and its disk-key set."""
        with self._lock:
            return dict(self._data), set(self._disk_keys)

    def merge(self, other: "CostCache") -> int:
        """Adopt ``other``'s entries this cache lacks; returns the count.

        Existing entries win (both caches evaluated the same
        deterministic function, so the records agree; keeping ours
        preserves this cache's disk-origin bookkeeping).  Disk-origin
        bookkeeping *carries over* for adopted entries: an entry that
        came off a persisted store in ``other`` (e.g. a per-worker cache
        that pre-loaded a shard) keeps counting as a disk hit here, so
        the memory/disk stats split stays honest across merges.
        """
        data, disk_keys = other._snapshot()
        added = 0
        with self._lock:
            for key, value in data.items():
                if key not in self._data:
                    self._data[key] = value
                    self._unstored.add(key)
                    if key in disk_keys:
                        self._disk_keys.add(key)
                    added += 1
        return added

    def entries(self) -> list[tuple[Hashable, Any]]:
        """``(key, record)`` pairs as a point-in-time snapshot list."""
        with self._lock:
            return list(self._data.items())

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | os.PathLike, backend: str | None = None) -> int:
        """Persist every in-memory entry to ``path``; returns a count.

        The backend follows the path suffix unless ``backend`` says
        otherwise (:func:`repro.tuner.store.detect_backend`).  On the
        sqlite backend the entries are upserted into the store (created
        if missing) in one transaction and the return value is the
        store's total entry count; when ``path`` is the attached store,
        only the entries it may lack (``_unstored``) are upserted.  On
        the JSON backend the whole store is rewritten and the return
        value is this cache's entry count.
        Missing parent directories are created either way, so saving to
        ``new/dir/store.json`` works instead of dying inside
        ``mkstemp`` with a raw :class:`FileNotFoundError`.

        The JSON write goes through a uniquely-named temp file +
        rename, so a crash mid-save never truncates an existing store
        and concurrent writers to the same path cannot interleave -- the
        last complete save wins atomically.  The temp file is created
        with mode ``0o666`` and the kernel applies the process umask to
        it like any ordinary file; no ``os.umask`` probe, which would
        mutate process-global state and race under threads (exactly the
        threaded planner-service case).
        """
        path = os.fspath(path)
        from repro.tuner.store import SqliteCostStore, detect_backend

        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        if detect_backend(path, backend) == "sqlite":
            store = self.store
            if store is not None and os.path.abspath(
                store.path
            ) == os.path.abspath(path):
                # Fetched and written-through entries are there already.
                with self._lock:
                    items = [(key, self._data[key]) for key in self._unstored]
                if items:
                    store.put_many(iter(items))
                    with self._lock:
                        self._unstored.difference_update(key for key, _ in items)
                return len(store)
            store = SqliteCostStore(path)
            store.put_many(iter(self.entries()))
            return len(store)
        items = self.entries()  # snapshot; the file I/O below runs unlocked
        payload = {
            "format": _FORMAT,
            "version": _VERSION,
            "costmodel": costmodel_fingerprint(),
            "entries": [[key, value] for key, value in items],
        }
        base = os.path.basename(path)
        for _ in range(64):
            tmp = os.path.join(
                parent or ".", f"{base}.{secrets.token_hex(8)}.tmp"
            )
            try:
                fd = os.open(
                    tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666
                )
            except FileExistsError:  # pragma: no cover - 64-bit collision
                continue
            break
        else:  # pragma: no cover - practically unreachable
            raise RuntimeError(f"could not create a temp file next to {path!r}")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return len(items)

    def load(self, path: str | os.PathLike, backend: str | None = None) -> int:
        """Make the entries persisted at ``path`` available; returns a count.

        On the sqlite backend (path suffix or explicit ``backend``) the
        store is *attached*, not read: lookups fall through to indexed
        queries lazily, and the return value is the store's entry count.
        On the JSON backend every entry is merged into memory and the
        count of newly-added entries is returned.

        Entries already present in memory are kept (and stay counted as
        memory hits); loaded/attached ones count as disk hits when
        looked up.  Raises :class:`ValueError` on a file that is not a
        cost cache store, so a typo'd path fails loudly instead of
        silently starting cold, and :class:`FileNotFoundError` when
        there is no file at all.

        A store whose cost-model fingerprint (see
        :func:`costmodel_fingerprint`) does not match the running code
        -- including stores from before stamping existed -- is *stale*:
        its records were computed by a different cost model, so serving
        them would silently skew every sweep.  Loading one warns and
        discards it (returns 0); the next :meth:`save` re-stamps the
        path with freshly-evaluated entries.
        """
        from repro.tuner.store import (
            SqliteCostStore,
            detect_backend,
            is_sqlite_file,
        )

        if detect_backend(path, backend) == "sqlite":
            self.attach_store(SqliteCostStore(path, create=False))
            return len(self.store)
        if is_sqlite_file(path):
            raise ValueError(
                f"{os.fspath(path)!r} is a sqlite cost cache store; load "
                "it with backend='sqlite' (or give it a .sqlite suffix)"
            )
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if (
            not isinstance(payload, dict)
            or payload.get("format") != _FORMAT
        ):
            raise ValueError(f"{os.fspath(path)!r} is not a cost cache store")
        if payload.get("version") != _VERSION:
            raise ValueError(
                f"{os.fspath(path)!r}: unsupported cost cache version "
                f"{payload.get('version')!r} (expected {_VERSION})"
            )
        stamped = payload.get("costmodel")
        current = costmodel_fingerprint()
        if stamped != current:
            warnings.warn(
                f"{os.fspath(path)!r}: cost cache stamped with cost-model "
                f"fingerprint {stamped!r} but the running code is {current!r};"
                " discarding the store (its records were computed by a"
                " different cost model and will be re-evaluated)",
                stacklevel=2,
            )
            return 0
        added = 0
        with self._lock:
            for raw_key, value in payload["entries"]:
                key = _freeze(raw_key)
                if key not in self._data:
                    self._data[key] = value
                    self._disk_keys.add(key)
                    self._unstored.add(key)
                    added += 1
        return added

    @classmethod
    def from_file(cls, path: str | os.PathLike, backend: str | None = None) -> "CostCache":
        """A fresh cache pre-populated from a persisted store."""
        cache = cls()
        cache.load(path, backend=backend)
        return cache

    @classmethod
    def open(cls, path: str | os.PathLike, backend: str | None = None) -> "CostCache":
        """A cache bound to the store at ``path``, created when missing.

        The create-if-missing front door the CLI and the planner service
        use: a sqlite path attaches a (possibly fresh)
        :class:`~repro.tuner.store.SqliteCostStore` for lazy lookup and
        write-through; a JSON path loads the file when it exists and
        otherwise starts empty, to be written by the next :meth:`save`.
        """
        from repro.tuner.store import SqliteCostStore, detect_backend

        cache = cls()
        if detect_backend(path, backend) == "sqlite":
            cache.attach_store(SqliteCostStore(path, create=True))
        elif os.path.exists(path):
            cache.load(path, backend="json")
        return cache

    def attach_store(self, store: "SqliteCostStore") -> None:
        """Serve lookup misses from ``store`` and write evaluations through."""
        with self._lock:
            self.store = store
            # Nothing held so far is known to be in the new store.
            self._unstored = set(self._data)

    def close(self) -> None:
        """Close an attached store's connections (no-op without one).

        The in-memory layer stays usable; the store reconnects lazily if
        the cache is used again, so close() is safe to call from service
        shutdown even with stray in-flight requests.
        """
        store = self.store
        if store is not None:
            store.close()

    def clear(self) -> None:
        """Drop the in-memory layer (an attached store is left untouched)."""
        with self._lock:
            self._data.clear()
            self._disk_keys.clear()
            self._unstored.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        """Distinct entries reachable through this cache (memory + store)."""
        # Evaluated entries are written through and fetched ones came off
        # the store, so only the _unstored keys can be memory-only; probe
        # just those, outside _lock, so nothing is counted twice.
        with self._lock:
            store = self.store
            if store is None:
                return len(self._data)
            unstored = list(self._unstored)
        extra = sum(1 for key in unstored if key not in store)
        return len(store) + extra

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            if key in self._data:
                return True
            store = self.store
        return store is not None and key in store
