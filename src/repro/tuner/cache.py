"""Memoizing cost cache for auto-tuner candidate evaluations.

Building and simulating a schedule is deterministic in the candidate
tuple (workload shape x schedule x recompute strategy x micro-batch
count x options x memory cap), so repeated sweeps -- the long-context
planner re-ranking configurations, interactive what-if loops, nested
tuner calls -- can reuse earlier evaluations instead of re-running the
discrete-event simulator.

The cache is a plain dict keyed on that tuple; entries are the raw
evaluation records (simulated metrics or the build-failure reason), so a
hit reproduces the cold result exactly.  :meth:`CostCache.open` makes it
**persistent**: it attaches a :class:`repro.tuner.store.SqliteCostStore`
(indexed lazy lookup, WAL-mode concurrent writers, 100k+ entries) that
serves lookup misses and receives every cold evaluation write-through,
so repeated CLI sweeps, concurrent processes and the planner service
share one store.  Candidate keys are stable nested tuples of primitives
(see :func:`repro.schedules.registry.workload_cache_key`).  Stores are
stamped with a cost-model source fingerprint
(:func:`costmodel_fingerprint`); opening a store written by a different
cost model warns and clears it instead of serving stale records.

:class:`CacheStats` distinguishes *memory* hits (entries evaluated or
adopted in this process) from *disk* hits (entries read off the attached
store), so a sweep can assert "zero cold evaluations" after a reopen.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterable

if TYPE_CHECKING:  # repro.tuner.store imports this module; avoid the cycle
    from repro.tuner.store import SqliteCostStore

__all__ = ["CacheStats", "CostCache", "costmodel_fingerprint"]

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
    triggers re-evaluation instead of silently serving stale disk hits.

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
    (evaluated or adopted); ``disk_hits`` counts lookups served from
    entries read off the attached store.  ``misses`` counts cold
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
    #: Keys in ``_data`` not known to be in ``store`` (adopted, held
    #: before the store was attached, or evaluated and not yet written
    #: through); the only keys :meth:`__len__` has to probe the store
    #: for, and the only ones :meth:`save` writes to it.
    _unstored: set[Hashable] = field(default_factory=set)  # guarded-by: _lock
    #: Lazy on-disk store; None for a purely in-memory cache.
    store: "SqliteCostStore | None" = None
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

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

    def entries(self) -> list[tuple[Hashable, Any]]:
        """``(key, record)`` pairs as a point-in-time snapshot list."""
        with self._lock:
            return list(self._data.items())

    # -- persistence ---------------------------------------------------------

    def save(self) -> int | None:
        """Flush to the attached store the entries it may lack.

        Evaluations are written through as they happen and fetched
        entries came off the store, so only the ``_unstored`` keys are
        upserted, in one transaction.  Returns the store's entry count,
        or None when no store is attached.
        """
        store = self.store
        if store is None:
            return None
        with self._lock:
            items = [(key, self._data[key]) for key in self._unstored]
        if items:
            store.put_many(iter(items))
            with self._lock:
                self._unstored.difference_update(key for key, _ in items)
        return len(store)

    @classmethod
    def open(cls, path: str | os.PathLike) -> "CostCache":
        """A cache attached to the sqlite store at ``path``.

        The front door of ``repro tune --cache`` and ``repro serve
        --cache``.  The store (and its parent directories) is created
        when missing, whatever the path's suffix; a file that is not a
        cost cache store raises :class:`ValueError` and is left as it
        was.
        """
        from repro.tuner.store import SqliteCostStore

        cache = cls()
        cache.attach_store(SqliteCostStore(path))
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
