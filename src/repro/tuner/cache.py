"""Memoizing cost cache for auto-tuner candidate evaluations.

Building and simulating a schedule is deterministic in the candidate
tuple (workload shape x schedule x recompute strategy x micro-batch
count x options x memory cap), so repeated sweeps -- the long-context
planner re-ranking configurations, interactive what-if loops, nested
tuner calls -- can reuse earlier evaluations instead of re-running the
discrete-event simulator.

The cache is a plain dict keyed on that candidate; entries are the raw
evaluation records (simulated metrics or the build-failure reason), so a
hit reproduces the cold result exactly.  :meth:`CostCache.open` makes it
**persistent** over a :class:`repro.tuner.store.SqliteCostStore`
(indexed lazy lookup, WAL-mode concurrent writers, 100k+ entries): a
sweep reads the store once, in one batched query for all its keys
(:meth:`CostCache.fetch_many`), and every cold evaluation is written
through, so repeated CLI sweeps, concurrent processes and the planner
service share one store and nothing is flushed at the end.  A
candidate key is a :data:`CostKey` pair of strings, (workload text,
candidate text), which the cache treats as opaque; joined, they are
the key's canonical JSON text (built by
:func:`repro.tuner.autotune._candidate_key` from
:func:`repro.schedules.registry.workload_cache_key`).  Stores are
stamped with a cost-model source fingerprint
(:func:`costmodel_fingerprint`); opening a store written by a different
cost model warns and clears it instead of serving stale records.

:class:`CacheStats` distinguishes *memory* hits (entries evaluated in
this process) from *disk* hits (entries read off the store), so a sweep
can assert "zero cold evaluations" after a reopen.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # repro.tuner.store imports this module; avoid the cycle
    from repro.tuner.store import SqliteCostStore

__all__ = ["CacheStats", "CostCache", "costmodel_fingerprint"]

#: A candidate's cost-cache key: (workload text, candidate text).  One
#: sweep's keys share one workload string; the two joined are the
#: canonical JSON text a store keeps the record under.
CostKey = tuple[str, str]

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

    ``hits`` counts lookups served from entries evaluated in-process;
    ``disk_hits`` counts lookups served from entries read off the
    store.  ``misses`` counts cold evaluations.  ``pruned`` counts
    candidates the auto-tuner's admissible lower bound skipped without
    simulating (they never touch the cache, so they appear in no other
    counter).
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


class CostCache:
    """Dict-backed memoization of candidate evaluations.

    With a :class:`~repro.tuner.store.SqliteCostStore` (:meth:`open`),
    the dict holds only records the store already has.  A record enters
    it one of two ways: from :meth:`fetch_many`, the one batched store
    read a sweep makes for all its keys, or from a cold evaluation in
    :meth:`get_or_eval` once its write-through ``put`` has returned.
    So nothing is left to flush, and :meth:`get_or_eval` and
    :meth:`peek` never touch the store.

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

    def __init__(self, store: "SqliteCostStore | None" = None) -> None:
        #: Lazy on-disk store; None for a purely in-memory cache.
        self.store = store
        self.stats = CacheStats()
        self._data: dict[CostKey, Any] = {}  # guarded-by: _lock
        #: Keys whose records came off the store (for stats only).
        self._disk_keys: set[CostKey] = set()  # guarded-by: _lock
        self._lock = threading.Lock()

    def get_or_eval(self, key: CostKey, evaluate: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, evaluating on first use.

        A cold record is written through to the store before it is held
        or counted, so a concurrent process sharing the store (another
        sweep, the planner service) can reuse it at once, and a ``put``
        that raises leaves the key unheld for the next call to evaluate.
        """
        with self._lock:
            if key in self._data:
                if key in self._disk_keys:
                    self.stats.disk_hits += 1
                else:
                    self.stats.hits += 1
                return self._data[key]
        value = evaluate()
        if self.store is not None:
            self.store.put(key, value)
        with self._lock:
            self.stats.misses += 1
            self._data[key] = value
        return value

    def peek(self, key: CostKey) -> Any:
        """Return the held value without touching the hit counters.

        No sweep calls it; tests read held records through it, and
        ``planbench/launcher.py`` wraps it by name.
        """
        with self._lock:
            return self._data[key]

    def fetch_many(self, keys: Iterable[CostKey]) -> set[CostKey]:
        """The subset of ``keys`` this cache holds, in memory or in the store.

        Keys missing from memory are read from the store in one batched
        query (:meth:`SqliteCostStore.get_many
        <repro.tuner.store.SqliteCostStore.get_many>`, run outside
        ``_lock``); the records found are loaded into memory as disk
        entries, so later :meth:`get_or_eval` calls on them are memory
        lookups.  No hit counters change.
        """
        keys = list(keys)
        with self._lock:
            held = {key for key in keys if key in self._data}
        missing = [key for key in keys if key not in held]
        if self.store is None or not missing:
            return held
        found = self.store.get_many(missing)
        with self._lock:
            for key, value in found.items():
                if key not in self._data:
                    self._data[key] = value
                    self._disk_keys.add(key)
        held.update(found)
        return held

    @classmethod
    def open(cls, path: str | os.PathLike) -> "CostCache":
        """A cache over the sqlite store at ``path``.

        The front door of ``repro tune --cache`` and ``repro serve
        --cache``.  The store (and its parent directories) is created
        when missing, whatever the path's suffix; a file that is not a
        cost cache store raises :class:`ValueError` and is left as it
        was.
        """
        from repro.tuner.store import SqliteCostStore

        return cls(SqliteCostStore(path))

    def close(self) -> None:
        """Close the store's connections (no-op without one).

        The in-memory layer stays usable; the store reconnects lazily if
        the cache is used again, so close() is safe to call from service
        shutdown even with stray in-flight requests.
        """
        if self.store is not None:
            self.store.close()

    def __len__(self) -> int:
        """Distinct entries reachable through this cache.

        Every held record is in the store, so this is the store's count,
        or the dict's size without a store.
        """
        if self.store is not None:
            return len(self.store)
        with self._lock:
            return len(self._data)

    def __contains__(self, key: CostKey) -> bool:
        with self._lock:
            if key in self._data:
                return True
        return self.store is not None and key in self.store
