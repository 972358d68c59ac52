"""Per-call store of the auto-tuner's sibling simulation references.

Each :func:`repro.tuner.autotune` call, and each pool worker's chunk,
owns one :class:`ScheduleIRCache` and uses only its per-*family* half:
the first simulated member of a candidate family (same key minus the
recompute strategy) records a :class:`~repro.sim.incremental.SimReference`,
and its siblings resume that timeline prefix
(:func:`~repro.sim.incremental.resimulate`).  The cache dies with the
call, so nothing it holds outlives the sweep.

The built-IR half (:meth:`~ScheduleIRCache.get`/:meth:`~ScheduleIRCache.put`)
has no caller in the tuner: the cost cache evaluates each candidate key
at most once, so a build memo under that key could never hit.  The
benchmark's span launcher still wraps both methods by name.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.schedules.ir import Schedule
from repro.sim.incremental import SimReference

__all__ = ["ScheduleIRCache"]


class ScheduleIRCache:
    """LRU cache of built schedule IR plus per-family sim references.

    ``max_schedules`` / ``max_references`` bound memory: a built helix
    schedule holds a few thousand instruction objects, a recorded
    reference additionally holds its checkpoints, so references get the
    smaller default budget.
    """

    def __init__(self, max_schedules: int = 128, max_references: int = 32) -> None:
        if max_schedules < 1 or max_references < 1:
            raise ValueError("cache bounds must be >= 1")
        self.max_schedules = max_schedules
        self.max_references = max_references
        self._schedules: OrderedDict[tuple, Schedule] = OrderedDict()
        self._references: OrderedDict[tuple, SimReference] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.reference_hits = 0
        self.reference_misses = 0

    # -- built IR --------------------------------------------------------

    def get(self, key: tuple) -> Schedule | None:
        sched = self._schedules.get(key)
        if sched is None:
            self.misses += 1
            return None
        self._schedules.move_to_end(key)
        self.hits += 1
        return sched

    def put(self, key: tuple, schedule: Schedule) -> None:
        store = self._schedules
        store[key] = schedule
        store.move_to_end(key)
        while len(store) > self.max_schedules:
            store.popitem(last=False)

    # -- per-family simulation references --------------------------------

    def get_reference(self, family: tuple) -> SimReference | None:
        ref = self._references.get(family)
        if ref is None:
            self.reference_misses += 1
            return None
        self._references.move_to_end(family)
        self.reference_hits += 1
        return ref

    def put_reference(self, family: tuple, reference: SimReference) -> None:
        store = self._references
        store[family] = reference
        store.move_to_end(family)
        while len(store) > self.max_references:
            store.popitem(last=False)

    # -- bookkeeping -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._schedules)

    def clear(self) -> None:
        self._schedules.clear()
        self._references.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScheduleIRCache(schedules={len(self._schedules)}, "
            f"references={len(self._references)}, hits={self.hits}, "
            f"misses={self.misses})"
        )
