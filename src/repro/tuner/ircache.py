"""LRU store of built schedule IR and per-family simulation references.

No sweep uses this class: the auto-tuner simulates every candidate in
full, with no sibling timeline references, and builds are not memoized
(the cost cache evaluates each candidate key at most once, so a build
memo under that key could never hit).  It stays only because
``planbench/launcher.py`` wraps :meth:`~ScheduleIRCache.get`,
:meth:`~ScheduleIRCache.put`, :meth:`~ScheduleIRCache.get_reference`
and :meth:`~ScheduleIRCache.put_reference` by name; deleting it waits
on a benchmark change.
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
