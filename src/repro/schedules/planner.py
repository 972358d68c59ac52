"""Deterministic list scheduling over pipeline task DAGs.

Schedule builders that cannot write down a closed-form per-stage order
(HelixPipe's multi-loop FILO, interleaved pipelines) describe their work
as a task DAG -- each task pinned to a stage with a priority key -- and
derive the per-stage instruction order from a work-conserving greedy
simulation: whenever a stage is free it starts its ready task with the
smallest key.  Ties and event order are fully deterministic.

This mirrors what a static pipeline runtime does when turning a logical
schedule into per-rank operation streams.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any

__all__ = ["PlannedTask", "list_schedule"]


@dataclass
class PlannedTask:
    """One schedulable unit pinned to a stage."""

    tid: int
    stage: int
    key: tuple
    duration: float
    deps: list[int]
    payload: Any = None
    undone_deps: int = field(default=0, repr=False)
    start: float = field(default=0.0, repr=False)


def list_schedule(tasks: list[PlannedTask], num_stages: int) -> list[list[PlannedTask]]:
    """Greedy work-conserving schedule; returns per-stage task order.

    Raises ``RuntimeError`` if the DAG has a cycle (not all tasks become
    ready).

    The builders call this once per candidate schedule, which puts it on
    the auto-tuner's cold path, so the implementation works on dense
    arrays: tasks addressed by list index, dependency counts and
    adjacency in parallel lists, and the per-event stage scan inlined
    with its guard first (most stages are busy or have nothing ready at
    any given event, so the common case is two list reads).  Event
    sequence numbers -- and therefore every tie-break -- are identical
    to the original dict-based implementation.
    """
    n = len(tasks)
    index = {t.tid: i for i, t in enumerate(tasks)}
    ndeps = [0] * n
    dependents: list[list[int]] = [[] for _ in range(n)]
    for i, t in enumerate(tasks):
        nd = len(t.deps)
        t.undone_deps = nd
        ndeps[i] = nd
        for d in t.deps:
            dependents[index[d]].append(i)
    heappush, heappop = heapq.heappush, heapq.heappop
    ready: list[list[tuple]] = [[] for _ in range(num_stages)]
    for i, t in enumerate(tasks):
        if ndeps[i] == 0:
            heappush(ready[t.stage], (t.key, t.tid, i))
    stage_free = [0.0] * num_stages
    events: list[tuple[float, int, int]] = []
    seq = 0
    order: list[list[PlannedTask]] = [[] for _ in range(num_stages)]
    scheduled = 0
    stages = range(num_stages)

    now = 0.0
    while True:
        # Start the ready task with the smallest key on every free
        # stage (at most one per stage per event: starting may only be
        # repeated once the start's own completion event fires).
        for s in stages:
            rq = ready[s]
            if rq and stage_free[s] <= now:
                i = heappop(rq)[2]
                t = tasks[i]
                t.start = now
                end = now + t.duration
                stage_free[s] = end
                order[s].append(t)
                scheduled += 1
                heappush(events, (end, seq, i))
                seq += 1
        if not events:
            break
        now, _, i = heappop(events)
        for j in dependents[i]:
            nd = ndeps[j] - 1
            ndeps[j] = nd
            tj = tasks[j]
            tj.undone_deps = nd
            if nd == 0:
                heappush(ready[tj.stage], (tj.key, tj.tid, j))
    if scheduled != n:
        raise RuntimeError(
            f"list_schedule placed {scheduled}/{n} tasks; "
            "dependency cycle in the task graph"
        )
    return order
