"""Process-pool worker for parallel auto-tune sweeps.

:func:`evaluate_chunk` is the unit of work :func:`repro.tuner.autotune`
ships to a :class:`concurrent.futures.ProcessPoolExecutor`: it cold-
evaluates a chunk of candidates into a fresh per-worker
:class:`~repro.tuner.cache.CostCache` and returns its records, which
the parent feeds into the caller's cache on join.  Everything crossing
the process boundary -- the workload (plain dataclasses), the
candidates (frozen dataclasses) and the returned records (a dict of
primitive-tuple keys to primitive records) -- pickles cleanly, and
candidate keys are process-stable
(:func:`repro.schedules.registry.workload_cache_key`), so a key
computed in a worker is the same key the parent looks up.

The module must stay importable without side effects: under the
``spawn`` start method each worker re-imports it (and lazily re-imports
the schedule registry's builders on first lookup).
"""

from __future__ import annotations

from typing import Any, Hashable, Sequence

from repro.tuner.cache import CostCache

__all__ = ["evaluate_chunk"]


def evaluate_chunk(
    workload: Any,
    memory_cap_bytes: float,
    candidates: Sequence[Any],
    incremental: bool = True,
) -> dict[Hashable, Any]:
    """Cold-evaluate ``candidates``; returns their records by cache key.

    The parent only ships keys its cache does not hold, and replays the
    returned records through its own cache, so hit/miss accounting
    happens there.

    Each worker owns a private :class:`~repro.tuner.ircache.ScheduleIRCache`
    (built IR and simulation references do not pickle across the pool
    economically), so within a chunk every distinct IR builds once and
    sibling candidates re-simulate incrementally -- results are
    bit-identical to the serial sweep's either way.
    """
    # Imported here, not at module top: autotune imports this module, so
    # a top-level back-import would be circular.
    from repro.tuner.autotune import (
        _candidate_key,
        _cold_evaluate,
        _EvalContext,
        _gc_paused,
        _workload_key,
    )
    from repro.tuner.ircache import ScheduleIRCache

    local = CostCache()
    wkey = _workload_key(workload)
    cap = float(memory_cap_bytes)
    family_counts: dict[tuple, int] = {}
    for cand in candidates:
        fam = (wkey, cap, cand.schedule, cand.num_micro_batches, cand.options)
        family_counts[fam] = family_counts.get(fam, 0) + 1
    ctx = _EvalContext(
        workload,
        memory_cap_bytes,
        wkey=wkey,
        ir_cache=ScheduleIRCache(),
        incremental=incremental,
        family_counts=family_counts,
    )
    with _gc_paused():
        for cand in candidates:
            local.get_or_eval(
                _candidate_key(workload, cand, memory_cap_bytes, wkey),
                lambda c=cand: _cold_evaluate(workload, c, memory_cap_bytes, ctx),
            )
    return dict(local.entries())
