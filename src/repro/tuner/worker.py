"""Process-pool worker for parallel auto-tune sweeps.

:func:`evaluate_chunk` is the unit of work :func:`repro.tuner.autotune`
ships to a :class:`concurrent.futures.ProcessPoolExecutor`: it cold-
evaluates a chunk of candidates and returns their records by key, which
the parent's serial walk feeds through its own cache's
:meth:`~repro.tuner.cache.CostCache.get_or_eval`.  Everything crossing
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

from repro.schedules.registry import workload_cache_key

__all__ = ["evaluate_chunk"]


def evaluate_chunk(
    workload: Any,
    memory_cap_bytes: float,
    candidates: Sequence[Any],
) -> dict[Hashable, Any]:
    """Cold-evaluate ``candidates``; returns their records by cache key.

    The parent only ships distinct keys its cache does not hold, and
    replays the returned records through its own cache, so hit/miss
    accounting happens there.

    Built IR does not pickle across the pool economically, so the chunk
    builds and simulates each candidate in full within its own
    evaluation context, with results bit-identical to the serial
    sweep's.  Each schedule dies with its evaluation, before the
    collector resumes, so no built object outlives the chunk.
    """
    # Imported here, not at module top: autotune imports this module, so
    # a top-level back-import would be circular.
    from repro.tuner.autotune import (
        _candidate_key,
        _cold_evaluate,
        _EvalContext,
        _gc_paused,
    )

    wkey = workload_cache_key(workload)
    with _gc_paused():
        ctx = _EvalContext(workload, memory_cap_bytes)
        records = {
            _candidate_key(wkey, cand, memory_cap_bytes): _cold_evaluate(ctx, cand)
            for cand in candidates
        }
    return records
