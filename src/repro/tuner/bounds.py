"""Admissible throughput bounds for candidate pruning.

The auto-tuner ranks feasible plans by simulated tokens/s, so a
candidate can be skipped without simulation when an *upper* bound on its
throughput is already below the best simulated value.  This module
prices a candidate list with plain Python floats: the workload's layer
times come from one scalar :class:`~repro.costmodel.timing.TimingModel`
evaluation (every candidate shares the workload's (b, s) shape) and
each candidate's makespan lower bound from
:func:`repro.analysis.bubble.makespan_lower_bound_fn`, the function
behind :func:`~repro.analysis.bubble.makespan_lower_bound`: work
conservation, the single-micro-batch dependency chain and each
schedule's proven ramp term -- the Table 2 ramps for ``1f1b``,
``gpipe``, ``interleaved``, ``zb1p`` and ``helix``, the BW-after-BI
ramp for ``zb-milp`` and the any-partition 1F1B floor for ``adapipe``.
It is built once per unique (schedule, options) configuration and
evaluated per (micro-batch count, recompute strategy).

Bounds are *admissible*: ``upper_bound >= simulated tokens/s`` for every
candidate, so best-first pruning in :func:`repro.tuner.autotune` never
discards the optimum (see ``tests/analysis/test_bounds.py`` and
``tests/tuner/test_prune.py``).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.analysis.bubble import makespan_lower_bound_fn, recompute_time_lower_bound
from repro.costmodel.timing import TimingModel
from repro.schedules.registry import get_schedule
from repro.workloads import Workload

__all__ = ["throughput_upper_bounds"]


def throughput_upper_bounds(
    workload: Workload, candidates: Sequence[Any]
) -> list[float]:
    """Upper-bound tokens/s for every candidate.

    Returns a list aligned with ``candidates``.  Each entry is
    ``tokens(candidate) / makespan_lower_bound(candidate)`` -- since the
    bound never exceeds the simulated makespan, the ratio never falls
    below the simulated throughput.
    """
    if not candidates:
        return []
    gpu = workload.cluster.node.gpu
    sp = int(workload.cluster.sequence_parallel_size)
    model = workload.model
    num_layers = int(model.num_layers)
    p = int(workload.p)
    b = int(workload.micro_batch)
    s = int(workload.seq_len)
    layer = TimingModel(gpu, model, b, s, sp=sp).layer_times()
    tokens_per_mb = float(b) * s

    # Bound functions depend only on (schedule, options) and recompute
    # terms only on the strategy; evaluate each unique configuration
    # once.
    bound_memo: dict[tuple[str, tuple], Callable[..., float]] = {}
    rc_memo: dict[Any, float] = {}
    out = []
    for cand in candidates:
        key = (cand.schedule, cand.options)
        bound = bound_memo.get(key)
        if bound is None:
            # Registered defaults fill the option names the canonical
            # candidate tuple dropped.
            opts = {**get_schedule(cand.schedule).options, **dict(cand.options)}
            bound = bound_memo[key] = makespan_lower_bound_fn(
                cand.schedule, layer, num_layers, p, opts
            )
        rc = rc_memo.get(cand.recompute)
        if rc is None:
            rc = rc_memo[cand.recompute] = recompute_time_lower_bound(
                layer, cand.recompute
            )
        m = cand.num_micro_batches
        lower = bound(m, rc)
        out.append(m * tokens_per_mb / lower if lower > 0.0 else float("inf"))
    return out
