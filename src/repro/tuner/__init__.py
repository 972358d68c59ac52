"""Auto-tuning planner subsystem.

Searches the registered schedule space (schedule x recomputation
strategy x micro-batch count x schedule-option grid) for the fastest
plan that fits a memory cap, using the discrete-event simulator as the
evaluator behind a memoizing cost cache.  Sweeps scale out
(``autotune(..., workers=N)`` evaluates cold candidates in a process
pool) and persist (:meth:`CostCache.open` builds a cache over a sqlite
store, stamped with a cost-model fingerprint so editing the cost model
invalidates stale stores; a sweep reads it once, in one batched query,
and writes every cold evaluation through, so nothing is flushed
afterwards), and the whole subsystem is scriptable from the shell via
``python -m repro tune``.

>>> from repro.workloads import Workload
>>> from repro.tuner import autotune
>>> plans = autotune(Workload.paper("7B", "H20", 8, 65536), workers=4)
>>> plans[0].candidate.schedule, plans[0].iteration_time

:func:`tune_grid` adds the workload axis itself to the search: a
:class:`repro.workloads.WorkloadGrid` of ``seq_len x pipeline_size``
points under a fixed token budget is swept point by point (each at the
micro-batch count its budget allows) and ranked across the whole grid
-- the paper's Section 3.1 planning question as one call.

>>> from repro.workloads import WorkloadGrid
>>> from repro.tuner import tune_grid
>>> plans = tune_grid(WorkloadGrid(seq_lens=(32768, 65536),
...                                pipeline_sizes=(4, 8),
...                                budget_tokens=4 << 20))
"""

from repro.tuner.autotune import Candidate, PlanResult, autotune
from repro.tuner.cache import CacheStats, CostCache, costmodel_fingerprint
from repro.tuner.grid import GridPlan, tune_grid
from repro.tuner.store import SqliteCostStore
from repro.tuner.telemetry import SweepTelemetry

__all__ = [
    "Candidate",
    "PlanResult",
    "autotune",
    "CostCache",
    "CacheStats",
    "costmodel_fingerprint",
    "GridPlan",
    "tune_grid",
    "SqliteCostStore",
    "SweepTelemetry",
]
