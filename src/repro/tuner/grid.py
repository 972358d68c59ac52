"""Workload-grid tuning: schedules x recompute x options x *workloads*.

:func:`repro.tuner.autotune` answers "which schedule wins on this
workload"; this module answers the planning question one level up
(paper Section 3.1, ROADMAP "tuner-aware token-budget planning"):
given a fixed token budget per iteration, *which sequence length and
pipeline size should the run use at all* -- and which schedule there.
:func:`tune_grid` sweeps a :class:`repro.workloads.WorkloadGrid` as a
second search axis: every grid point resolves to a workload whose
micro-batch count is the token budget divided by the sequence length,
and :func:`autotune` evaluates the full schedule grid at that point in
``fill_budget`` mode (the micro-batch count is determined by the
budget, not searched).

Reporting is total, in the same discipline as the candidate sweep:

- grid points that cannot run at all (budget below one micro batch)
  appear as infeasible :class:`GridPlan` rows with the point's reason;
- schedules whose micro-batch divisor exceeds a point's budget appear
  as infeasible rows with the divisor reason;
- everything else carries simulated metrics, ranked by tokens/s across
  *all* points, so the top row answers the planning question directly.

All points share one :class:`~repro.tuner.cache.CostCache` -- candidate
keys embed the workload identity, so a persisted store warms every
point it has seen across runs and processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.tuner.autotune import PlanResult, autotune
from repro.tuner.cache import CostCache
from repro.tuner.telemetry import SweepTelemetry
from repro.workloads import WorkloadGrid, WorkloadPoint

__all__ = ["GridPlan", "tune_grid"]


@dataclass(frozen=True)
class GridPlan:
    """One evaluated (workload point, candidate) cell of a grid sweep.

    ``plan`` is ``None`` exactly when the *point* itself could not run
    (its reason is then in ``reason``); otherwise it is the
    :class:`PlanResult` of one candidate at that point, and ``reason``
    mirrors the plan's own infeasibility reason.
    """

    point: WorkloadPoint
    plan: PlanResult | None
    reason: str | None

    @property
    def feasible(self) -> bool:
        return self.reason is None

    @property
    def tokens_per_s(self) -> float:
        return 0.0 if self.plan is None else self.plan.tokens_per_s

    @property
    def label(self) -> str:
        what = "-" if self.plan is None else self.plan.label
        return f"{self.point.label} :: {what}"


def tune_grid(
    grid: WorkloadGrid,
    memory_cap_bytes: float | None = None,
    *,
    schedules: Sequence[str] | None = None,
    options: bool = True,
    cache: CostCache | None = None,
    workers: int | None = None,
    prune: bool = True,
    telemetry: SweepTelemetry | None = None,
) -> list[GridPlan]:
    """Search workloads x schedules for the fastest feasible plan.

    Parameters mirror :func:`repro.tuner.autotune` (they are forwarded
    to the per-point sweep); ``memory_cap_bytes`` defaults to the
    grid's GPU HBM size.  Returns feasible :class:`GridPlan` rows
    ranked by simulated tokens/s across the whole grid (ties broken by
    lower peak memory), followed by every infeasible row: unrunnable
    grid points first (in grid order), then per-point infeasible
    candidates (in sweep order).

    Points share only ``cache`` (candidate keys embed the workload
    identity, so distinct points never alias) and ``telemetry``, which
    aggregates across every point of the grid.  Each point's
    :func:`autotune` call simulates its candidates in full and frees
    what it built before the next point starts.
    """
    cache = CostCache() if cache is None else cache
    feasible: list[GridPlan] = []
    dead_points: list[GridPlan] = []
    infeasible: list[GridPlan] = []
    for point in grid.iter_points():
        if not point.feasible:
            dead_points.append(GridPlan(point, None, point.reason))
            continue
        plans = autotune(
            point.workload(),
            memory_cap_bytes,
            schedules=schedules,
            options=options,
            fill_budget=True,
            cache=cache,
            workers=workers,
            prune=prune,
            telemetry=telemetry,
        )
        for plan in plans:
            row = GridPlan(point, plan, plan.reason)
            (feasible if plan.feasible else infeasible).append(row)
    feasible.sort(
        key=lambda r: (
            -r.tokens_per_s,
            r.plan.peak_memory_bytes if r.plan else 0.0,
        )
    )
    return feasible + dead_points + infeasible
