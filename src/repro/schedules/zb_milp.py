"""Exact backward-W placement for ZB1P: the MILP's closed-form optimum.

The zero bubble paper pairs its heuristic with an ILP that decides, for
each stage, how many delayed W passes to interleave at each point of the
steady phase.  The essential decision is a small MILP: given a stage's
1F1B-ordered F/BI stream, choose how many BWs ``x_i`` run right after
BI_i so that

* BW_k runs after BI_k (dependency: ``cum_i = sum_{j<=i} x_j <= i + 1``),
* at most ``cap`` micro batches are outstanding (memory parity, Eq. 4):
  the forwards issued by slot ``i``, ``min(m, warmup + i + 1)``, minus
  ``cum_i`` stay ``<= cap``,
* all ``m`` BWs are placed, and the weighted tail -- BWs left late,
  which extend the iteration -- is minimised with strictly increasing
  slot costs ``c_i``: W passes scheduled earlier fill bubbles for free.

That MILP has a closed-form solution, so no solver runs.  By summation
by parts the objective is ``c_{m-1} m - sum_i (c_{i+1} - c_i) cum_i``,
which a placement minimises by maximising every prefix ``cum_i``; the
dependency bound ``cum_i <= i + 1`` is attained by one BW right after
each BI, so that placement is the *unique* optimum whenever it is
feasible.  It is feasible exactly when any placement is: at slot 0 a
stage has issued ``min(m, warmup + 1)`` forwards and retired at most one
BW, so every placement needs ``cap >= min(warmup, m - 1)``, and one BW
per BI leaves ``min(m - i - 1, warmup)`` outstanding at slot ``i``,
never more than at slot 0.  The default ``cap = p`` always qualifies
(``warmup <= p - 1``); a tighter ``max_outstanding`` that does not
raises :class:`~repro.schedules.registry.ScheduleBuildError`.

A finding worth recording: this static "earliest feasible W" optimum is
*not* always better end-to-end than the greedy heuristic, because the
event-driven execution fills idle gaps dynamically -- a W forced early
can displace a critical-path F/BI, while the heuristic's W-before-RECV
placement only consumes time the stage would have spent blocked.  The
zero bubble paper's full ILP models start times explicitly to avoid
this; we keep this light version as an ablation of that design choice
(see ``benchmarks``/tests for the measured comparison).  Because no BW
fills the ramp, the tuner prices ``zb-milp`` with its own bubble term,
:func:`repro.analysis.bubble.bubble_time_zb_milp`.
"""

from __future__ import annotations

from repro.schedules.costs import CostProvider
from repro.schedules.ir import Schedule
from repro.schedules.layerwise import LayerwiseBuilder, SymbolicOp
from repro.schedules.one_f_one_b import one_f_one_b_order
from repro.schedules.registry import ScheduleBuildError, register_schedule

__all__ = ["zb_milp_order", "build_zb_milp"]


def zb_milp_order(
    num_stages: int,
    num_micro_batches: int,
    stage: int,
    max_outstanding: int | None = None,
) -> list[SymbolicOp]:
    """ZB1P op order with the MILP-optimal BW placement for one stage.

    The 1F1B order with each B split into BI and its BW right after it
    (the module docstring proves this is the MILP's unique optimum).
    Raises :class:`ScheduleBuildError` when ``max_outstanding`` admits
    no placement at all.
    """
    p, m = num_stages, num_micro_batches
    cap = p if max_outstanding is None else max_outstanding
    warmup = min(p - 1 - stage, m)
    if cap < min(warmup, m - 1):
        raise ScheduleBuildError(
            "zb-milp",
            f"max_outstanding={cap} admits no BW placement on stage {stage}: "
            f"it needs at least {min(warmup, m - 1)}",
        )
    order: list[SymbolicOp] = []
    for op, mb in one_f_one_b_order(p, m, stage):
        if op == "F":
            order.append(("F", mb))
        else:
            order.append(("BI", mb))
            order.append(("BW", mb))
    return order


@register_schedule(
    "zb-milp",
    description="Zero-bubble 1P with exact MILP backward-W placement",
    family="layerwise",
    options={
        "include_embed": True,
        "include_head": True,
        "max_outstanding": None,
    },
    divisor=lambda p, opts: p,
)
def build_zb_milp(
    num_stages: int,
    num_micro_batches: int,
    costs: CostProvider,
    include_embed: bool = True,
    include_head: bool = True,
    max_outstanding: int | None = None,
) -> Schedule:
    """Materialise ZB1P with the exact MILP W placement."""
    builder = LayerwiseBuilder(
        name="zb1p-milp",
        num_stages=num_stages,
        num_micro_batches=num_micro_batches,
        costs=costs,
        include_embed=include_embed,
        include_head=include_head,
    )
    orders = [
        zb_milp_order(num_stages, num_micro_batches, i, max_outstanding)
        for i in range(num_stages)
    ]
    sched = builder.build(orders)
    sched.name = "zb1p-milp"
    return sched
