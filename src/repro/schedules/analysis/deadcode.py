"""Dead / redundant instruction hygiene pass.

Builders assemble programs from warm-up, steady-state, and cool-down
phases; off-by-one phase boundaries leave behind instructions that are
*executable* (every verification pass accepts them) yet do no useful
work and cost wall-clock or book-keeping anyway:

* **no-op computes** -- zero duration, no stash effect, no workspace:
  typically an op priced for the wrong segment or a warm-up iteration
  that the steady-state loop already covers;
* **no-op stash push/pop pairs** -- a stash of +X released by the
  immediately-following compute on the same (micro batch, segment) when
  that release performs no work (zero duration, no workspace): nothing
  ever consumed the activation, so the pair is pure accounting churn.
  (A real backward that immediately consumes its forward's stash -- the
  helix fold boundary -- does work and is *not* flagged.);
* **unreachable micro batches** -- compute for a micro-batch index
  outside ``[0, num_micro_batches)``: a warm-up op for an iteration
  that never runs.

All findings are warnings: the schedule is correct, just wasteful.
"""

from __future__ import annotations

from repro.passkit import Severity
from repro.schedules.analysis.framework import (
    SCHEDULE_PASSES,
    AnalysisContext,
    PassIssue,
)
from repro.schedules.ir import ComputeInstr, Schedule
from repro.schedules.passes import _seg_key

__all__ = ["check_dead_instructions"]

_MAX_ISSUES = 8


@SCHEDULE_PASSES.register(
    "dead-code",
    description="no-op computes, redundant stash push/pop pairs, unreachable ops",
    category="hygiene",
    requires=("structure",),
)
def check_dead_instructions(
    schedule: Schedule, context: AnalysisContext
) -> list[PassIssue]:
    noop: list[PassIssue] = []
    pushpop: list[PassIssue] = []
    unreachable: list[PassIssue] = []
    m = schedule.num_micro_batches
    for stage, prog in enumerate(schedule.programs):
        prev: ComputeInstr | None = None
        prev_step = -1
        for step, instr in enumerate(prog):
            if not isinstance(instr, ComputeInstr):
                continue
            if (
                instr.duration <= 0.0
                and instr.stash_delta == 0.0
                and instr.workspace <= 0.0
            ):
                noop.append(
                    PassIssue(
                        "dead-code",
                        f"no-op compute {instr.label}: zero duration and no "
                        "memory effect (dead warm-up op?)",
                        severity=Severity.WARNING,
                        stage=stage,
                        step=step,
                    )
                )
            if not (0 <= instr.micro_batch < m):
                unreachable.append(
                    PassIssue(
                        "dead-code",
                        f"unreachable {instr.label}: micro batch "
                        f"{instr.micro_batch} outside [0, {m})",
                        severity=Severity.WARNING,
                        stage=stage,
                        step=step,
                    )
                )
            if (
                prev is not None
                and prev.stash_delta > 0.0
                and instr.stash_delta == -prev.stash_delta
                and _seg_key(instr) == _seg_key(prev)
                and instr.duration <= 0.0
                and instr.workspace <= 0.0
            ):
                pushpop.append(
                    PassIssue(
                        "dead-code",
                        f"no-op stash push/pop pair: {prev.label} stashes "
                        f"{prev.stash_delta:g} B at step {prev_step} and "
                        f"{instr.label} releases it immediately",
                        severity=Severity.WARNING,
                        stage=stage,
                        step=step,
                    )
                )
            prev, prev_step = instr, step
    issues: list[PassIssue] = []
    for bucket in (noop, pushpop, unreachable):
        issues.extend(bucket[:_MAX_ISSUES])
        if len(bucket) > _MAX_ISSUES:
            issues.append(
                PassIssue(
                    "dead-code",
                    f"... {len(bucket) - _MAX_ISSUES} more finding(s) of "
                    "this kind",
                    severity=Severity.WARNING,
                )
            )
    return issues
