"""Static peak-memory analysis: per-rank stash liveness by forward dataflow.

The simulator tracks memory as ``static + running sum(stash_delta)``
with the transient ``workspace`` added while a compute instruction runs.
Because memory only changes at *compute* instructions -- which execute
serially, in program order, on their own stage -- the per-stage memory
trajectory is completely independent of communication timing.  A single
forward walk over each program therefore reproduces the simulator's
measured peak **exactly** (not as a bound), with no event loop and no
cost model: this is the cheap, pre-simulation answer to "does this
schedule fit on the GPU?" that the tuner's feasibility filter and the
``repro lint`` gate rely on.

:func:`static_peak_memory` is the dataflow itself; the registered
``peak-memory`` pass checks the peaks against the context's
``memory_cap_bytes``.
"""

from __future__ import annotations

from repro.passkit import Severity
from repro.schedules.analysis.framework import (
    SCHEDULE_PASSES,
    AnalysisContext,
    PassIssue,
)
from repro.schedules.ir import ComputeInstr, Schedule

__all__ = ["static_peak_memory", "check_peak_memory"]


def static_peak_memory(
    schedule: Schedule,
    static_memory_bytes: list[float] | float = 0.0,
) -> list[float]:
    """Per-stage peak memory in bytes, exactly as the simulator measures it.

    Replicates the engine's accounting: the peak starts at the static
    baseline; reaching a compute instruction raises the high-water mark
    by its (positive) workspace; completing it applies ``stash_delta``.
    Communication never touches memory, so the walk is timing-exact.
    """
    if isinstance(static_memory_bytes, (int, float)):
        static = [float(static_memory_bytes)] * schedule.num_stages
    else:
        static = [float(x) for x in static_memory_bytes]
        if len(static) != schedule.num_stages:
            raise ValueError(
                f"static_memory_bytes has {len(static)} entries for "
                f"{schedule.num_stages} stages"
            )
    peaks: list[float] = []
    for stage, prog in enumerate(schedule.programs):
        cur = static[stage]
        peak = cur
        for instr in prog:
            if not isinstance(instr, ComputeInstr):
                continue
            ws = instr.workspace
            if ws > 0.0:
                high = cur + ws
                if high > peak:
                    peak = high
            cur += instr.stash_delta
            if cur > peak:
                peak = cur
        peaks.append(peak)
    return peaks


def _fmt_bytes(n: float) -> str:
    for unit, scale in (("GiB", 2**30), ("MiB", 2**20), ("KiB", 2**10)):
        if abs(n) >= scale:
            return f"{n / scale:.2f} {unit}"
    return f"{n:.0f} B"


@SCHEDULE_PASSES.register(
    "peak-memory",
    description="static per-rank peak activation memory vs the GPU capacity",
    category="memory",
    requires=("stash-balance",),
)
def check_peak_memory(
    schedule: Schedule, context: AnalysisContext
) -> list[PassIssue]:
    """Flag stages whose static peak exceeds ``context.memory_cap_bytes``.

    Without a cap the pass still runs the dataflow (surfacing nothing),
    so ``repro lint`` can report the computed peaks in its JSON output.
    Requires ``stash-balance``: on a program that over-releases, "peak"
    would be an artefact of the accounting bug being reported there.
    """
    static = context.static_per_stage(schedule)
    peaks = static_peak_memory(schedule, static)
    cap = context.memory_cap_bytes
    if cap is None:
        return []
    issues: list[PassIssue] = []
    for stage, peak in enumerate(peaks):
        if peak > cap:
            issues.append(
                PassIssue(
                    "peak-memory",
                    f"static peak {_fmt_bytes(peak)} exceeds memory cap "
                    f"{_fmt_bytes(cap)} ({_fmt_bytes(static[stage])} static "
                    f"+ {_fmt_bytes(peak - static[stage])} activations)",
                    severity=Severity.ERROR,
                    stage=stage,
                )
            )
    return issues
