"""Verification passes over built pipeline schedules.

Every schedule the repository produces -- whatever builder emitted it --
is run through the same pass pipeline before an executor touches it:

``structure``
    Per-instruction sanity: the ``stage`` field matches the program the
    instruction sits in, message tags pair up (exactly one SEND and one
    RECV per tag, mirrored endpoints, equal sizes), and no self-sends.
    Each finding anchors to the stage, step and tag at fault (the SEND,
    for a pair that does not match), and each defect class reports at
    most its first eight, so a dropped receive in a thousand-instruction
    schedule points at the exact program point.
``deadlock``
    Static deadlock-freedom under the IR's execution semantics (SENDs
    issue asynchronously once the program counter reaches them, RECVs
    block until the matching SEND has been issued).  A fixed-point
    abstract execution advances every stage as far as possible; if any
    program counter is still short of its program end afterwards, the
    schedule contains a cyclic wait or a RECV whose SEND can never be
    issued, and the blocked stages/tags are reported.
``program-order``
    Per-stage, per-(micro batch, segment) ordering: forward before any
    backward, RC between forward and its backward, BI before BW, and no
    duplicated passes.
``stash-balance``
    The Table 2 accounting property: per stage, the running sum of
    ``stash_delta`` never goes negative (nothing is released before it
    was stashed) and returns to zero at the end of the iteration (every
    stashed byte is released -- schedules must not leak activations
    across iterations).

Passes return :class:`PassIssue` lists instead of asserting inline.
They are registered (category ``executability``, severity ERROR) on
:data:`~repro.schedules.analysis.framework.SCHEDULE_PASSES`, whose
``requires``-gated runner is the only one: :meth:`Schedule.validate`
runs these four through it and raises every error as a
:class:`ScheduleVerificationError`, and ``repro lint`` runs them
alongside the dataflow analyses.  ``deadlock`` requires ``structure``
(the fixed point is meaningless on unpaired tags), so a structurally
broken schedule reports its pairing errors and skips ``deadlock``.
The simulator keeps its runtime :class:`~repro.sim.engine.DeadlockError`
only as a backstop.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.passkit import Severity
from repro.schedules.analysis.framework import SCHEDULE_PASSES, PassIssue
from repro.schedules.ir import (
    BACKWARD_OPS,
    ComputeInstr,
    OpType,
    RecvInstr,
    Schedule,
    SendInstr,
)

__all__ = [
    "PassIssue",
    "Severity",
    "ScheduleVerificationError",
    "check_structure",
    "check_deadlock_freedom",
    "check_program_order",
    "check_stash_balance",
]


class ScheduleVerificationError(ValueError):
    """A schedule failed one of the verification passes."""

    def __init__(self, schedule_name: str, issues: Sequence[PassIssue]) -> None:
        self.schedule_name = schedule_name
        self.issues = list(issues)
        shown = "\n  ".join(str(i) for i in self.issues[:8])
        extra = "" if len(self.issues) <= 8 else f"\n  ... {len(self.issues) - 8} more"
        super().__init__(
            f"schedule {schedule_name!r} failed verification:\n  {shown}{extra}"
        )

    def format(self) -> str:
        """The full issue list as an aligned table (no 8-row cap)."""
        header = f"schedule {self.schedule_name!r} failed verification:"
        return f"{header}\n{PassIssue.table(self.issues)}"


# -- structure ---------------------------------------------------------------

#: Findings reported per defect class: a systematically broken schedule
#: repeats one defect hundreds of times, and the first few locate it.
_MAX_PER_DEFECT = 8


@SCHEDULE_PASSES.register(
    "structure",
    description="stage fields, SEND/RECV tag pairing, endpoint mirroring",
    category="executability",
)
def check_structure(schedule: Schedule) -> list[PassIssue]:
    """Stage fields, SEND/RECV tag pairing, endpoint mirroring, sizes."""
    if len(schedule.programs) != schedule.num_stages:
        return [
            PassIssue(
                "structure",
                f"{len(schedule.programs)} programs for "
                f"{schedule.num_stages} stages",
            )
        ]
    issues: list[PassIssue] = []
    found: Counter[str] = Counter()

    def report(
        defect: str, message: str, stage: int, step: int, tag: str | None = None
    ) -> None:
        found[defect] += 1
        if found[defect] <= _MAX_PER_DEFECT:
            issues.append(
                PassIssue("structure", message, stage=stage, step=step, tag=tag)
            )

    # tag -> (stage, step, instruction) of its first SEND / RECV
    sends: dict[str, tuple[int, int, SendInstr]] = {}
    recvs: dict[str, tuple[int, int, RecvInstr]] = {}
    for stage, prog in enumerate(schedule.programs):
        for step, instr in enumerate(prog):
            if instr.stage != stage:
                report(
                    "misplaced",
                    f"instruction {instr.label} has stage {instr.stage} "
                    f"but sits in program {stage}",
                    stage,
                    step,
                )
            if isinstance(instr, SendInstr):
                tag = instr.tag
                if instr.peer == instr.stage:
                    report("self-send", f"self-send {instr.label}", stage, step, tag)
                if tag in sends:
                    report("dup-send", f"duplicate send tag {tag}", stage, step, tag)
                else:
                    sends[tag] = (stage, step, instr)
            elif isinstance(instr, RecvInstr):
                tag = instr.tag
                if tag in recvs:
                    report("dup-recv", f"duplicate recv tag {tag}", stage, step, tag)
                else:
                    recvs[tag] = (stage, step, instr)
    for tag in sorted(sends.keys() - recvs.keys()):
        stage, step, _ = sends[tag]
        report(
            "unpaired-send",
            f"unpaired tag {tag!r}: SEND has no matching RECV "
            "(dropped receive?)",
            stage,
            step,
            tag,
        )
    for tag in sorted(recvs.keys() - sends.keys()):
        stage, step, _ = recvs[tag]
        report(
            "unpaired-recv",
            f"unpaired tag {tag!r}: RECV has no matching SEND",
            stage,
            step,
            tag,
        )
    for tag, (stage, step, s) in sends.items():
        if tag not in recvs:
            continue
        r = recvs[tag][2]
        if s.peer != r.stage or r.peer != s.stage:
            report(
                "endpoints",
                f"endpoints mismatch for tag {tag}: "
                f"{s.stage}->{s.peer} vs {r.peer}->{r.stage}",
                stage,
                step,
                tag,
            )
        if s.nbytes != r.nbytes:
            report("size", f"size mismatch for tag {tag}", stage, step, tag)
    return issues


# -- deadlock-freedom --------------------------------------------------------


@SCHEDULE_PASSES.register(
    "deadlock",
    description="static deadlock-freedom under async tag-matched semantics",
    category="executability",
    requires=("structure",),
)
def check_deadlock_freedom(schedule: Schedule) -> list[PassIssue]:
    """Abstract-execute the programs to a fixed point; report stuck stages.

    Mirrors the executor semantics exactly: compute instructions never
    block, a SEND is issued the moment the program counter reaches it,
    and a RECV completes once its tag has been issued by the peer.
    Bandwidth and durations are irrelevant to progress, so this check is
    sound and complete for the IR's blocking model.
    """
    pcs = [0] * schedule.num_stages
    issued: set[str] = set()
    progress = True
    while progress:
        progress = False
        for stage, prog in enumerate(schedule.programs):
            while pcs[stage] < len(prog):
                instr = prog[pcs[stage]]
                if isinstance(instr, RecvInstr) and instr.tag not in issued:
                    break
                if isinstance(instr, SendInstr):
                    issued.add(instr.tag)
                pcs[stage] += 1
                progress = True
    issues: list[PassIssue] = []
    for stage, prog in enumerate(schedule.programs):
        if pcs[stage] < len(prog):
            instr = prog[pcs[stage]]
            waiting = (
                f"waiting on tag {instr.tag!r} from stage {instr.peer}"
                if isinstance(instr, RecvInstr)
                else f"at {instr.label}"
            )
            issues.append(
                PassIssue(
                    "deadlock",
                    f"static deadlock: pc {pcs[stage]}/{len(prog)} {waiting}",
                    stage=stage,
                )
            )
    return issues


# -- program order -----------------------------------------------------------


def _seg_key(instr: ComputeInstr) -> tuple:
    seg = instr.segment
    return (instr.micro_batch, seg.kind, seg.layer, seg.num_layers)


@SCHEDULE_PASSES.register(
    "program-order",
    description="per-(micro batch, segment) F/RC/BI/BW ordering",
    category="executability",
)
def check_program_order(schedule: Schedule) -> list[PassIssue]:
    """Per-stage F/RC/B/BI/BW ordering for each (micro batch, segment)."""
    issues: list[PassIssue] = []
    for stage, prog in enumerate(schedule.programs):
        seen: dict[tuple, list[OpType]] = {}
        for instr in prog:
            if not isinstance(instr, ComputeInstr):
                continue
            ops = seen.setdefault(_seg_key(instr), [])
            op = instr.op
            if op is OpType.F and ops:
                issues.append(
                    PassIssue(
                        "program-order",
                        f"duplicate forward {instr.label}",
                        stage=stage,
                    )
                )
            elif op in BACKWARD_OPS or op is OpType.RC:
                if OpType.F not in ops:
                    issues.append(
                        PassIssue(
                            "program-order",
                            f"{instr.label} before its forward",
                            stage=stage,
                        )
                    )
                if op is OpType.RC and (ops and ops[-1] in BACKWARD_OPS):
                    issues.append(
                        PassIssue(
                            "program-order",
                            f"recompute {instr.label} after its backward",
                            stage=stage,
                        )
                    )
                if op in (OpType.B, OpType.BI) and any(
                    o in (OpType.B, OpType.BI) for o in ops
                ):
                    issues.append(
                        PassIssue(
                            "program-order",
                            f"duplicate backward {instr.label}",
                            stage=stage,
                        )
                    )
                if op is OpType.BW and OpType.BI not in ops:
                    issues.append(
                        PassIssue(
                            "program-order",
                            f"{instr.label} before its backward-B",
                            stage=stage,
                        )
                    )
            ops.append(op)
    return issues


# -- stash balance -----------------------------------------------------------

#: Relative tolerance for the per-stage stash accounting.  Deltas are
#: sums/fractions of exactly-representable byte counts, so only a few
#: ulps of slack are needed.
_STASH_REL_TOL = 1e-9


@SCHEDULE_PASSES.register(
    "stash-balance",
    description="running stash never negative, zero net at end of iteration",
    category="executability",
)
def check_stash_balance(schedule: Schedule) -> list[PassIssue]:
    """Running stash never negative; zero net stash at end of iteration."""
    issues: list[PassIssue] = []
    for stage, prog in enumerate(schedule.programs):
        total_stashed = sum(
            i.stash_delta
            for i in prog
            if isinstance(i, ComputeInstr) and i.stash_delta > 0
        )
        tol = _STASH_REL_TOL * max(1.0, total_stashed)
        running = 0.0
        went_negative = False
        for instr in prog:
            if not isinstance(instr, ComputeInstr):
                continue
            running += instr.stash_delta
            if running < -tol:
                issues.append(
                    PassIssue(
                        "stash-balance",
                        f"running stash {running:.6g} B negative after "
                        f"{instr.label}",
                        stage=stage,
                    )
                )
                went_negative = True
                break
        # The net check is only meaningful when the scan reached the end.
        if not went_negative and abs(running) > tol:
            issues.append(
                PassIssue(
                    "stash-balance",
                    f"net stash {running:.6g} B at end of iteration "
                    "(activations leaked or over-released)",
                    stage=stage,
                )
            )
    return issues
