"""Schedule intermediate representation (IR).

A pipeline schedule is compiled to one **program per stage**: an ordered
list of instructions.  Two independent executors interpret the same IR:

* :mod:`repro.sim` runs it against the hardware cost model (durations,
  link bandwidths) and reports time/memory;
* :mod:`repro.runtime` runs it with real numpy math on virtual devices and
  checks gradient equality against a single-device reference.

Execution semantics (shared by both executors):

* Compute instructions (``F``, ``B``, ``BI``, ``BW``, ``RC``) execute in
  program order on the stage's compute engine.
* ``SEND`` issues asynchronously once the program counter reaches it (all
  earlier compute has finished, so the payload exists); the transfer then
  occupies the communication engines, not the compute engine.
* ``RECV`` blocks the program counter until the matching message (same
  ``tag``) has fully arrived.  Placing independent compute *before* a
  ``RECV`` is how schedules overlap communication with computation — the
  two-fold FILO schedule (Section 4.3.2) is exactly such a reordering.

Message tags are globally unique strings; every ``SEND`` must have exactly
one matching ``RECV`` on the peer stage (checked by the ``structure`` pass
that :meth:`Schedule.validate` runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence, Union

from repro.model.partition import Segment

__all__ = [
    "OpType",
    "ComputeInstr",
    "SendInstr",
    "RecvInstr",
    "Instr",
    "Schedule",
    "compute_only",
    "instr_from_proto",
]


class OpType(Enum):
    F = "F"  # forward
    B = "B"  # fused backward (input + weight gradients)
    BI = "BI"  # backward w.r.t. inputs (paper: backward B)
    BW = "BW"  # backward w.r.t. weights (paper: backward W)
    RC = "RC"  # recompute forward before the corresponding backward


BACKWARD_OPS = frozenset({OpType.B, OpType.BI, OpType.BW})


@dataclass(frozen=True)
class ComputeInstr:
    """One compute step of a segment for a micro batch on a stage.

    Parameters
    ----------
    op, stage, micro_batch, segment:
        What is computed, where, for which micro batch.
    duration:
        Predicted seconds (simulator only; the functional runtime ignores
        it).
    stash_delta:
        Bytes of stashed activation memory created (>0, applied when the
        instruction completes) or released (<0).
    workspace:
        Transient bytes held only while the instruction runs.
    """

    op: OpType
    stage: int
    micro_batch: int
    segment: Segment
    duration: float = 0.0
    stash_delta: float = 0.0
    workspace: float = 0.0

    @property
    def label(self) -> str:
        return f"{self.op.value}[mb{self.micro_batch},{self.segment.label}]"


@dataclass(frozen=True)
class SendInstr:
    """Asynchronous point-to-point send of one tagged message."""

    stage: int
    peer: int
    tag: str
    nbytes: float
    micro_batch: int = -1
    payload: str = "act"

    @property
    def label(self) -> str:
        return f"SEND[{self.tag}->{self.peer}]"


@dataclass(frozen=True)
class RecvInstr:
    """Blocking wait for one tagged message from ``peer``."""

    stage: int
    peer: int
    tag: str
    nbytes: float
    micro_batch: int = -1
    payload: str = "act"

    @property
    def label(self) -> str:
        return f"RECV[{self.tag}<-{self.peer}]"


Instr = Union[ComputeInstr, SendInstr, RecvInstr]


_instr_new = object.__new__


def instr_from_proto(cls: type, proto: dict, micro_batch: int) -> Instr:
    """Construct an instruction from a prototype field dict, bypassing
    the dataclass ``__init__``.

    Builders that emit thousands of near-identical instructions per
    schedule (the helix FILO emitter: one instruction stream per micro
    batch over a fixed per-position template) pay ~3x the construction
    cost in the generated ``__init__`` of a frozen dataclass (field
    re-binding through ``object.__setattr__``).  Seeding ``__dict__``
    directly produces a bit-identical instance -- equality, hashing and
    field access all go through ``__dict__`` -- at a third of the cost.

    ``proto`` must hold every dataclass field except ``micro_batch``
    (extra keys would silently become phantom attributes).
    """
    # The instance __dict__ is mutated in place: frozen dataclasses
    # route attribute (and __dict__) rebinding through a raising
    # __setattr__, but reading the dict and updating it is unmediated.
    inst = _instr_new(cls)
    d = inst.__dict__
    d.update(proto)
    d["micro_batch"] = micro_batch
    return inst


@dataclass
class Schedule:
    """A named pipeline schedule: one instruction program per stage."""

    name: str
    num_stages: int
    num_micro_batches: int
    programs: list[list[Instr]] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.programs and len(self.programs) != self.num_stages:
            raise ValueError(
                f"{self.name}: got {len(self.programs)} programs for "
                f"{self.num_stages} stages"
            )

    def instructions(self) -> Iterable[Instr]:
        for prog in self.programs:
            yield from prog

    def compute_instructions(self) -> Iterable[ComputeInstr]:
        for instr in self.instructions():
            if isinstance(instr, ComputeInstr):
                yield instr

    def total_compute_time(self, stage: int) -> float:
        """Sum of compute durations on ``stage`` (lower bound on busy time)."""
        return sum(
            i.duration for i in self.programs[stage] if isinstance(i, ComputeInstr)
        )

    def validate(self, passes: Sequence[str] | None = None) -> None:
        """Run the executability passes; raise every error they find.

        ``passes`` names the passes to run, in order (default: every
        ``executability`` pass -- ``structure``, ``deadlock``,
        ``program-order`` and ``stash-balance``, see
        :mod:`repro.schedules.passes`).  They run through
        ``SCHEDULE_PASSES.run``, so a pass whose prerequisite reported
        errors is skipped, not run.  Raises
        :class:`~repro.schedules.passes.ScheduleVerificationError`
        holding every error found.
        """
        from repro.schedules.analysis.framework import SCHEDULE_PASSES
        from repro.schedules.passes import ScheduleVerificationError

        if passes is None:
            passes = [
                name
                for name in SCHEDULE_PASSES.names()
                if SCHEDULE_PASSES.get(name).category == "executability"
            ]
        errors = SCHEDULE_PASSES.run(self, passes=passes).errors
        if errors:
            raise ScheduleVerificationError(self.name, errors)


def compute_only(schedule: Schedule, stage: int) -> list[ComputeInstr]:
    """The compute instructions of one stage, in program order."""
    return [i for i in schedule.programs[stage] if isinstance(i, ComputeInstr)]
