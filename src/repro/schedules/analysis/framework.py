"""The schedule-IR side of the pass framework (:mod:`repro.passkit`).

The verification passes in :mod:`repro.schedules.passes` prove
executability; the analyses in this package prove stronger properties
(communication-hazard freedom, static peak memory, instruction hygiene)
*before* any simulation.  All of them are registered on
:data:`SCHEDULE_PASSES`: each is a function from ``(schedule, context)``
to a list of :class:`PassIssue` findings, and
``SCHEDULE_PASSES.run(schedule, passes=None, context=None)`` runs them
with dependency skipping.  See :mod:`repro.passkit` for the pass-author
API.

A finding anchors to the rank/stage, the program step index and the
message tag involved.  Severity semantics here: ``ERROR`` means the
schedule is wrong; ``WARNING`` means it executes under the IR's
asynchronous tag-matched semantics but carries a portability or
hygiene hazard; ``INFO`` is advisory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.passkit import Issue, PassRegistry, Severity
from repro.schedules.ir import Schedule

if TYPE_CHECKING:  # commrace imports this module
    from repro.schedules.analysis.commrace import ChannelGraph

__all__ = ["PassIssue", "AnalysisContext", "SCHEDULE_PASSES"]


@dataclass(frozen=True)
class PassIssue(Issue):
    """One finding of a schedule pass, with structured provenance.

    ``stage`` is the rank/program the finding anchors to, ``step`` the
    instruction's index within that program, ``tag`` the message tag
    involved (communication findings).  All three are optional --
    schedule-wide findings leave them ``None``.
    """

    stage: int | None = None
    step: int | None = None
    tag: str | None = None

    def __str__(self) -> str:
        ctx = []
        if self.stage is not None:
            ctx.append(f"stage {self.stage}")
        if self.step is not None:
            ctx.append(f"step {self.step}")
        if self.tag is not None:
            ctx.append(f"tag {self.tag!r}")
        where = f" ({', '.join(ctx)})" if ctx else ""
        sev = "" if self.severity is Severity.ERROR else f" {self.severity.value}:"
        return f"[{self.pass_name}]{sev}{where} {self.message}"


@dataclass
class AnalysisContext:
    """Workload-derived inputs the passes may consult.

    ``static_memory_bytes`` is the per-stage model-state baseline the
    simulator would be given (scalar = same on every stage);
    ``memory_cap_bytes`` the per-GPU capacity the peak-memory pass
    checks against (``None`` disables the capacity check).

    The context also keeps the last schedule's channel graph
    (:meth:`channel_graph`), which ``comm-order`` and ``comm-hol`` both
    read.
    """

    static_memory_bytes: list[float] | float = 0.0
    memory_cap_bytes: float | None = None
    _channel_graph: tuple[Schedule, Any] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def channel_graph(self, schedule: Schedule) -> ChannelGraph:
        """``schedule``'s channel graph, built once per context.

        The memo holds the schedule object itself, never its ``id()``,
        so a schedule allocated where a freed one lived never reads the
        freed one's graph.  It holds the last schedule for as long as
        the context lives, so a caller gives each schedule its own
        context (:func:`repro.lint.lint_schedules` makes one per cell).
        """
        memo = self._channel_graph
        if memo is None or memo[0] is not schedule:
            from repro.schedules.analysis.commrace import build_channel_graph

            memo = self._channel_graph = (schedule, build_channel_graph(schedule))
        return memo[1]

    def static_per_stage(self, schedule: Schedule) -> list[float]:
        """The static baseline expanded to one entry per stage."""
        s = self.static_memory_bytes
        if isinstance(s, (int, float)):
            return [float(s)] * schedule.num_stages
        if len(s) != schedule.num_stages:
            raise ValueError(
                f"static_memory_bytes has {len(s)} entries for "
                f"{schedule.num_stages} stages"
            )
        return [float(x) for x in s]


#: Every schedule pass.  ``names()`` lists the built-ins in the order of
#: these modules, whichever was imported first: the executability checks
#: ``Schedule.validate()`` runs, then the dataflow analyses.
SCHEDULE_PASSES: PassRegistry[PassIssue] = PassRegistry(
    "analysis pass",
    describe=lambda schedule: (
        f"schedule {schedule.name!r}",
        {"schedule": schedule.name},
    ),
    builtin=(
        "repro.schedules.passes",
        "repro.schedules.analysis.commrace",
        "repro.schedules.analysis.memory",
        "repro.schedules.analysis.deadcode",
    ),
    context=AnalysisContext,
)
