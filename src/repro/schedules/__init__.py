"""Pipeline schedule IR, verification passes and the schedule registry.

The registry imports the builder modules on first lookup; import a
``build_*`` function from its own module (``repro.schedules.gpipe``).
"""

from repro.schedules.costs import CostProvider, PipelineCosts, SegCost, UnitCosts
from repro.schedules.ir import (
    ComputeInstr,
    Instr,
    OpType,
    RecvInstr,
    Schedule,
    SendInstr,
)
from repro.schedules.passes import PassIssue, ScheduleVerificationError
from repro.schedules.registry import (
    ScheduleBuildError,
    ScheduleSpec,
    available_schedules,
    build_schedule,
    get_schedule,
    register_schedule,
)

__all__ = [
    "Schedule",
    "OpType",
    "Instr",
    "ComputeInstr",
    "SendInstr",
    "RecvInstr",
    "CostProvider",
    "PipelineCosts",
    "UnitCosts",
    "SegCost",
    "PassIssue",
    "ScheduleVerificationError",
    "ScheduleSpec",
    "ScheduleBuildError",
    "register_schedule",
    "get_schedule",
    "available_schedules",
    "build_schedule",
]
