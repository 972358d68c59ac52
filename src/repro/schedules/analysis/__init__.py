"""Static analysis over the schedule IR: the pass registry + dataflow passes.

Every pass is registered on :data:`SCHEDULE_PASSES`
(:mod:`repro.schedules.analysis.framework`, built on the shared
:mod:`repro.passkit` framework, which documents the pass-author API).
Built-in passes (also runnable via ``repro lint``), in listing order:

========================  ===========  =========================================
pass                      severity     property proved
========================  ===========  =========================================
``structure``             error        stage fields, tag pairing, no self-sends
``deadlock``              error        deadlock-freedom under async tag matching
``program-order``         error        F/RC/BI/BW ordering per (mb, segment)
``stash-balance``         error        stash never negative, zero net at end
``comm-order``            warning      send/recv ordering races per channel
``comm-hol``              warning      head-of-line blocking cycles (in-order)
``peak-memory``           error        static per-rank peak vs GPU capacity
``dead-code``             warning      no-op computes, redundant stash pairs
========================  ===========  =========================================

``structure`` is the one pairing check; its findings anchor to the
stage, step and tag at fault.  The pass modules load through the
registry on its first lookup; import a pass's helpers from its own
module (``repro.schedules.analysis.memory.static_peak_memory``).
"""

from repro.passkit import Severity
from repro.schedules.analysis.framework import (
    SCHEDULE_PASSES,
    AnalysisContext,
    PassIssue,
)

__all__ = [
    "SCHEDULE_PASSES",
    "AnalysisContext",
    "PassIssue",
    "Severity",
]
