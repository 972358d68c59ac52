"""Lock-discipline static analyzer for the repo's threaded packages.

The concurrency sibling of :mod:`repro.schedules.analysis`: an AST
model of the repo's own sources (:mod:`.model`), a pass registry on
the shared :mod:`repro.passkit` framework (:mod:`.framework`), four
built-in passes (``guarded-by``, ``lock-order``,
``blocking-under-lock``, ``thread-hygiene``), a runtime
lock-order verifier (:mod:`.runtime`) and the ``repro lint-code``
driver (:mod:`.driver`).
"""

from repro.devtools.concurrency.driver import (
    DEFAULT_LINT_PATHS,
    lint_code,
)
from repro.devtools.concurrency.framework import CODE_PASSES, CodeIssue
from repro.devtools.concurrency.model import (
    ProjectModel,
    build_model,
    parse_module,
)
from repro.devtools.concurrency.runtime import (
    LockOrderRecorder,
    LockOrderVerdict,
    RecordingLock,
    instrument,
    verify_lock_order,
)

__all__ = [
    "DEFAULT_LINT_PATHS",
    "lint_code",
    "CODE_PASSES",
    "CodeIssue",
    "ProjectModel",
    "build_model",
    "parse_module",
    "LockOrderRecorder",
    "LockOrderVerdict",
    "RecordingLock",
    "instrument",
    "verify_lock_order",
]
