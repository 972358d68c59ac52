"""The code side of the pass framework (:mod:`repro.passkit`).

The concurrency lint registers its passes on :data:`CODE_PASSES`, the
sibling of the schedule analyzer's registry.  A pass here analyzes a
whole :class:`~repro.devtools.concurrency.model.ProjectModel` (every
module swept together, because lock order and call resolution are
cross-module properties), and a finding -- a :class:`CodeIssue` --
anchors to ``file:line`` plus the enclosing function instead of
stage/step/tag.  See :mod:`repro.passkit` for the pass-author API; a
code pass takes ``(model)`` and may call the model's
resolution/fixpoint helpers but never mutates it.

Severity semantics match the schedule analyzer: ``ERROR`` means the
code violates the declared locking discipline (``repro lint-code``
exits non-zero); ``WARNING`` means a hazard worth a human look
(``--strict`` promotes it to a failure); ``INFO`` is advisory.  Respect
the allowlist: a finding whose line -- or whose guarding lock's
acquisition line -- carries a ``# lint-code: allow(<pass-name>) --
reason`` comment is suppressed by convention, via
:meth:`ProjectModel.allowed
<repro.devtools.concurrency.model.ProjectModel.allowed>`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.passkit import Issue, PassRegistry, Severity

__all__ = ["CodeIssue", "CODE_PASSES"]


@dataclass(frozen=True)
class CodeIssue(Issue):
    """One finding of a code pass, with file/line provenance.

    ``function`` is the qualified name of the enclosing function or
    method (``module.Class.method``); ``symbol`` names the field, lock
    or thread the finding is about.  All four are optional --
    module-wide findings leave them ``None``.
    """

    file: str | None = None
    line: int | None = None
    function: str | None = None
    symbol: str | None = None

    def __str__(self) -> str:
        where = ""
        if self.file is not None:
            where = f" {self.file}"
            if self.line is not None:
                where += f":{self.line}"
        sev = "" if self.severity is Severity.ERROR else f" {self.severity.value}:"
        fn = f" [{self.function}]" if self.function else ""
        return f"[{self.pass_name}]{sev}{where}{fn} {self.message}"

    @classmethod
    def columns(cls) -> tuple[str, ...]:
        return ("location", "function")

    def cells(self) -> tuple[str, ...]:
        loc = "-"
        if self.file is not None:
            loc = self.file if self.line is None else f"{self.file}:{self.line}"
        return (loc, self.function or "-")

    def sort_key(self) -> tuple:
        return (-self.severity.rank, self.file or "", self.line or 0)


#: Every code pass, in report order.
CODE_PASSES: PassRegistry[CodeIssue] = PassRegistry(
    "code analysis pass",
    describe=lambda model: (
        f"{len(model.modules)} file(s)",
        {"files": [m.path for m in model.modules]},
    ),
    builtin=(
        "repro.devtools.concurrency.guarded",
        "repro.devtools.concurrency.lockorder",
        "repro.devtools.concurrency.blocking",
        "repro.devtools.concurrency.hygiene",
    ),
)
