"""blocking-under-lock pass: slow operations while holding a lock.

Flags potentially long-running operations -- ``subprocess`` calls,
sqlite ``execute``/``commit``/``connect``, file I/O, ``Thread.join()``,
``Event.wait()``, ``time.sleep`` -- performed while holding any lock,
directly or through a resolvable call chain (the ``may_block``
fixpoint).  These are WARNINGs, not ERRORs: sometimes serialization is
the point (the planner's ``_eval_lock`` deliberately serializes cache
evaluation).  Deliberate cases must say so with an allowlist comment on
either the blocking line or the lock's ``with`` line::

    with self._eval_lock:  # lint-code: allow(blocking-under-lock) -- serialized on purpose
        plans = autotune(...)
"""

from __future__ import annotations

from repro.devtools.concurrency.framework import CODE_PASSES, CodeIssue
from repro.devtools.concurrency.model import ProjectModel
from repro.passkit import Severity

PASS_NAME = "blocking-under-lock"


@CODE_PASSES.register(
    PASS_NAME,
    description="no subprocess/sqlite/file-io/join/wait while holding a lock",
    category="concurrency",
)
def check_blocking_under_lock(model: ProjectModel) -> list[CodeIssue]:
    issues: list[CodeIssue] = []
    may_block = model.may_block()
    seen: set[tuple[str, int, str, str]] = set()

    def report(fn, line: int, held, kind: str, detail: str) -> None:
        for h in held:
            if model.allowed(fn, h.line, PASS_NAME):
                return
        if model.allowed(fn, line, PASS_NAME):
            return
        inner = min(held, key=lambda h: -h.line)
        key = (fn.qualname, line, inner.label, kind)
        if key in seen:
            return
        seen.add(key)
        issues.append(
            CodeIssue(
                PASS_NAME,
                f"{kind} operation ({detail}) while holding {inner.label}",
                severity=Severity.WARNING,
                file=fn.file,
                line=line,
                function=fn.qualname,
                symbol=inner.label,
            )
        )

    for fn in model.all_functions():
        for op in fn.blocking:
            if op.held:
                report(fn, op.line, op.held, op.kind, op.detail)
        for call in fn.calls:
            if not call.held:
                continue
            for callee in model.resolve_call(call, fn):
                for kind, witness in may_block.get(
                    callee.qualname, {}
                ).items():
                    report(fn, call.line, call.held, kind, witness)
    return issues
