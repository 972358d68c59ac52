"""thread-hygiene pass: lifecycle discipline for threads and resources.

Three checks:

* **untracked daemon thread** (ERROR): a ``threading.Thread(...,
  daemon=True)`` that is started but never stored anywhere the code
  could later join or drain it (not appended/assigned/returned).  These
  die mid-write at interpreter exit -- the exact failure mode graceful
  shutdown exists to prevent.  Non-daemon untracked spawns are
  WARNINGs (they at least block exit until done).
* **unclosed thread-local resource** (WARNING): a class owning a
  ``threading.local()`` attribute but no ``close()`` method; per-thread
  resources (sqlite connections, file handles) leak for every handler
  thread the server retires.
* **module-global mutation from a thread target** (WARNING): a function
  used as a ``Thread(target=...)`` that rebinds or mutates module-level
  mutable state without a module-level lock held.
"""

from __future__ import annotations

from repro.devtools.concurrency.framework import CODE_PASSES, CodeIssue
from repro.devtools.concurrency.model import ProjectModel
from repro.passkit import Severity

PASS_NAME = "thread-hygiene"


@CODE_PASSES.register(
    PASS_NAME,
    description="threads tracked for shutdown; thread-local resources closed",
    category="hygiene",
)
def check_thread_hygiene(model: ProjectModel) -> list[CodeIssue]:
    issues: list[CodeIssue] = []
    for fn in model.all_functions():
        for spawn in fn.spawns:
            if spawn.tracked:
                continue
            if model.allowed(fn, spawn.line, PASS_NAME):
                continue
            what = "daemon thread" if spawn.daemon else "thread"
            target = f" (target={spawn.target})" if spawn.target else ""
            issues.append(
                CodeIssue(
                    PASS_NAME,
                    f"{what}{target} started but not tracked for "
                    "shutdown (store it so close()/join() can drain it)",
                    severity=Severity.ERROR if spawn.daemon else Severity.WARNING,
                    file=spawn.file,
                    line=spawn.line,
                    function=fn.qualname,
                    symbol=spawn.target,
                )
            )
    for mod in model.modules:
        for cls in mod.classes.values():
            for attr in cls.thread_local_attrs:
                if cls.has_close:
                    continue
                if mod.allowed(cls.line, PASS_NAME):
                    continue
                issues.append(
                    CodeIssue(
                        PASS_NAME,
                        f"{cls.name}.{attr} holds threading.local() state "
                        "but the class has no close(); per-thread resources "
                        "leak as handler threads retire",
                        severity=Severity.WARNING,
                        file=cls.file,
                        line=cls.line,
                        symbol=f"{cls.name}.{attr}",
                    )
                )
        # Thread targets mutating module-level state without a lock.
        for fn in mod.functions.values():
            short = fn.name
            if short not in mod.thread_targets:
                continue
            for mut in fn.global_mutations:
                if any(h.label.startswith(f"{mod.name}.") for h in mut.held):
                    continue
                if mod.allowed(mut.line, PASS_NAME):
                    continue
                issues.append(
                    CodeIssue(
                        PASS_NAME,
                        f"thread target mutates module-level {mut.name!r} "
                        "without a module lock held",
                        severity=Severity.WARNING,
                        file=mut.file,
                        line=mut.line,
                        function=fn.qualname,
                        symbol=mut.name,
                    )
                )
    return issues
