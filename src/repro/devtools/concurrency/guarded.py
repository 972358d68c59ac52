"""guarded-by pass: declared fields must be accessed under their lock.

A field becomes *guarded* three ways (see
:mod:`~repro.devtools.concurrency.model`): a ``# guarded-by: _lock``
comment on its declaration, a module-level ``GUARDED_FIELDS`` registry,
or the analyzer's own seed for the core threaded classes.  Every
``self.<field>`` access in a method of that class must then sit inside
``with self.<lock>`` -- lexically or via an RLock already held by a
caller is *not* credited; the discipline is lexical on purpose, which
keeps both the analyzer and the code honest.

``__init__``/``__post_init__``/``__del__`` are exempt (the object is
not yet / no longer shared), as is any line carrying
``# lint-code: allow(guarded-by)``.
"""

from __future__ import annotations

from repro.devtools.concurrency.framework import CODE_PASSES, CodeIssue
from repro.devtools.concurrency.model import _EXEMPT_METHODS, ProjectModel
from repro.passkit import Severity

PASS_NAME = "guarded-by"


@CODE_PASSES.register(
    PASS_NAME,
    description="guarded fields only touched inside `with <their lock>`",
    category="concurrency",
)
def check_guarded_fields(model: ProjectModel) -> list[CodeIssue]:
    issues: list[CodeIssue] = []
    for fn in model.all_functions():
        cls = model.class_of(fn)
        if cls is None or not cls.guarded:
            continue
        if fn.name in _EXEMPT_METHODS:
            continue
        for access in fn.accesses:
            lock_attr = cls.guarded.get(access.field)
            if lock_attr is None:
                continue
            want = cls.lock_label(lock_attr)
            if any(h.label == want for h in access.held):
                continue
            if model.allowed(fn, access.line, PASS_NAME):
                continue
            verb = "written" if access.write else "read"
            issues.append(
                CodeIssue(
                    PASS_NAME,
                    f"field {cls.name}.{access.field} is guarded by "
                    f"{lock_attr} but {verb} without holding it",
                    severity=Severity.ERROR,
                    file=access.file,
                    line=access.line,
                    function=fn.qualname,
                    symbol=f"{cls.name}.{access.field}",
                )
            )
    return issues
