"""Entry point tying model extraction and the pass pipeline together.

:func:`lint_code` is what ``repro lint-code`` and CI call: build the
project model over the requested paths (defaulting to the threaded
packages, ``src/repro/service`` and ``src/repro/tuner``), run every
registered pass (or a chosen subset), and return the report.  The
report's ``strict`` gate mirrors ``repro lint``: ERRORs always fail,
``strict`` additionally fails on WARNINGs.
"""

from __future__ import annotations

import os
from typing import Sequence

from repro.devtools.concurrency.framework import CODE_PASSES, CodeIssue
from repro.devtools.concurrency.model import ProjectModel, build_model
from repro.passkit import Report

__all__ = ["DEFAULT_LINT_PATHS", "lint_code"]

#: Packages swept by default: everything that runs under the threaded
#: HTTP service.  Extend with ``--paths`` as more of ``src/`` goes
#: multi-threaded.
DEFAULT_LINT_PATHS = (
    os.path.join("src", "repro", "service"),
    os.path.join("src", "repro", "tuner"),
)


def lint_code(
    paths: Sequence[str | os.PathLike] | None = None,
    passes: Sequence[str] | None = None,
    *,
    root: str | os.PathLike | None = None,
) -> tuple[Report[CodeIssue], ProjectModel]:
    """Sweep ``paths`` with the concurrency passes.

    ``paths`` defaults to :data:`DEFAULT_LINT_PATHS` resolved against
    ``root`` (default: the current working directory).  Returns both the
    report and the extracted model so callers (the runtime cross-check,
    tests) can reuse the static lock graph without re-parsing.

    Raises :class:`ValueError` when a path does not exist or the sweep
    finds no ``.py`` file, so a mistyped path or a run from the wrong
    directory cannot pass by linting nothing.
    """
    if paths is None:
        base = os.fspath(root) if root is not None else os.getcwd()
        paths = [os.path.join(base, p) for p in DEFAULT_LINT_PATHS]
    missing = [os.fspath(p) for p in paths if not os.path.exists(p)]
    if missing:
        raise ValueError(f"lint-code path(s) not found: {', '.join(missing)}")
    model = build_model(paths)
    if not model.modules:
        raise ValueError(
            "lint-code found no .py file under "
            + ", ".join(os.fspath(p) for p in paths)
        )
    return CODE_PASSES.run(model, passes=passes), model
