"""The pass framework shared by ``repro lint`` and ``repro lint-code``.

Both static analyzers are a :class:`PassRegistry` of named passes over
one kind of *subject*: the schedule-IR analyzer
(:mod:`repro.schedules.analysis`) checks a built
:class:`~repro.schedules.ir.Schedule`, the concurrency lint
(:mod:`repro.devtools.concurrency`) a parsed
:class:`~repro.devtools.concurrency.model.ProjectModel` of the repo's
own sources.  Everything they share lives here, on the standard library
alone:

* :class:`Severity` -- ``INFO < WARNING < ERROR``;
* :class:`Issue` -- one finding (pass, message, severity).  Each
  analyzer subclasses it with its own optional location fields; those
  become the finding's JSON keys and, unless the subclass says
  otherwise, its table columns;
* :class:`Pass` -- one registered pass: metadata plus its body;
* :class:`PassRegistry` -- registration, lazy loading of the built-in
  pass modules, and the ``requires``-gated runner;
* :class:`Report` -- what one run found, with a ``strict`` gate, an
  aligned text table and a JSON payload.

Writing a new pass
------------------

Register a function on the analyzer's registry.  It takes the subject
(and, optionally, the registry's analysis context) and returns issues;
``registry.run`` and the CLI verb pick it up immediately::

    from repro.passkit import Severity
    from repro.schedules.analysis.framework import SCHEDULE_PASSES, PassIssue

    @SCHEDULE_PASSES.register(
        "my-pass",
        description="one-line summary for --list-passes",
        category="hazard",          # a grouping label for listings
        requires=("structure",),    # skip when these passes found errors
    )
    def check_my_property(schedule, context):
        return [
            PassIssue("my-pass", "what went wrong, in one sentence",
                      severity=Severity.WARNING, stage=stage, step=step)
            for stage, step in _violations(schedule)
        ]

Passes are pure observers: they read the subject and the context and
never mutate either.  ``ERROR`` findings mean the subject is wrong (the
CLI verb exits non-zero), ``WARNING`` marks a hazard worth a human look
(``--strict`` fails on it too), ``INFO`` is advisory.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Generic, Iterable, Sequence, TypeVar

__all__ = ["Severity", "Issue", "Pass", "PassRegistry", "Report"]


@functools.total_ordering
class Severity(enum.Enum):
    """How bad a finding is.  Orders ``INFO < WARNING < ERROR``."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]

    def __lt__(self, other: "Severity") -> bool:
        if not isinstance(other, Severity):
            return NotImplemented
        return self.rank < other.rank


_SEVERITY_RANK = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}


@dataclass(frozen=True)
class Issue:
    """One finding of a pass.

    Subclasses add optional location fields; :meth:`to_json_dict` emits
    them between ``severity`` and ``message`` in declaration order, and
    :meth:`table` shows them as columns unless the subclass overrides
    :meth:`columns` and :meth:`cells` together.
    """

    pass_name: str
    message: str
    severity: Severity = Severity.ERROR

    @classmethod
    def location_fields(cls) -> tuple[str, ...]:
        """The fields a subclass adds to the base finding."""
        return tuple(f.name for f in fields(cls)[len(fields(Issue)):])

    @classmethod
    def columns(cls) -> tuple[str, ...]:
        """Headers of the location columns :meth:`table` shows."""
        return cls.location_fields()

    def cells(self) -> tuple[str, ...]:
        """This finding's location cells, aligned with :meth:`columns`."""
        return tuple(
            "-" if (value := getattr(self, name)) is None else str(value)
            for name in self.columns()
        )

    def sort_key(self) -> tuple:
        """Report order: most severe first, ties in the order found."""
        return (-self.severity.rank,)

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "pass": self.pass_name,
            "severity": self.severity.value,
        }
        out.update((n, getattr(self, n)) for n in self.location_fields())
        out["message"] = self.message
        return out

    @classmethod
    def table(cls, issues: Iterable["Issue"]) -> str:
        """Render findings as an aligned table, rows in the order given."""
        rows = [("pass", "severity", *cls.columns(), "message")]
        rows.extend(
            (i.pass_name, i.severity.value, *i.cells(), i.message) for i in issues
        )
        n = len(rows[0]) - 1  # the message column is never padded
        widths = [max(len(r[c]) for r in rows) for c in range(n)]
        lines = [
            "  ".join([*(r[c].ljust(widths[c]) for c in range(n)), r[n]]).rstrip()
            for r in rows
        ]
        lines.insert(1, "  ".join("-" * w for w in widths) + "  " + "-" * 7)
        return "\n".join(lines)


IssueT = TypeVar("IssueT", bound=Issue)

#: A pass body: ``(subject, context) -> issues``.
PassBody = Callable[[Any, Any], list]


@dataclass(frozen=True)
class Pass:
    """One registered pass: metadata plus its body.

    ``requires`` names passes whose ERROR findings make this one
    meaningless (dataflow over unpaired tags, say); the runner then
    skips it with a recorded reason instead of reporting noise.
    """

    name: str
    fn: PassBody
    description: str = ""
    category: str = "correctness"
    requires: tuple[str, ...] = ()


@dataclass
class Report(Generic[IssueT]):
    """Everything one :meth:`PassRegistry.run` found.

    ``title`` names the subject in the text header; ``subject`` holds
    the keys that lead the JSON payload.  ``skipped`` maps pass name ->
    reason for passes whose prerequisites reported errors.  ``strict``
    is the gate :attr:`ok` applies: errors always fail, and a strict
    report fails on warnings too.
    """

    title: str
    subject: dict[str, Any] = field(default_factory=dict)
    issues: list[IssueT] = field(default_factory=list)
    passes_run: tuple[str, ...] = ()
    skipped: dict[str, str] = field(default_factory=dict)
    strict: bool = False

    def by_severity(self, severity: Severity) -> list[IssueT]:
        return [i for i in self.issues if i.severity is severity]

    @property
    def errors(self) -> list[IssueT]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[IssueT]:
        return self.by_severity(Severity.WARNING)

    @property
    def ok(self) -> bool:
        """The gate: no errors and, when strict, no warnings either."""
        return not self.errors and not (self.strict and self.warnings)

    @property
    def max_severity(self) -> Severity | None:
        return max((i.severity for i in self.issues), default=None)

    def format(self) -> str:
        lines = [
            f"{self.title}: "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.by_severity(Severity.INFO))} info "
            f"({len(self.passes_run)} passes run)"
        ]
        if self.issues:
            ordered = sorted(self.issues, key=lambda i: i.sort_key())
            lines.append(type(self.issues[0]).table(ordered))
        for name, reason in self.skipped.items():
            lines.append(f"skipped {name}: {reason}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            **self.subject,
            "ok": self.ok,
            "passes_run": list(self.passes_run),
            "skipped": dict(self.skipped),
            "issues": [i.to_json_dict() for i in self.issues],
        }


def _dependency_order(passes: list[Pass]) -> list[Pass]:
    """Stable topological order: prerequisites before dependents.

    A pass may be registered before a pass it requires (a plugin's, say),
    so the default pipeline sorts by ``requires`` as well -- a pass never
    runs before the passes whose errors would gate it.  Ties keep the
    given order; a dependency cycle (a registration bug) degrades to the
    given order rather than looping.
    """
    names = {p.name for p in passes}
    remaining = list(passes)
    done: set[str] = set()
    ordered: list[Pass] = []
    while remaining:
        for idx, p in enumerate(remaining):
            if all(r in done or r not in names for r in p.requires):
                ordered.append(p)
                done.add(p.name)
                del remaining[idx]
                break
        else:
            ordered.extend(remaining)
            break
    return ordered


class PassRegistry(Generic[IssueT]):
    """The named passes over one kind of subject, and their runner.

    ``kind`` names a pass in messages ("analysis pass").  ``builtin``
    lists the modules whose import registers the built-in passes; they
    load on the first lookup, so a pass module can import its registry
    without an import cycle.  ``describe(subject)`` gives a report's
    ``(title, subject)`` pair, and ``context()`` builds the context the
    passes get when a caller passes none.
    """

    def __init__(
        self,
        kind: str,
        *,
        describe: Callable[[Any], tuple[str, dict[str, Any]]],
        builtin: Sequence[str],
        context: Callable[[], Any] | None = None,
    ) -> None:
        self.kind = kind
        self._describe = describe
        self._builtin = tuple(builtin)
        self._context = context
        self._passes: dict[str, Pass] = {}
        self._loaded = False

    def register(
        self,
        name: str,
        *,
        description: str = "",
        category: str = "correctness",
        requires: Sequence[str] = (),
    ) -> Callable[[Callable[..., list]], Callable[..., list]]:
        """Decorator registering a pass under ``name``.

        The function may take ``(subject)`` or ``(subject, context)``;
        one-argument functions are wrapped so every body has the same
        signature, and the wrapper keeps the function's module, which
        orders :meth:`names`.  The function itself is returned
        unchanged, so direct calls keep working.  A pass from outside
        the ``builtin`` modules loads them first, so taking a built-in
        name fails here instead of on every later lookup; the
        built-ins' own registrations do not, so loading never re-enters
        itself.
        """

        def deco(fn: Callable[..., list]) -> Callable[..., list]:
            if fn.__module__ not in self._builtin:
                self._load_builtin()
            if name in self._passes:
                raise ValueError(f"{self.kind} {name!r} already registered")
            positional = [
                p
                for p in inspect.signature(fn).parameters.values()
                if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
            ]
            if len(positional) == 1:
                body: PassBody = functools.wraps(fn)(
                    lambda subject, context, _fn=fn: _fn(subject)
                )
            else:
                body = fn
            self._passes[name] = Pass(
                name=name,
                fn=body,
                description=description,
                category=category,
                requires=tuple(requires),
            )
            return fn

        return deco

    def _load_builtin(self) -> None:
        if self._loaded:
            return
        for module in self._builtin:
            importlib.import_module(module)
        # Only after every import succeeded: a failing pass module must
        # fail loudly on the next lookup too.
        self._loaded = True

    def get(self, name: str) -> Pass:
        """Look up a registered pass by name."""
        self._load_builtin()
        try:
            return self._passes[name]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}; registered: {self.names()}"
            ) from None

    def names(self) -> list[str]:
        """Names of every registered pass, built-ins first.

        Built-in passes list in the order of the ``builtin`` modules,
        each module's in registration order, then every other pass in
        registration order -- whichever pass module was imported first.
        """
        self._load_builtin()
        rank = {module: i for i, module in enumerate(self._builtin)}
        return sorted(
            self._passes,
            key=lambda name: rank.get(self._passes[name].fn.__module__, len(rank)),
        )

    def run(
        self,
        subject: Any,
        passes: Sequence[str | Pass] | None = None,
        context: Any = None,
    ) -> Report[IssueT]:
        """Run a pass pipeline over ``subject`` and collect every finding.

        ``passes`` accepts registered names or :class:`Pass` objects and
        runs them in the given order; ``None`` runs every registered pass,
        prerequisites first.  Every pass runs except those whose
        ``requires`` reported errors, which are skipped with a reason.
        """
        if context is None and self._context is not None:
            context = self._context()
        if passes is None:
            resolved = _dependency_order([self.get(n) for n in self.names()])
        else:
            resolved = [p if isinstance(p, Pass) else self.get(p) for p in passes]

        title, keys = self._describe(subject)
        report: Report[IssueT] = Report(title, keys)
        failed: set[str] = set()
        ran: list[str] = []
        for p in resolved:
            broken = sorted(set(p.requires) & failed)
            if broken:
                report.skipped[p.name] = (
                    f"prerequisite pass(es) {', '.join(broken)} reported errors"
                )
                continue
            issues = p.fn(subject, context)
            ran.append(p.name)
            report.issues.extend(issues)
            if any(i.severity is Severity.ERROR for i in issues):
                failed.add(p.name)
        report.passes_run = tuple(ran)
        return report
