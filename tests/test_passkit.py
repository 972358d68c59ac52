"""The shared pass-framework rules, checked on both analyzers' registries.

``repro lint`` (schedule passes) and ``repro lint-code`` (code passes)
register on one :class:`~repro.passkit.PassRegistry` type and report
through one :class:`~repro.passkit.Report` type.  Every rule here runs
once per registry, so neither analyzer can drift from the other:
duplicate rejection, unknown-name errors, ``requires`` skipping,
dependency order, JSON keys, table alignment and the strict gate.
Analyzer-specific rendering stays with each analyzer's own tests.
"""

from dataclasses import dataclass
from typing import Any, Callable

import pytest

from repro.devtools.concurrency import CODE_PASSES, CodeIssue
from repro.model import Segment, SegmentKind
from repro.passkit import (
    Issue,
    Pass,
    PassRegistry,
    Report,
    Severity,
    _dependency_order,
)
from repro.schedules.analysis import SCHEDULE_PASSES, PassIssue
from repro.schedules.ir import ComputeInstr, OpType, Schedule

from tests.devtools.test_model import project


@dataclass(frozen=True)
class Flavour:
    """One analyzer as the shared rules see it."""

    registry: PassRegistry
    issue: type[Issue]
    #: A small subject every built-in pass accepts without findings.
    subject: Callable[[], Any]
    #: Names the analyzer's built-in modules register.
    builtin: frozenset[str]
    #: Keys that lead the analyzer's report JSON.
    subject_keys: tuple[str, ...]
    #: One full set of location fields for the analyzer's issue type.
    location: dict[str, Any]
    #: Table headers of those location fields.
    columns: tuple[str, ...]
    #: The table cells that location prints, one per header.
    cells: tuple[str, ...]


def _schedule() -> Schedule:
    seg = Segment(SegmentKind.LAYERS, 0, 1)
    return Schedule("t", 1, 1, [[ComputeInstr(OpType.F, 0, 0, seg, duration=1.0)]])


SCHEDULE = Flavour(
    registry=SCHEDULE_PASSES,
    issue=PassIssue,
    subject=_schedule,
    builtin=frozenset({
        "structure", "deadlock", "program-order", "stash-balance",
        "comm-order", "comm-hol", "peak-memory", "dead-code",
    }),
    subject_keys=("schedule",),
    location={"stage": 0, "step": 12, "tag": "t0"},
    columns=("stage", "step", "tag"),
    cells=("0", "12", "t0"),
)
CODE = Flavour(
    registry=CODE_PASSES,
    issue=CodeIssue,
    subject=lambda: project("x = 1"),
    builtin=frozenset({
        "guarded-by", "lock-order", "blocking-under-lock", "thread-hygiene",
    }),
    subject_keys=("files",),
    location={"file": "a.py", "line": 3, "function": "a.S.f", "symbol": "S.x"},
    columns=("location", "function"),
    cells=("a.py:3", "a.S.f"),
)


@pytest.fixture(params=[SCHEDULE, CODE], ids=["schedule", "code"])
def flavour(request) -> Flavour:
    return request.param


@pytest.fixture
def scratch_registry(flavour, monkeypatch) -> PassRegistry:
    """The flavour's registry, with registrations undone after the test."""
    registry = flavour.registry
    registry.names()  # load the built-ins first, so they stay registered
    monkeypatch.setattr(registry, "_passes", dict(registry._passes))
    return registry


class TestSeverity:
    def test_total_order(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR
        assert Severity.ERROR >= Severity.WARNING >= Severity.INFO
        assert max(Severity.INFO, Severity.ERROR) is Severity.ERROR

    def test_default_is_error(self, flavour):
        assert flavour.issue("p", "m").severity is Severity.ERROR


class TestRegistration:
    def test_builtin_passes_registered(self, flavour):
        assert flavour.builtin <= set(flavour.registry.names())

    def test_duplicate_name_rejected(self, flavour):
        flavour.registry.names()  # built-ins register on first lookup
        taken = sorted(flavour.builtin)[0]
        with pytest.raises(ValueError, match="already registered"):
            flavour.registry.register(taken)(lambda subject: [])

    def test_unknown_pass_lookup(self, flavour):
        with pytest.raises(KeyError, match=f"unknown {flavour.registry.kind}"):
            flavour.registry.get("no-such-pass")

    def test_unknown_pass_in_a_run(self, flavour):
        with pytest.raises(KeyError, match="no-such-pass"):
            flavour.registry.run(flavour.subject(), passes=["no-such-pass"])

    def test_register_returns_the_function(self, flavour, scratch_registry):
        def body(subject):
            return []

        assert scratch_registry.register("zz-plain")(body) is body
        report = scratch_registry.run(flavour.subject(), passes=["zz-plain"])
        assert report.passes_run == ("zz-plain",) and report.issues == []


class TestRunner:
    def test_clean_subject_runs_every_pass(self, flavour):
        report = flavour.registry.run(flavour.subject())
        assert report.ok and report.issues == [] and not report.skipped
        assert report.max_severity is None
        assert set(report.passes_run) == set(flavour.registry.names())

    def test_requires_skips_dependents_of_failing_passes(self, flavour):
        broken = Pass("prereq", lambda s, c: [flavour.issue("prereq", "boom")])
        gated = Pass("dependent", lambda s, c: [], requires=("prereq",))
        free = Pass("independent", lambda s, c: [])
        report = flavour.registry.run(
            flavour.subject(), passes=[broken, gated, free]
        )
        assert report.passes_run == ("prereq", "independent")
        assert "prereq" in report.skipped["dependent"]
        assert not report.ok

    def test_warnings_do_not_gate_dependents(self, flavour):
        warn = Pass(
            "prereq",
            lambda s, c: [flavour.issue("prereq", "w", severity=Severity.WARNING)],
        )
        gated = Pass("dependent", lambda s, c: [], requires=("prereq",))
        report = flavour.registry.run(flavour.subject(), passes=[warn, gated])
        assert report.passes_run == ("prereq", "dependent")

    def test_explicit_selection_keeps_the_given_order(self, flavour):
        names = sorted(flavour.builtin)[:2][::-1]
        report = flavour.registry.run(flavour.subject(), passes=names)
        assert list(report.passes_run) == names

    def test_default_pipeline_runs_prerequisites_first(
        self, flavour, scratch_registry
    ):
        # Registered dependent-first: the runner must still order them.
        scratch_registry.register("zz-dep", requires=("zz-base",))(
            lambda subject: []
        )
        scratch_registry.register("zz-base")(lambda subject: [])
        ran = list(scratch_registry.run(flavour.subject()).passes_run)
        assert ran.index("zz-base") < ran.index("zz-dep")
        for name in ran:
            for req in scratch_registry.get(name).requires:
                assert ran.index(req) < ran.index(name)


class TestDependencyOrder:
    def test_prerequisites_run_first(self):
        a = Pass("z-dep", lambda s, c: [], requires=("a-base",))
        b = Pass("a-base", lambda s, c: [])
        assert [p.name for p in _dependency_order([a, b])] == ["a-base", "z-dep"]

    def test_cycle_degrades_to_given_order(self):
        a = Pass("x", lambda s, c: [], requires=("y",))
        b = Pass("y", lambda s, c: [], requires=("x",))
        assert [p.name for p in _dependency_order([a, b])] == ["x", "y"]

    def test_foreign_requires_ignored(self):
        a = Pass("solo", lambda s, c: [], requires=("not-in-list",))
        assert [p.name for p in _dependency_order([a])] == ["solo"]


class TestReport:
    def _report(self, flavour, *severities: Severity) -> Report:
        report = flavour.registry.run(flavour.subject(), passes=[])
        report.issues = [
            flavour.issue("p", f"m{k}", severity=sev, **flavour.location)
            for k, sev in enumerate(severities)
        ]
        return report

    def test_json_keys(self, flavour):
        payload = self._report(flavour, Severity.ERROR).to_json_dict()
        assert list(payload) == [
            *flavour.subject_keys, "ok", "passes_run", "skipped", "issues",
        ]
        assert payload["ok"] is False
        issue = payload["issues"][0]
        assert list(issue) == ["pass", "severity", *flavour.location, "message"]
        assert {k: issue[k] for k in flavour.location} == flavour.location

    def test_table_alignment(self, flavour):
        issues = [
            flavour.issue("alpha", "first", **flavour.location),
            flavour.issue("beta-longer", "second", severity=Severity.WARNING),
        ]
        lines = flavour.issue.table(issues).splitlines()
        assert lines[0].split() == ["pass", "severity", *flavour.columns, "message"]
        assert set(lines[1]) == {"-", " "}
        assert lines[2].split()[2:-1] == list(flavour.cells)
        assert lines[3].split()[2:-1] == ["-"] * len(flavour.columns)
        offset = lines[0].index("message")
        assert lines[2][offset:] == "first"
        assert lines[3][offset:] == "second"
        assert all(line == line.rstrip() for line in lines)

    def test_text_sorts_most_severe_first(self, flavour):
        report = self._report(flavour, Severity.INFO, Severity.ERROR, Severity.WARNING)
        text = report.format()
        assert text.startswith(report.title)
        assert "1 error(s), 1 warning(s), 1 info" in text
        assert text.index("m1") < text.index("m2") < text.index("m0")

    def test_strict_gate(self, flavour):
        warn_only = self._report(flavour, Severity.WARNING, Severity.INFO)
        assert warn_only.ok
        warn_only.strict = True
        assert not warn_only.ok
        assert warn_only.to_json_dict()["ok"] is False
        err = self._report(flavour, Severity.ERROR)
        assert not err.ok
        err.strict = True
        assert not err.ok
        info_only = self._report(flavour, Severity.INFO)
        info_only.strict = True
        assert info_only.ok

    def test_max_severity(self, flavour):
        assert self._report(flavour).max_severity is None
        report = self._report(flavour, Severity.INFO, Severity.WARNING)
        assert report.max_severity is Severity.WARNING
