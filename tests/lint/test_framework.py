"""Schedule-side framework behaviour: issue rendering, built-in metadata.

The rules both analyzers share (registration, ``requires`` skipping,
dependency order, JSON keys, tables, the strict gate) are checked once
per registry in ``tests/test_passkit.py``; this file keeps what only
the schedule analyzer has.
"""

from repro.model import Segment, SegmentKind
from repro.schedules.analysis import (
    SCHEDULE_PASSES,
    AnalysisContext,
    PassIssue,
    Severity,
)
from repro.schedules.ir import ComputeInstr, OpType, Schedule
from repro.schedules.passes import ScheduleVerificationError

SEG = Segment(SegmentKind.LAYERS, 0, 1)


def _schedule(programs=None, p=1, m=1):
    return Schedule("t", p, m, programs if programs is not None else [[]] * p)


def _compute(stage=0, mb=0, stash=0.0, duration=1.0):
    return ComputeInstr(
        OpType.F, stage, mb, SEG, duration=duration, stash_delta=stash
    )


class TestPassIssueFormat:
    def test_legacy_error_shape_preserved(self):
        """Error issues keep the `[pass] (stage N) message` shape the
        pre-framework tests and callers match against."""
        assert str(PassIssue("structure", "boom", stage=2)) == (
            "[structure] (stage 2) boom"
        )
        assert str(PassIssue("structure", "boom")) == "[structure] boom"

    def test_structured_context_rendered(self):
        s = str(
            PassIssue(
                "comm-order",
                "raced",
                severity=Severity.WARNING,
                stage=1,
                step=7,
                tag="fwd:mb0:0->1",
            )
        )
        assert "warning" in s
        assert "stage 1" in s and "step 7" in s and "'fwd:mb0:0->1'" in s


class TestRegistration:
    def test_single_arg_pass_wrapped(self):
        """Legacy one-argument check functions get the uniform body."""
        report = SCHEDULE_PASSES.run(_schedule(), passes=["structure"])
        assert report.passes_run == ("structure",) and report.issues == []

    def test_metadata_present(self):
        ap = SCHEDULE_PASSES.get("comm-hol")
        assert ap.category == "hazard"
        assert ap.requires == ("structure", "deadlock")


class TestRunAnalysis:
    def test_failing_prerequisite_skips_dependents(self):
        # stage field mismatch -> structure errors -> deadlock/dead-code skip
        bad = _schedule([[_compute(stage=3)]])
        report = SCHEDULE_PASSES.run(bad)
        assert not report.ok
        assert "deadlock" in report.skipped
        assert "structure" in report.skipped["deadlock"]
        assert "deadlock" not in report.passes_run

    def test_report_names_the_schedule(self):
        report = SCHEDULE_PASSES.run(_schedule([[_compute()]]))
        assert report.format().startswith("schedule 't': 0 error(s)")
        assert report.to_json_dict()["schedule"] == "t"

    def test_default_context_has_no_memory_cap(self):
        big = _schedule([[_compute(stash=64.0), _compute(stash=-64.0)]])
        assert SCHEDULE_PASSES.run(big, passes=["peak-memory"]).ok

    def test_context_threaded_to_passes(self):
        ctx = AnalysisContext(static_memory_bytes=0.0, memory_cap_bytes=1.0)
        big = _schedule([[_compute(stash=64.0), _compute(stash=-64.0)]])
        report = SCHEDULE_PASSES.run(big, passes=["peak-memory"], context=ctx)
        assert not report.ok
        assert "exceeds memory cap" in report.issues[0].message


class TestVerificationErrorTable:
    def test_format_prints_aligned_table(self):
        err = ScheduleVerificationError(
            "bad",
            [
                PassIssue("structure", "unpaired tag 'x'", stage=0),
                PassIssue("structure", "self-send", stage=1, step=4),
            ],
        )
        text = err.format()
        assert text.startswith("schedule 'bad' failed verification:")
        lines = text.splitlines()
        assert "severity" in lines[1]
        assert len(lines) == 2 + 1 + 2  # header, rule, two rows
