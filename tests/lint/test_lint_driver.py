"""`lint_schedules` driver + the `repro lint` CLI verb.

The registry gate the CI job enforces: every registered schedule builds
and comes back ERROR-free from the full pass pipeline at p in {2, 4}.
"""

import json
import weakref

import pytest

import repro.schedules.analysis.commrace as commrace
from repro.cli import main
from repro.lint import LintReport, default_micro_batches, lint_schedules
from repro.schedules.analysis import SCHEDULE_PASSES, AnalysisContext
from repro.schedules.costs import UnitCosts
from repro.schedules.registry import (
    available_schedules,
    build_schedule,
    get_schedule,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def full_sweep():
    return lint_schedules()


class TestLintSchedules:
    def test_registry_is_error_free(self, full_sweep):
        """The acceptance gate: zero errors over all schedules at p=2,4."""
        assert full_sweep.ok
        assert full_sweep.total_errors == 0

    def test_every_schedule_at_every_p_analyzed(self, full_sweep):
        expected = {
            (name, p) for p in (2, 4) for name in available_schedules()
        }
        got = {(c.schedule, c.p) for c in full_sweep.cells}
        assert got == expected
        assert all(c.skip_reason is None for c in full_sweep.cells)

    def test_known_hazards_surface_as_warnings(self, full_sweep):
        """helix-naive is the paper's Fig. 6 pathology: its unfused
        P2P stream must trip the comm hazard passes -- as warnings."""
        naive = [c for c in full_sweep.cells if c.schedule == "helix-naive"]
        assert all(c.errors == 0 and c.warnings > 0 for c in naive)

    def test_static_peaks_populated_under_cap(self, full_sweep):
        for c in full_sweep.cells:
            assert len(c.static_peaks) == c.p
            assert c.peak_gib is not None and c.peak_gib > 0

    def test_infeasible_m_becomes_skipped_cell(self):
        # helix requires m % (fold*p) == 0; m=2 at p=4 cannot build.
        report = lint_schedules(
            schedules=["helix"], pp_sizes=(4,), num_micro_batches=2
        )
        (cell,) = report.cells
        assert cell.skip_reason is not None
        assert "multiple of" in cell.skip_reason
        assert cell.errors == 0
        assert report.ok  # skipped cells never fail the gate

    def test_strict_mode_fails_on_warnings(self):
        report = lint_schedules(
            schedules=["helix-naive"], pp_sizes=(2,), strict=True
        )
        assert report.total_errors == 0
        assert report.total_warnings > 0
        assert not report.ok

    def test_pass_subset_respected(self):
        report = lint_schedules(schedules=["helix"], pp_sizes=(2,),
                                passes=["structure", "stash-balance"])
        (cell,) = report.cells
        assert cell.report.passes_run == ("structure", "stash-balance")

    def test_default_micro_batches_on_divisor_grid(self):
        for name in available_schedules():
            spec = get_schedule(name)
            for p in (2, 4):
                m = default_micro_batches(spec, p)
                d = spec.micro_batch_divisor(p)
                assert m % d == 0 and m >= 2 * p

    def test_json_dict_shape(self, full_sweep):
        payload = full_sweep.to_json_dict()
        assert payload["ok"] is True
        assert payload["errors"] == 0
        assert len(payload["cells"]) == len(full_sweep.cells)
        cell = payload["cells"][0]
        assert {"schedule", "p", "m", "recompute", "issues",
                "static_peak_bytes"} <= set(cell)
        json.dumps(payload)  # must be serialisable as-is

    def test_format_summary_line(self, full_sweep):
        text = full_sweep.format()
        assert text.splitlines()[-1].startswith("lint:")
        assert "-> PASS" in text

    def test_format_empty_report(self):
        empty = LintReport(cells=[], workload_label="nothing")
        assert "0 cell(s)" in empty.format()
        assert empty.ok


class TestChannelGraphSharing:
    """comm-order and comm-hol share one channel graph per cell."""

    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        build = commrace.build_channel_graph

        def counted(schedule):
            built.append(schedule)
            return build(schedule)

        monkeypatch.setattr(commrace, "build_channel_graph", counted)
        return built

    def test_a_cell_builds_its_graph_once(self, builds):
        report = lint_schedules(schedules=["helix"], pp_sizes=(4,))
        (cell,) = report.cells
        assert {"comm-order", "comm-hol"} <= set(cell.report.passes_run)
        assert len(builds) == 1

    def test_a_context_never_hands_a_schedule_another_ones_graph(self, builds):
        ctx = AnalysisContext()
        first = build_schedule("helix", (4, 8), UnitCosts(num_layers=4))
        graph = ctx.channel_graph(first)
        assert ctx.channel_graph(first) is graph
        del first
        second = build_schedule("helix", (4, 8), UnitCosts(num_layers=4))
        assert ctx.channel_graph(second) is not graph
        assert len(builds) == 2

    def test_no_cell_keeps_its_schedule(self, monkeypatch):
        """By each cell's run, every earlier cell's schedule is freed."""
        subjects = []
        run = SCHEDULE_PASSES.run

        def tracked(schedule, *args, **kwargs):
            assert [ref for ref in subjects if ref() is not None] == []
            subjects.append(weakref.ref(schedule))
            return run(schedule, *args, **kwargs)

        monkeypatch.setattr(SCHEDULE_PASSES, "run", tracked)
        lint_schedules(schedules=["helix", "1f1b", "zb1p"], pp_sizes=(4,))
        assert len(subjects) == 3


class TestLintCli:
    def test_default_sweep_exits_zero(self, capsys):
        code, out, _ = run(capsys, "lint")
        assert code == 0
        assert "-> PASS" in out

    def test_strict_promotes_warnings_to_failure(self, capsys):
        code, out, _ = run(
            capsys, "lint", "--schedules", "helix-naive", "-p", "2", "--strict"
        )
        assert code == 1
        assert "-> FAIL" in out

    def test_json_output_parses(self, capsys):
        code, out, _ = run(
            capsys, "lint", "--schedules", "helix", "-p", "2", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True

    def test_out_writes_report_file(self, capsys, tmp_path):
        target = tmp_path / "lint.json"
        code, _, _ = run(
            capsys, "lint", "--schedules", "helix", "-p", "2", "--json",
            "--out", str(target),
        )
        assert code == 0
        assert json.loads(target.read_text())["ok"] is True

    def test_list_passes(self, capsys):
        code, out, _ = run(capsys, "lint", "--list-passes")
        assert code == 0
        listed = [line.split()[0] for line in out.splitlines()[2:]]
        assert listed == [
            "structure", "deadlock", "program-order", "stash-balance",
            "comm-order", "comm-hol", "peak-memory", "dead-code",
        ]

    def test_explicit_pass_subset(self, capsys):
        code, out, _ = run(
            capsys, "lint", "--schedules", "helix", "-p", "2",
            "--passes", "structure,deadlock",
        )
        assert code == 0

    def test_unknown_schedule_errors(self, capsys):
        code, _, err = run(capsys, "lint", "--schedules", "no-such-schedule")
        assert code != 0
        assert "unknown schedule" in err
