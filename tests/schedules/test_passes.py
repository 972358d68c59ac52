"""Verification pass pipeline: clean schedules pass, corrupted ones fail."""

import copy

import pytest

from repro.model import Segment, SegmentKind
from repro.schedules.costs import UnitCosts
from repro.schedules.ir import (
    ComputeInstr,
    OpType,
    RecvInstr,
    Schedule,
    SendInstr,
)
from repro.schedules.passes import (
    ScheduleVerificationError,
    check_deadlock_freedom,
    check_program_order,
    check_stash_balance,
    check_structure,
)
from repro.schedules.registry import build_schedule

SEG = Segment(SegmentKind.LAYERS, 0, 1)


def _built_helix():
    return build_schedule("helix", (4, 8), UnitCosts(num_layers=4))


def _compute(op, stage, mb=0, stash=0.0):
    return ComputeInstr(op, stage, mb, SEG, duration=1.0, stash_delta=stash)


class TestCleanSchedules:
    def test_built_schedule_is_pass_clean(self):
        _built_helix().validate()

    def test_forward_only_fragment_is_clean(self):
        """Fragments without backwards are legal (probes, sim tests)."""
        s = Schedule("frag", 1, 1, [[_compute(OpType.F, 0)]])
        s.validate()


class TestCorruptedSchedules:
    def test_dropped_recv_rejected(self):
        """Removing one RECV from a real schedule must not verify."""
        sched = _built_helix()
        corrupted = copy.deepcopy(sched)
        for prog in corrupted.programs:
            for i, instr in enumerate(prog):
                if isinstance(instr, RecvInstr):
                    del prog[i]
                    break
            else:
                continue
            break
        with pytest.raises(ScheduleVerificationError, match="unpaired"):
            corrupted.validate()

    def test_static_deadlock_detected(self):
        """Two stages that each RECV before their SEND: cyclic wait."""
        s = Schedule(
            "cycle", 2, 1,
            [
                [RecvInstr(0, 1, "b", 1.0), SendInstr(0, 1, "a", 1.0)],
                [RecvInstr(1, 0, "a", 1.0), SendInstr(1, 0, "b", 1.0)],
            ],
        )
        issues = check_deadlock_freedom(s)
        assert len(issues) == 2
        assert all(i.pass_name == "deadlock" for i in issues)
        assert "waiting on tag" in issues[0].message
        with pytest.raises(ScheduleVerificationError, match="deadlock"):
            s.validate()

    def test_moved_recv_creates_deadlock_in_real_schedule(self):
        """Hoisting a backward-phase RECV to the front of stage 0 blocks
        the whole pipeline: its producer transitively needs stage 0's own
        forward SENDs, which now sit behind the blocked RECV."""
        sched = _built_helix()
        corrupted = copy.deepcopy(sched)
        prog = corrupted.programs[0]
        last_recv = max(
            i for i, x in enumerate(prog) if isinstance(x, RecvInstr)
        )
        prog.insert(0, prog.pop(last_recv))
        with pytest.raises(ScheduleVerificationError) as err:
            corrupted.validate()
        issues = err.value.issues
        assert issues and issues[0].pass_name == "deadlock"

    def test_backward_before_forward(self):
        s = Schedule(
            "order", 1, 1,
            [[_compute(OpType.B, 0), _compute(OpType.F, 0)]],
        )
        issues = check_program_order(s)
        assert any("before its forward" in i.message for i in issues)

    def test_bw_before_bi(self):
        s = Schedule(
            "order", 1, 1,
            [[_compute(OpType.F, 0), _compute(OpType.BW, 0)]],
        )
        issues = check_program_order(s)
        assert any("before its backward-B" in i.message for i in issues)

    def test_stage_field_mismatch(self):
        s = Schedule("struct", 2, 1, [[_compute(OpType.F, 1)], []])
        issues = check_structure(s)
        assert any("sits in program" in i.message for i in issues)

    def test_stash_leak_detected(self):
        s = Schedule(
            "leak", 1, 1,
            [[_compute(OpType.F, 0, stash=64.0), _compute(OpType.B, 0, stash=-32.0)]],
        )
        issues = check_stash_balance(s)
        assert any("net stash" in i.message for i in issues)

    def test_over_release_detected(self):
        s = Schedule(
            "over", 1, 1,
            [[_compute(OpType.F, 0, stash=32.0), _compute(OpType.B, 0, stash=-64.0)]],
        )
        issues = check_stash_balance(s)
        assert any("negative" in i.message for i in issues)

    def test_raised_error_carries_the_failing_pass_issues(self):
        s = Schedule("struct", 2, 1, [[_compute(OpType.F, 1)], []])
        with pytest.raises(ScheduleVerificationError) as err:
            s.validate()
        issues = err.value.issues
        assert issues and issues[0].pass_name == "structure"
        assert (issues[0].stage, issues[0].step) == (0, 0)


class TestValidate:
    def test_structural_error_skips_deadlock(self):
        """A RECV with no SEND also blocks forever, but ``deadlock``
        requires ``structure``: it is skipped, not run."""
        s = Schedule("orphan", 2, 1, [[RecvInstr(0, 1, "t", 1.0)], []])
        assert check_deadlock_freedom(s), "deadlock would report the stuck stage"
        with pytest.raises(ScheduleVerificationError) as err:
            s.validate()
        (issue,) = err.value.issues
        assert issue.pass_name == "structure"
        assert (issue.stage, issue.step, issue.tag) == (0, 0, "t")

    def test_every_failing_pass_is_reported(self):
        """Only ``requires`` gates a pass: independent passes all report."""
        s = Schedule(
            "two", 2, 1,
            [
                [_compute(OpType.B, 0), SendInstr(0, 1, "t", 8.0)],
                [RecvInstr(1, 0, "t", 4.0)],
            ],
        )
        with pytest.raises(ScheduleVerificationError) as err:
            s.validate()
        assert {i.pass_name for i in err.value.issues} == {
            "structure", "program-order",
        }

    def test_named_passes_only(self):
        leak = Schedule("leak", 1, 1, [[_compute(OpType.F, 0, stash=64.0)]])
        leak.validate(("structure", "deadlock"))
        with pytest.raises(ScheduleVerificationError, match="net stash"):
            leak.validate()


class TestStructureProvenance:
    def test_duplicates_and_self_sends_anchor_to_their_step(self):
        s = Schedule(
            "dup", 2, 1,
            [
                [SendInstr(0, 1, "t", 8.0), SendInstr(0, 1, "t", 8.0),
                 SendInstr(0, 0, "self", 8.0), RecvInstr(0, 0, "self", 8.0)],
                [RecvInstr(1, 0, "t", 8.0)],
            ],
        )
        found = {i.message: (i.stage, i.step, i.tag) for i in check_structure(s)}
        assert found["duplicate send tag t"] == (0, 1, "t")
        assert next(
            where for msg, where in found.items() if msg.startswith("self-send")
        ) == (0, 2, "self")

    def test_each_defect_class_is_capped_at_eight(self):
        sends = [SendInstr(0, 1, f"t{k:02d}", 8.0) for k in range(20)]
        misplaced = [_compute(OpType.F, 0) for _ in range(20)]
        s = Schedule("flood", 2, 1, [sends, misplaced])
        issues = check_structure(s)
        unpaired = [i for i in issues if "unpaired" in i.message]
        assert [i.tag for i in unpaired] == [f"t{k:02d}" for k in range(8)]
        assert len([i for i in issues if "sits in program" in i.message]) == 8
        assert len(issues) == 16
