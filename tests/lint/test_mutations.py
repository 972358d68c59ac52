"""Mutation tests: each analyzer pass catches its seeded defect.

Every test corrupts a known-good built schedule (or constructs a
minimal pathological one) and asserts that exactly the pass designed
for that defect reports it -- the acceptance contract for the analyzer:
a dropped receive, a swapped send pair, a memory blow-up and a dead
instruction must each be caught by name.
"""

import copy

import pytest

from repro.model import Segment, SegmentKind
from repro.schedules.analysis import (
    SCHEDULE_PASSES,
    AnalysisContext,
    Severity,
)
from repro.schedules.analysis.commrace import (
    build_channel_graph,
    check_comm_order,
    check_hol_blocking,
)
from repro.schedules.analysis.deadcode import check_dead_instructions
from repro.schedules.costs import UnitCosts
from repro.schedules.ir import (
    ComputeInstr,
    OpType,
    RecvInstr,
    Schedule,
    SendInstr,
)
from repro.schedules.passes import check_structure
from repro.schedules.registry import build_schedule

SEG = Segment(SegmentKind.LAYERS, 0, 1)
CTX = AnalysisContext()


def _built():
    return build_schedule("helix", (4, 8), UnitCosts(num_layers=4))


def _drop_first_recv(sched):
    for prog in sched.programs:
        for i, instr in enumerate(prog):
            if isinstance(instr, RecvInstr):
                del prog[i]
                return instr
    raise AssertionError("no recv found")


def _swap_same_channel_sends(sched):
    """Swap the first two SENDs that share a (src, dst) channel."""
    for prog in sched.programs:
        by_channel = {}
        for i, instr in enumerate(prog):
            if isinstance(instr, SendInstr):
                by_channel.setdefault(instr.peer, []).append(i)
        for positions in by_channel.values():
            if len(positions) >= 2:
                a, b = positions[0], positions[1]
                prog[a], prog[b] = prog[b], prog[a]
                return prog[a].tag, prog[b].tag
    raise AssertionError("no channel carries two sends")


class TestDroppedRecv:
    def test_structure_reports_the_unpaired_send(self):
        sched = copy.deepcopy(_built())
        dropped = _drop_first_recv(sched)
        issues = check_structure(sched)
        orphans = [i for i in issues if "SEND has no matching RECV" in i.message]
        assert orphans, "dropped recv must orphan its send"
        (orphan,) = [i for i in orphans if i.tag == dropped.tag]
        assert orphan.stage == dropped.peer
        send = sched.programs[orphan.stage][orphan.step]
        assert isinstance(send, SendInstr) and send.tag == dropped.tag
        assert all(i.severity is Severity.ERROR for i in orphans)

    def test_full_pipeline_fails_and_gates_dependents(self):
        sched = copy.deepcopy(_built())
        _drop_first_recv(sched)
        report = SCHEDULE_PASSES.run(sched)
        assert not report.ok
        assert {i.pass_name for i in report.errors} == {"structure"}
        # Dataflow over unpaired tags is noise; must be skipped, not run.
        for name in ("deadlock", "comm-order", "comm-hol", "dead-code"):
            assert "structure" in report.skipped[name]


class TestSwappedSends:
    def test_comm_order_flags_the_race(self):
        sched = copy.deepcopy(_built())
        tags = _swap_same_channel_sends(sched)
        issues = check_comm_order(sched, CTX)
        assert issues, "swapped same-channel sends must race"
        assert all(i.severity is Severity.WARNING for i in issues)
        assert any(i.tag in tags for i in issues)
        assert any("out of send order" in i.message for i in issues)

    def test_swap_keeps_schedule_executable(self):
        """The defect is a portability hazard, not an IR error: the
        full pipeline still reports zero errors."""
        sched = copy.deepcopy(_built())
        _swap_same_channel_sends(sched)
        report = SCHEDULE_PASSES.run(sched)
        assert report.ok
        assert any(i.pass_name == "comm-order" for i in report.warnings)


class TestPairingDefects:
    def test_size_mismatch_flagged(self):
        s = Schedule(
            "sz", 2, 1,
            [
                [SendInstr(0, 1, "t", 64.0)],
                [RecvInstr(1, 0, "t", 32.0)],
            ],
        )
        (issue,) = check_structure(s)
        assert issue.message == "size mismatch for tag t"
        assert (issue.stage, issue.step, issue.tag) == (0, 0, "t")

    def test_endpoint_mismatch_flagged(self):
        s = Schedule(
            "ep", 3, 1,
            [
                [SendInstr(0, 1, "t", 8.0)],
                [],
                [RecvInstr(2, 0, "t", 8.0)],
            ],
        )
        (issue,) = check_structure(s)
        assert "endpoints mismatch for tag t" in issue.message
        assert (issue.stage, issue.step, issue.tag) == (0, 0, "t")

    def test_channel_graph_indexes_program_order(self):
        sched = _built()
        g = build_channel_graph(sched)
        for ops in g.sends.values():
            stages = {op.stage for op in ops}
            assert len(stages) == 1  # one sender per directed channel
            assert [op.step for op in ops] == sorted(op.step for op in ops)


class TestHeadOfLineBlocking:
    def test_multi_channel_hol_cycle_detected(self):
        """Deadlock-free under tag matching, stuck under in-order
        channels: stage 0 posts its recvs against channel (1->0)'s send
        order reversed, and completing t1's recv is what unblocks the
        peer's second send in the tag-matched world -- but under
        in-order matching t2 cannot be delivered first."""
        s = Schedule(
            "hol", 2, 1,
            [
                [
                    RecvInstr(0, 1, "u2", 1.0),
                    SendInstr(0, 1, "d1", 1.0),
                    RecvInstr(0, 1, "u1", 1.0),
                ],
                [
                    SendInstr(1, 0, "u1", 1.0),
                    SendInstr(1, 0, "u2", 1.0),
                    RecvInstr(1, 0, "d1", 1.0),
                ],
            ],
        )
        # Sanity: executable under the IR's tag-matched semantics.
        report = SCHEDULE_PASSES.run(s, passes=["structure", "deadlock"])
        assert report.ok
        issues = check_hol_blocking(s, CTX)
        assert issues
        assert all(i.severity is Severity.WARNING for i in issues)
        assert any("head-of-line blocking" in i.message for i in issues)

    def test_clean_schedule_no_hol(self):
        assert check_hol_blocking(_built(), CTX) == []


class TestPeakMemoryDefect:
    def test_blowup_caught_against_cap(self):
        sched = copy.deepcopy(_built())
        # Seed a leak-free but huge transient allocation on stage 1.
        sched.programs[1].append(
            ComputeInstr(
                OpType.F, 1, 0, SEG, duration=1.0,
                workspace=128.0 * (1 << 30),
            )
        )
        ctx = AnalysisContext(
            static_memory_bytes=0.0, memory_cap_bytes=96.0 * (1 << 30)
        )
        report = SCHEDULE_PASSES.run(
            sched, passes=["stash-balance", "peak-memory"], context=ctx
        )
        assert not report.ok
        (issue,) = report.errors
        assert issue.pass_name == "peak-memory"
        assert issue.stage == 1
        assert "exceeds memory cap" in issue.message


class TestDeadInstructions:
    def test_noop_compute_flagged(self):
        s = Schedule(
            "noop", 1, 1,
            [[
                ComputeInstr(OpType.F, 0, 0, SEG, duration=1.0),
                ComputeInstr(OpType.BW, 0, 0, SEG, duration=0.0),
            ]],
        )
        issues = check_dead_instructions(s, CTX)
        assert any("no-op compute" in i.message for i in issues)

    def test_redundant_push_pop_flagged(self):
        s = Schedule(
            "pushpop", 1, 1,
            [[
                ComputeInstr(OpType.F, 0, 0, SEG, duration=1.0,
                             stash_delta=64.0),
                ComputeInstr(OpType.B, 0, 0, SEG, duration=0.0,
                             stash_delta=-64.0),
            ]],
        )
        issues = check_dead_instructions(s, CTX)
        assert any("push/pop pair" in i.message for i in issues)

    def test_real_backward_consuming_stash_not_flagged(self):
        """F immediately followed by a *working* B (the helix fold
        boundary) is legitimate, not dead accounting."""
        s = Schedule(
            "fold", 1, 1,
            [[
                ComputeInstr(OpType.F, 0, 0, SEG, duration=1.0,
                             stash_delta=64.0),
                ComputeInstr(OpType.B, 0, 0, SEG, duration=2.0,
                             stash_delta=-64.0),
            ]],
        )
        issues = check_dead_instructions(s, CTX)
        assert not any("push/pop pair" in i.message for i in issues)

    def test_unreachable_micro_batch_flagged(self):
        s = Schedule(
            "warmup", 1, 2,
            [[
                ComputeInstr(OpType.F, 0, 0, SEG, duration=1.0),
                ComputeInstr(OpType.F, 0, 5, SEG, duration=1.0),
            ]],
        )
        issues = check_dead_instructions(s, CTX)
        assert any("unreachable" in i.message and "micro batch 5" in i.message
                   for i in issues)

    def test_flood_capped_with_summary(self):
        prog = [
            ComputeInstr(OpType.F, 0, 0, SEG, duration=0.0)
            for _ in range(20)
        ]
        s = Schedule("flood", 1, 1, [prog])
        issues = check_dead_instructions(s, CTX)
        noop = [i for i in issues if "no-op compute" in i.message]
        assert len(noop) == 8
        assert any("more finding(s)" in i.message for i in issues)


@pytest.mark.parametrize("mutation,pass_name", [
    (_drop_first_recv, "structure"),
    (_swap_same_channel_sends, "comm-order"),
])
def test_each_mutation_caught_by_its_pass(mutation, pass_name):
    """The acceptance matrix in one place: seeded defect -> catching pass."""
    sched = copy.deepcopy(_built())
    mutation(sched)
    report = SCHEDULE_PASSES.run(sched)
    assert any(i.pass_name == pass_name for i in report.issues)
