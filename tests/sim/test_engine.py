"""Discrete-event simulator unit tests."""

import pytest

from repro.cluster import abstract_cluster
from repro.model import Segment, SegmentKind
from repro.schedules.ir import ComputeInstr, OpType, RecvInstr, Schedule, SendInstr
from repro.schedules.passes import ScheduleVerificationError
from repro.sim import DeadlockError, PipelineSimulator, simulate

SEG = Segment(SegmentKind.LAYERS, 0, 1)


def _f(stage, mb=0, dur=1.0, stash=0.0, ws=0.0):
    return ComputeInstr(
        OpType.F, stage, mb, SEG, duration=dur, stash_delta=stash, workspace=ws
    )


class TestBasicExecution:
    def test_single_stage_serial(self):
        s = Schedule("t", 1, 2, [[_f(0, 0, 2.0), _f(0, 1, 3.0)]])
        r = simulate(s, abstract_cluster(1))
        assert r.makespan == pytest.approx(5.0)
        assert r.stages[0].busy_time == pytest.approx(5.0)
        assert r.stages[0].bubble_time(r.makespan) == pytest.approx(0.0)

    def test_transfer_blocks_receiver(self):
        s = Schedule(
            "t", 2, 1,
            [
                [_f(0, dur=2.0), SendInstr(0, 1, "x", nbytes=4.0)],
                [RecvInstr(1, 0, "x", nbytes=4.0), _f(1, dur=1.0)],
            ],
        )
        r = simulate(s, abstract_cluster(2))  # 1 byte/s links
        # stage1 waits 2 (compute) + 4 (transfer) then computes 1.
        assert r.makespan == pytest.approx(7.0)
        assert r.stages[1].comm_blocked_time == pytest.approx(6.0)

    def test_compute_overlaps_transfer(self):
        s = Schedule(
            "t", 2, 2,
            [
                [_f(0, 0, 2.0), SendInstr(0, 1, "x", 4.0), _f(0, 1, 10.0)],
                [RecvInstr(1, 0, "x", 4.0), _f(1, 0, 1.0)],
            ],
        )
        r = simulate(s, abstract_cluster(2))
        # Sender keeps computing while the wire moves data.
        assert r.makespan == pytest.approx(12.0)

    def test_recv_before_send_ready_is_fine(self):
        s = Schedule(
            "t", 2, 1,
            [
                [_f(0, dur=5.0), SendInstr(0, 1, "x", 1.0)],
                [RecvInstr(1, 0, "x", 1.0), _f(1, dur=1.0)],
            ],
        )
        r = simulate(s, abstract_cluster(2))
        assert r.makespan == pytest.approx(7.0)

    def test_missing_message_deadlocks(self):
        s = Schedule("t", 2, 1, [[], [RecvInstr(1, 0, "x", 1.0), _f(1)]])
        # Bypass validation (unpaired tag) to exercise the deadlock path.
        sim = PipelineSimulator.__new__(PipelineSimulator)
        sim.schedule = s
        sim.cluster = abstract_cluster(2)
        sim.duplex = "full"
        sim.static = [0.0, 0.0]
        with pytest.raises(DeadlockError):
            sim.run()


class TestVerify:
    def test_unpaired_fragment_rejected_before_running(self):
        s = Schedule("t", 2, 1, [[], [RecvInstr(1, 0, "x", 1.0), _f(1)]])
        with pytest.raises(ScheduleVerificationError) as err:
            simulate(s, abstract_cluster(2))
        # deadlock requires structure, so only structure's finding shows.
        (issue,) = err.value.issues
        assert issue.pass_name == "structure" and issue.tag == "x"
        assert (issue.stage, issue.step) == (1, 0)

    def test_cyclic_wait_rejected_before_running(self):
        s = Schedule(
            "t", 2, 1,
            [
                [RecvInstr(0, 1, "b", 1.0), SendInstr(0, 1, "a", 1.0)],
                [RecvInstr(1, 0, "a", 1.0), SendInstr(1, 0, "b", 1.0)],
            ],
        )
        with pytest.raises(ScheduleVerificationError, match="static deadlock"):
            simulate(s, abstract_cluster(2))

    def test_unbalanced_stash_fragments_accepted(self):
        # Stash balance is a builder invariant; probes may break it.
        leak = Schedule("t", 1, 1, [[_f(0, stash=5.0)]])
        over_release = Schedule("t", 1, 1, [[_f(0, stash=-5.0)]])
        r = simulate(leak, abstract_cluster(1))
        assert r.stages[0].peak_memory_bytes == pytest.approx(5.0)
        r = simulate(over_release, abstract_cluster(1))
        assert r.makespan == pytest.approx(1.0)


class TestEngines:
    def _two_senders(self):
        # Stages 1 and 2 each send 4 bytes to stage 0.
        return Schedule(
            "t", 3, 1,
            [
                [
                    RecvInstr(0, 1, "a", 4.0),
                    RecvInstr(0, 2, "b", 4.0),
                    _f(0, dur=1.0),
                ],
                [_f(1, dur=1.0), SendInstr(1, 0, "a", 4.0)],
                [_f(2, dur=1.0), SendInstr(2, 0, "b", 4.0)],
            ],
        )

    def test_receiver_engine_serialises_incoming(self):
        r = simulate(self._two_senders(), abstract_cluster(3), duplex="full")
        # Both transfers contend for stage 0's receive engine: 1 + 4 + 4 + 1.
        assert r.makespan == pytest.approx(10.0)

    def test_half_duplex_send_recv_contend(self):
        s = Schedule(
            "t", 2, 2,
            [
                [
                    _f(0, 0, 1.0),
                    SendInstr(0, 1, "x", 4.0),
                    RecvInstr(0, 1, "y", 4.0),
                    _f(0, 1, 1.0),
                ],
                [
                    _f(1, 0, 1.0),
                    SendInstr(1, 0, "y", 4.0),
                    RecvInstr(1, 0, "x", 4.0),
                    _f(1, 1, 1.0),
                ],
            ],
        )
        half = simulate(s, abstract_cluster(2), duplex="half")
        full = simulate(s, abstract_cluster(2), duplex="full")
        # Full duplex moves x and y simultaneously; half duplex serialises.
        assert full.makespan == pytest.approx(6.0)
        assert half.makespan == pytest.approx(10.0)

    def test_invalid_duplex(self):
        s = Schedule("t", 1, 1, [[_f(0)]])
        with pytest.raises(ValueError):
            simulate(s, abstract_cluster(1), duplex="quarter")


class TestMemoryTracking:
    def test_stash_peak(self):
        prog = [
            _f(0, 0, 1.0, stash=10.0),
            _f(0, 1, 1.0, stash=10.0),
            ComputeInstr(OpType.B, 0, 1, SEG, duration=1.0, stash_delta=-10.0),
            ComputeInstr(OpType.B, 0, 0, SEG, duration=1.0, stash_delta=-10.0),
        ]
        r = simulate(Schedule("t", 1, 2, [prog]), abstract_cluster(1))
        assert r.stages[0].peak_memory_bytes == pytest.approx(20.0)

    def test_workspace_transient(self):
        prog = [_f(0, 0, 1.0, stash=5.0, ws=100.0)]
        r = simulate(Schedule("t", 1, 1, [prog]), abstract_cluster(1))
        assert r.stages[0].peak_memory_bytes == pytest.approx(100.0)

    def test_static_baseline(self):
        prog = [_f(0, 0, 1.0, stash=5.0)]
        r = simulate(Schedule("t", 1, 1, [prog]), abstract_cluster(1), 50.0)
        assert r.stages[0].peak_memory_bytes == pytest.approx(55.0)

    def test_static_per_stage_list(self):
        s = Schedule("t", 2, 1, [[_f(0)], [_f(1)]])
        r = simulate(s, abstract_cluster(2), [10.0, 20.0])
        assert r.stages[0].peak_memory_bytes == pytest.approx(10.0)
        assert r.stages[1].peak_memory_bytes == pytest.approx(20.0)

    def test_static_list_wrong_len(self):
        s = Schedule("t", 2, 1, [[_f(0)], [_f(1)]])
        with pytest.raises(ValueError):
            simulate(s, abstract_cluster(2), [1.0])


class TestMetrics:
    def test_bytes_accounting(self):
        s = Schedule(
            "t", 2, 1,
            [
                [_f(0), SendInstr(0, 1, "x", 7.0)],
                [RecvInstr(1, 0, "x", 7.0), _f(1)],
            ],
        )
        r = simulate(s, abstract_cluster(2))
        assert r.stages[0].bytes_sent == 7.0
        assert r.stages[1].bytes_received == 7.0

    def test_throughput(self):
        s = Schedule("t", 1, 1, [[_f(0, dur=2.0)]])
        r = simulate(s, abstract_cluster(1))
        assert r.throughput_tokens_per_s(100.0) == pytest.approx(50.0)

    def test_summary_renders(self):
        s = Schedule("t", 1, 1, [[_f(0)]])
        r = simulate(s, abstract_cluster(1))
        assert "schedule=t" in r.summary()

    def test_cluster_too_small(self):
        s = Schedule("t", 2, 1, [[_f(0)], [_f(1)]])
        with pytest.raises(ValueError):
            simulate(s, abstract_cluster(1))


class TestRecordTraceOff:
    """record_trace=False (the tuner's hot path) must change only the trace."""

    def _real_workload(self):
        from repro.workloads import Workload

        wl = Workload.paper("1.3B", "H20", 4, 8192)
        return wl, wl.build("helix"), wl.static_memory()

    def test_metrics_identical_with_and_without_trace(self):
        wl, sched, static = self._real_workload()
        on = simulate(sched, wl.cluster, static_memory_bytes=static)
        off = simulate(
            sched, wl.cluster, static_memory_bytes=static, record_trace=False
        )
        assert off.makespan == on.makespan
        for a, b in zip(on.stages, off.stages):
            assert b.busy_time == a.busy_time
            assert b.comm_blocked_time == a.comm_blocked_time
            assert b.peak_memory_bytes == a.peak_memory_bytes
            assert b.bytes_sent == a.bytes_sent
            assert b.bytes_received == a.bytes_received

    def test_trace_is_empty_but_present(self):
        wl, sched, static = self._real_workload()
        off = simulate(
            sched, wl.cluster, static_memory_bytes=static, record_trace=False
        )
        assert off.trace.intervals == [] or not list(off.trace.intervals)

    def test_makespan_matches_trace_makespan_when_on(self):
        # The event loop reports the last popped event's time; with the
        # trace on this must coincide with the max interval end.
        wl, sched, static = self._real_workload()
        on = simulate(sched, wl.cluster, static_memory_bytes=static)
        assert on.makespan == on.trace.makespan
