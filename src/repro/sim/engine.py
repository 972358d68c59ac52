"""Discrete-event simulator for pipeline schedules.

Executes a :class:`~repro.schedules.ir.Schedule` against a
:class:`~repro.cluster.ClusterSpec`:

* each stage owns a serial **compute engine** that runs its
  :class:`~repro.schedules.ir.ComputeInstr` stream in program order;
* each stage owns **communication engines** modelling the NCCL p2p
  channel.  The default is full-duplex (independent send and receive
  engines per stage, matching InfiniBand), which serialises outgoing and
  incoming bytes separately at the fair-share per-GPU bandwidth;
  ``duplex="half"`` forces a single engine per stage, reproducing the
  paper's Figure 6a pathology where a receive delays the following send
  (NCCL's shared-SM channel behaviour) -- kept as an ablation;
* a transfer starts once its SEND has been issued and the required
  engines are free, taking ``cluster.p2p_time(nbytes)`` seconds;
* a RECV blocks the stage's program counter (not its comm engine) until
  the tagged message has fully arrived.

Memory accounting: every stage tracks ``static + sum(stash_delta)`` with
transient ``workspace`` added while an instruction runs; the high-water
mark is reported per stage (paper Figures 4, 10, 11).

The simulator is deterministic: ties are broken by instruction issue
order.

The event core is the auto-tuner's innermost loop (one full run per
candidate), so it is written for speed: each program is compiled once
into primitive opcode tuples (durations, interned integer tags,
precomputed transfer times), events are plain tuples on one heap with a
monotonic sequence counter (the classic heapq+counter idiom), and the
per-stage state lives in parallel scalar lists.  ``record_trace=False``
skips :class:`~repro.sim.trace.Interval` allocation entirely -- metrics
(makespan, busy/blocked time, memory peaks, bytes moved) are tracked
directly and are identical with tracing on or off.
"""

from __future__ import annotations

import heapq
from itertools import count

from repro.cluster.topology import ClusterSpec
from repro.schedules.ir import (
    ComputeInstr,
    RecvInstr,
    Schedule,
    SendInstr,
)
from repro.sim.metrics import SimResult, StageMetrics
from repro.sim.trace import Interval, Trace

__all__ = ["PipelineSimulator", "simulate", "compile_programs", "DeadlockError"]

# Compiled opcodes (first element of every program tuple).
_COMPUTE, _SEND, _RECV = 0, 1, 2


def compile_programs(
    schedule: Schedule,
    cluster: ClusterSpec,
    tag_ids: dict[str, int] | None = None,
) -> tuple[list[list[tuple]], list[str]]:
    """Lower each program of ``schedule`` to primitive opcode tuples.

    Compute: ``(_COMPUTE, duration, stash_delta, workspace+, instr)``.
    Send:    ``(_SEND, tag_id, src, dst, nbytes, p2p_time, instr)``.
    Recv:    ``(_RECV, tag_id, instr)``.

    Tags are interned to dense integers (set membership and the
    blocked-receiver check become int compares) and every transfer
    duration is priced exactly once, with the same ``cluster.p2p_time``
    call the event loop used to make per event.

    ``tag_ids`` lets callers share one interning table across several
    compilations: the incremental re-simulator compiles a sibling
    schedule against its reference's table so that equal tag strings map
    to equal integers in both compiled forms, making opcode tuples
    directly comparable.  New tags extend the table in place.
    """
    p2p_time = cluster.p2p_time
    p2p_cache: dict[float, float] = {}
    if tag_ids is None:
        tag_ids = {}
    intern_tag = tag_ids.setdefault
    programs: list[list[tuple]] = []
    for prog in schedule.programs:
        ops: list[tuple] = []
        append = ops.append
        for instr in prog:
            if type(instr) is ComputeInstr or isinstance(instr, ComputeInstr):
                ws = instr.workspace
                append(
                    (
                        _COMPUTE,
                        instr.duration,
                        instr.stash_delta,
                        ws if ws > 0.0 else 0.0,
                        instr,
                    )
                )
            elif type(instr) is SendInstr or isinstance(instr, SendInstr):
                nbytes = instr.nbytes
                dur = p2p_cache.get(nbytes)
                if dur is None:
                    dur = p2p_cache[nbytes] = p2p_time(nbytes)
                append(
                    (
                        _SEND,
                        intern_tag(instr.tag, len(tag_ids)),
                        instr.stage,
                        instr.peer,
                        float(nbytes),
                        dur,
                        instr,
                    )
                )
            elif type(instr) is RecvInstr or isinstance(instr, RecvInstr):
                append((_RECV, intern_tag(instr.tag, len(tag_ids)), instr))
            else:
                raise TypeError(f"unknown instruction type: {type(instr)!r}")
        programs.append(ops)
    tags = [""] * len(tag_ids)
    for tag, tid in tag_ids.items():
        tags[tid] = tag
    return programs, tags


class DeadlockError(RuntimeError):
    """The schedule cannot make progress (missing message / cyclic wait)."""


class PipelineSimulator:
    """Simulate one training iteration of ``schedule`` on ``cluster``.

    Parameters
    ----------
    schedule:
        Per-stage instruction programs (validated before running).
    cluster:
        Provides the p2p link model; must have at least as many nodes as
        the schedule has stages.
    static_memory_bytes:
        Per-stage baseline (model states) added to activation tracking.
    duplex:
        ``"half"`` (one comm engine per stage) or ``"full"`` (default).
    verify:
        Run ``schedule.validate(("structure", "deadlock"))`` before
        simulating.  Callers that just verified the schedule (registry
        builds) may disable this.
    record_trace:
        Record per-interval :class:`~repro.sim.trace.Trace` entries.
        Disabling skips all Interval allocation (the tuner's hot path);
        every :class:`~repro.sim.metrics.SimResult` metric is identical
        either way -- only ``result.trace`` is left empty.
    """

    def __init__(
        self,
        schedule: Schedule,
        cluster: ClusterSpec,
        static_memory_bytes: list[float] | float = 0.0,
        duplex: str = "full",
        verify: bool = True,
        record_trace: bool = True,
    ) -> None:
        # The simulator only needs tag pairing (structure) and static
        # deadlock-freedom; accounting properties like stash balance are
        # builder-level invariants verified at build time, and
        # hand-written fragments (tests, what-if probes) may violate them
        # on purpose.
        if verify:
            schedule.validate(("structure", "deadlock"))
        if cluster.num_stages < schedule.num_stages:
            raise ValueError(
                f"cluster has {cluster.num_stages} nodes but schedule needs "
                f"{schedule.num_stages}"
            )
        if duplex not in ("half", "full"):
            raise ValueError(f"duplex must be 'half' or 'full', got {duplex!r}")
        self.schedule = schedule
        self.cluster = cluster
        self.duplex = duplex
        self.record_trace = record_trace
        p = schedule.num_stages
        if isinstance(static_memory_bytes, (int, float)):
            static_memory_bytes = [float(static_memory_bytes)] * p
        if len(static_memory_bytes) != p:
            raise ValueError("static_memory_bytes must have one entry per stage")
        self.static = [float(x) for x in static_memory_bytes]

    # -- public API ----------------------------------------------------------

    def run(self) -> SimResult:
        p = self.schedule.num_stages
        half = self.duplex == "half"
        programs, _ = compile_programs(self.schedule, self.cluster)
        sizes = [len(ops) for ops in programs]

        # Per-stage scalar state in parallel lists (cheaper than
        # attribute access on a state object in the inner loop).
        pc = [0] * p
        computing = [False] * p
        blocked_tag: list[int | None] = [None] * p
        blocked_since = [0.0] * p
        busy_time = [0.0] * p
        comm_blocked = [0.0] * p
        current_mem = list(self.static)
        peak_mem = list(self.static)
        bytes_sent = [0.0] * p
        bytes_received = [0.0] * p
        comm_free = [0.0] * p  # half-duplex engine
        send_free = [0.0] * p  # full-duplex engines
        recv_free = [0.0] * p

        events: list[tuple] = []  # (t, seq, opcode, ...)
        eseq = count()
        pending: list[tuple] = []  # (ready_time, seq, send_op)
        tseq = count()
        arrived: set[int] = set()
        trace = Trace() if self.record_trace else None
        heappush, heappop = heapq.heappush, heapq.heappop

        def start_transfers(now: float) -> None:
            # Start every pending transfer whose engines are free at
            # ``now``.  A single pass in (ready_time, issue order)
            # suffices: starting a transfer only makes engines busier,
            # never frees one.
            still: list[tuple] = []
            while pending:
                item = heappop(pending)
                if item[0] <= now:
                    op = item[2]
                    src, dst = op[2], op[3]
                    if half:
                        a, b = comm_free[src], comm_free[dst]
                    else:
                        a, b = send_free[src], recv_free[dst]
                    if (a if a > b else b) <= now:
                        end = now + op[5]
                        if half:
                            comm_free[src] = end
                            comm_free[dst] = end
                        else:
                            send_free[src] = end
                            recv_free[dst] = end
                        heappush(events, (end, next(eseq), _SEND, op, now))
                        continue
                still.append(item)
            for item in still:
                heappush(pending, item)

        def advance(stage: int, now: float) -> None:
            # Run the stage's program counter forward until it starts a
            # compute, blocks on a missing message, or finishes.
            ops = programs[stage]
            n = sizes[stage]
            i = pc[stage]
            while i < n:
                op = ops[i]
                code = op[0]
                if code == _COMPUTE:
                    computing[stage] = True
                    high = current_mem[stage] + op[3]
                    if high > peak_mem[stage]:
                        peak_mem[stage] = high
                    heappush(
                        events,
                        (now + op[1], next(eseq), _COMPUTE, stage, op, now),
                    )
                    pc[stage] = i
                    return
                if code == _SEND:
                    heappush(pending, (now, next(tseq), op))
                    i += 1
                    pc[stage] = i
                    start_transfers(now)
                    continue
                # _RECV
                if op[1] in arrived:
                    i += 1
                    continue
                blocked_tag[stage] = op[1]
                blocked_since[stage] = now
                pc[stage] = i
                return
            pc[stage] = i

        for stage in range(p):
            advance(stage, 0.0)

        # Events pop in non-decreasing time order, so the makespan is
        # simply the time of the last event (identical to the maximum
        # interval end the trace used to report).
        makespan = 0.0
        while events:
            ev = heappop(events)
            t = ev[0]
            makespan = t
            if ev[2] == _COMPUTE:
                stage, op = ev[3], ev[4]
                computing[stage] = False
                busy_time[stage] += op[1]
                cur = current_mem[stage] + op[2]
                current_mem[stage] = cur
                if cur > peak_mem[stage]:
                    peak_mem[stage] = cur
                if trace is not None:
                    instr = op[4]
                    trace.add(
                        Interval(
                            kind="compute",
                            stage=stage,
                            start=ev[5],
                            end=t,
                            label=instr.label,
                            micro_batch=instr.micro_batch,
                        )
                    )
                pc[stage] += 1
                advance(stage, t)
            else:  # _SEND completion
                op = ev[3]
                tid, src, dst = op[1], op[2], op[3]
                arrived.add(tid)
                bytes_sent[src] += op[4]
                bytes_received[dst] += op[4]
                if trace is not None:
                    instr = op[6]
                    trace.add(
                        Interval(
                            kind="comm",
                            stage=src,
                            start=ev[4],
                            end=t,
                            label=instr.tag,
                            micro_batch=instr.micro_batch,
                            peer=dst,
                        )
                    )
                start_transfers(t)
                if blocked_tag[dst] == tid:
                    blocked_tag[dst] = None
                    comm_blocked[dst] += t - blocked_since[dst]
                    pc[dst] += 1
                    advance(dst, t)

        # -- wrap-up ---------------------------------------------------------

        stuck = []
        for stage in range(p):
            if pc[stage] < sizes[stage]:
                instr = self.schedule.programs[stage][pc[stage]]
                tid = blocked_tag[stage]
                blocked = None if tid is None else programs[stage][pc[stage]][2].tag
                stuck.append(
                    f"stage {stage} stuck at pc={pc[stage]} "
                    f"({instr.label}, blocked_on={blocked})"
                )
        if pending:
            tags = [item[2][6].tag for item in pending]
            stuck.append(f"undelivered transfers: {tags[:5]}")
        if stuck:
            raise DeadlockError(
                f"schedule {self.schedule.name!r} deadlocked:\n  " + "\n  ".join(stuck)
            )

        stages = [
            StageMetrics(
                stage=i,
                busy_time=busy_time[i],
                comm_blocked_time=comm_blocked[i],
                peak_memory_bytes=peak_mem[i],
                static_memory_bytes=self.static[i],
                bytes_sent=bytes_sent[i],
                bytes_received=bytes_received[i],
            )
            for i in range(p)
        ]
        return SimResult(
            schedule_name=self.schedule.name,
            makespan=makespan,
            stages=stages,
            trace=trace if trace is not None else Trace(),
        )


def simulate(
    schedule: Schedule,
    cluster: ClusterSpec,
    static_memory_bytes: list[float] | float = 0.0,
    duplex: str = "full",
    verify: bool = True,
    record_trace: bool = True,
) -> SimResult:
    """Convenience wrapper: build a :class:`PipelineSimulator` and run it."""
    return PipelineSimulator(
        schedule, cluster, static_memory_bytes, duplex, verify, record_trace
    ).run()
