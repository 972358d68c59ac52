"""Incremental re-simulation: replay a shared timeline prefix.

No sweep calls this module: the auto-tuner simulates every candidate in
full, because resuming recompute siblings made sweeps no faster and
its checkpoints about tripled a cold sweep's peak allocation.  It stays
only because ``planbench/launcher.py`` wraps :func:`simulate_recording`,
:func:`resimulate` and this module's ``compile_programs`` by name;
deleting it waits on a benchmark change.

Recompute siblings (``NONE`` vs ``WITHOUT_ATTENTION``) share structure
and diverge only late in their instruction streams: they run a
bit-identical forward phase and only differ once recompute ops appear
in the backward phase, so a full simulation of each re-derives an
identical event prefix.  This module replays that prefix instead:

* :func:`simulate_recording` runs one **reference** simulation while
  recording (a) periodic full-state checkpoints of the event core, (b) a
  memory log of compute start/complete steps, and (c) the message arrival
  order.  The metrics are bit-identical to :func:`repro.sim.simulate`.
* :func:`resimulate` simulates a **sibling** schedule by locating the
  first per-stage *timing divergence* between the compiled op streams,
  restoring the latest checkpoint that precedes every divergence, and
  running the event loop forward from there.

Safety model -- the divergence detector is conservative by construction:

* Only the fields the event loop's *timing* depends on are compared
  (compute: duration; send: tag/endpoints/bytes/transfer time; recv:
  tag).  Two ops with equal projections schedule identically.
* Memory fields (``stash_delta``/``workspace``) are excluded from the
  projection because memory never feeds back into event timing; instead
  the sibling's memory trajectory is *replayed exactly* from the recorded
  log using the sibling's own per-op deltas (recompute siblings diverge
  in memory immediately even while their timing prefix is identical).
* Anything else -- different stage counts, duplex modes, no checkpoint
  before the earliest divergence -- falls back to a full simulation.

Whenever the incremental path runs, every metric in the returned
:class:`~repro.sim.metrics.SimResult` is bit-identical to a from-scratch
simulation of the sibling (enforced by the differential test suite).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.cluster.topology import ClusterSpec
from repro.schedules.ir import Schedule
from repro.sim.engine import (
    _COMPUTE,
    _RECV,
    _SEND,
    DeadlockError,
    PipelineSimulator,
    compile_programs,
)
from repro.sim.metrics import SimResult, StageMetrics
from repro.sim.trace import Trace

__all__ = [
    "SimReference",
    "ResimStats",
    "simulate_recording",
    "resimulate",
]


@dataclass
class _Checkpoint:
    """Full event-core state after ``events_processed`` events."""

    events_processed: int
    pc: list[int]
    computing: list[bool]
    blocked_tag: list
    blocked_since: list[float]
    busy_time: list[float]
    comm_blocked: list[float]
    bytes_sent: list[float]
    bytes_received: list[float]
    comm_free: list[float]
    send_free: list[float]
    recv_free: list[float]
    events: list[tuple]
    pending: list[tuple]
    eseq: int
    tseq: int
    arrived_len: int
    memory_len: int
    makespan: float


@dataclass
class SimReference:
    """A recorded reference simulation that siblings can resume from.

    ``memory_log`` holds ``(stage, op_index, kind)`` steps (kind 0 =
    compute start, 1 = compute complete) in event order; a sibling
    replays its prefix with its *own* per-op stash/workspace values, so
    checkpoints never store memory state.  ``arrival_log`` is the
    message arrival order (interned tag ids); a checkpoint's ``arrived``
    set is its prefix.  ``tag_ids`` is the shared interning table:
    sibling compilations extend it so equal tags compare as equal ints.
    """

    schedule: Schedule
    cluster: ClusterSpec
    static: list[float]
    duplex: str
    programs: list[list[tuple]]
    sizes: list[int]
    tag_ids: dict[str, int]
    checkpoint_every: int
    memory_log: list[tuple] = field(default_factory=list)
    arrival_log: list[int] = field(default_factory=list)
    checkpoints: list[_Checkpoint] = field(default_factory=list)
    result: SimResult | None = None


@dataclass(frozen=True)
class ResimStats:
    """How one :func:`resimulate` call executed (for tests/telemetry)."""

    mode: str  # "incremental" | "fallback"
    reason: str | None = None
    resumed_at_events: int = 0
    divergence_indices: tuple[int, ...] | None = None


def _timing_equal(a: tuple, b: tuple) -> bool:
    """True iff two compiled ops schedule identically (memory ignored)."""
    code = a[0]
    if code != b[0]:
        return False
    if code == _COMPUTE:
        return a[1] == b[1]
    if code == _SEND:
        return (
            a[1] == b[1]
            and a[2] == b[2]
            and a[3] == b[3]
            and a[4] == b[4]
            and a[5] == b[5]
        )
    return a[1] == b[1]  # _RECV: tag id


def _run_loop(
    schedule: Schedule,
    programs: list[list[tuple]],
    sizes: list[int],
    static: list[float],
    half: bool,
    state: dict | None,
    rec: SimReference | None,
) -> SimResult:
    """The engine event loop, resumable and optionally recording.

    Semantically identical to :meth:`PipelineSimulator.run` with
    ``record_trace=False`` (the differential suite pins this); the only
    additions are the recording hooks and the ability to start from a
    restored checkpoint state instead of time zero.
    """
    p = schedule.num_stages
    if state is None:
        pc = [0] * p
        computing = [False] * p
        blocked_tag: list = [None] * p
        blocked_since = [0.0] * p
        busy_time = [0.0] * p
        comm_blocked = [0.0] * p
        current_mem = list(static)
        peak_mem = list(static)
        bytes_sent = [0.0] * p
        bytes_received = [0.0] * p
        comm_free = [0.0] * p
        send_free = [0.0] * p
        recv_free = [0.0] * p
        events: list[tuple] = []
        pending: list[tuple] = []
        eseq = 0
        tseq = 0
        arrived: set[int] = set()
        makespan = 0.0
        nproc = 0
    else:
        pc = state["pc"]
        computing = state["computing"]
        blocked_tag = state["blocked_tag"]
        blocked_since = state["blocked_since"]
        busy_time = state["busy_time"]
        comm_blocked = state["comm_blocked"]
        current_mem = state["current_mem"]
        peak_mem = state["peak_mem"]
        bytes_sent = state["bytes_sent"]
        bytes_received = state["bytes_received"]
        comm_free = state["comm_free"]
        send_free = state["send_free"]
        recv_free = state["recv_free"]
        events = state["events"]
        pending = state["pending"]
        eseq = state["eseq"]
        tseq = state["tseq"]
        arrived = state["arrived"]
        makespan = state["makespan"]
        nproc = state["events_processed"]

    if rec is not None:
        mlog_append = rec.memory_log.append
        alog_append = rec.arrival_log.append
        checkpoints = rec.checkpoints
        every = rec.checkpoint_every
    else:
        mlog_append = alog_append = None
        every = 0
    heappush, heappop = heapq.heappush, heapq.heappop

    def start_transfers(now: float) -> None:
        nonlocal eseq
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
                    heappush(events, (end, eseq, _SEND, op, now))
                    eseq += 1
                    continue
            still.append(item)
        for item in still:
            heappush(pending, item)

    def advance(stage: int, now: float) -> None:
        nonlocal eseq, tseq
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
                heappush(events, (now + op[1], eseq, _COMPUTE, stage, op, now))
                eseq += 1
                if mlog_append is not None:
                    mlog_append((stage, i, 0))
                pc[stage] = i
                return
            if code == _SEND:
                heappush(pending, (now, tseq, op))
                tseq += 1
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

    if state is None:
        for stage in range(p):
            advance(stage, 0.0)

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
            if mlog_append is not None:
                mlog_append((stage, pc[stage], 1))
            pc[stage] += 1
            advance(stage, t)
        else:  # _SEND completion
            op = ev[3]
            tid, src, dst = op[1], op[2], op[3]
            arrived.add(tid)
            if alog_append is not None:
                alog_append(tid)
            bytes_sent[src] += op[4]
            bytes_received[dst] += op[4]
            start_transfers(t)
            if blocked_tag[dst] == tid:
                blocked_tag[dst] = None
                comm_blocked[dst] += t - blocked_since[dst]
                pc[dst] += 1
                advance(dst, t)
        nproc += 1
        if rec is not None and nproc % every == 0 and events:
            checkpoints.append(
                _Checkpoint(
                    events_processed=nproc,
                    pc=pc[:],
                    computing=computing[:],
                    blocked_tag=blocked_tag[:],
                    blocked_since=blocked_since[:],
                    busy_time=busy_time[:],
                    comm_blocked=comm_blocked[:],
                    bytes_sent=bytes_sent[:],
                    bytes_received=bytes_received[:],
                    comm_free=comm_free[:],
                    send_free=send_free[:],
                    recv_free=recv_free[:],
                    events=events[:],
                    pending=pending[:],
                    eseq=eseq,
                    tseq=tseq,
                    arrived_len=len(rec.arrival_log),
                    memory_len=len(rec.memory_log),
                    makespan=makespan,
                )
            )

    stuck = []
    for stage in range(p):
        if pc[stage] < sizes[stage]:
            instr = schedule.programs[stage][pc[stage]]
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
            f"schedule {schedule.name!r} deadlocked:\n  " + "\n  ".join(stuck)
        )

    stages = [
        StageMetrics(
            stage=i,
            busy_time=busy_time[i],
            comm_blocked_time=comm_blocked[i],
            peak_memory_bytes=peak_mem[i],
            static_memory_bytes=static[i],
            bytes_sent=bytes_sent[i],
            bytes_received=bytes_received[i],
        )
        for i in range(p)
    ]
    return SimResult(
        schedule_name=schedule.name,
        makespan=makespan,
        stages=stages,
        trace=Trace(),
    )


def simulate_recording(
    schedule: Schedule,
    cluster: ClusterSpec,
    static_memory_bytes: list[float] | float = 0.0,
    duplex: str = "full",
    verify: bool = True,
    checkpoint_every: int = 256,
) -> SimReference:
    """Simulate ``schedule`` while recording resume state for siblings.

    Returns a :class:`SimReference` whose ``result`` carries metrics
    bit-identical to :func:`repro.sim.simulate` (with an empty trace).
    ``checkpoint_every`` controls the resume granularity: one full-state
    snapshot per that many processed events.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    # Reuse the simulator's argument validation/normalisation.
    sim = PipelineSimulator(
        schedule, cluster, static_memory_bytes, duplex, verify, record_trace=False
    )
    tag_ids: dict[str, int] = {}
    programs, _ = compile_programs(schedule, cluster, tag_ids)
    ref = SimReference(
        schedule=schedule,
        cluster=cluster,
        static=sim.static,
        duplex=duplex,
        programs=programs,
        sizes=[len(ops) for ops in programs],
        tag_ids=tag_ids,
        checkpoint_every=checkpoint_every,
    )
    ref.result = _run_loop(
        schedule, programs, ref.sizes, ref.static, duplex == "half", None, ref
    )
    return ref


def resimulate(
    reference: SimReference,
    schedule: Schedule,
    cluster: ClusterSpec,
    static_memory_bytes: list[float] | float = 0.0,
    duplex: str = "full",
    verify: bool = True,
) -> tuple[SimResult, ResimStats]:
    """Simulate ``schedule`` by resuming ``reference``'s timeline prefix.

    Falls back to a full simulation whenever prefix reuse cannot be
    proven safe; either way the returned metrics are bit-identical to
    :func:`repro.sim.simulate` on the sibling.
    """
    sim = PipelineSimulator(
        schedule, cluster, static_memory_bytes, duplex, verify, record_trace=False
    )

    def fallback(reason: str) -> tuple[SimResult, ResimStats]:
        return sim.run(), ResimStats(mode="fallback", reason=reason)

    p = schedule.num_stages
    if p != reference.schedule.num_stages:
        return fallback("stage count differs from reference")
    if duplex != reference.duplex:
        return fallback("duplex mode differs from reference")
    if not reference.checkpoints:
        return fallback("reference recorded no checkpoints")

    programs, _ = compile_programs(schedule, cluster, reference.tag_ids)
    sizes = [len(ops) for ops in programs]

    # First per-stage timing divergence between reference and sibling.
    ks: list[int] = []
    for rops, sops in zip(reference.programs, programs):
        n = min(len(rops), len(sops))
        k = 0
        while k < n and _timing_equal(rops[k], sops[k]):
            k += 1
        ks.append(k)
    ref_sizes = reference.sizes

    # Latest checkpoint at which every stage is still inside its shared
    # prefix: either strictly before the divergent op (so any in-flight
    # or blocked op at ``pc`` is timing-identical), or fully done with a
    # program the sibling matches end to end.
    best = None
    for cp in reversed(reference.checkpoints):
        cpc = cp.pc
        for s in range(p):
            pcs = cpc[s]
            k = ks[s]
            if pcs < k:
                continue
            if pcs == k and k == ref_sizes[s] and k == sizes[s]:
                continue
            break
        else:
            best = cp
            break
    if best is None:
        return fallback("no checkpoint precedes the first divergence")

    pc = best.pc[:]
    # In-flight compute events reference ops from the *reference*
    # program; remap each to the sibling's op at the same index (the
    # stage's current pc).  Timing fields are equal inside the prefix --
    # only the memory fields (consumed at completion) may differ.
    # Sort keys are untouched, so the heap invariant is preserved.
    events: list[tuple] = []
    for ev in best.events:
        if ev[2] == _COMPUTE:
            stage = ev[3]
            events.append((ev[0], ev[1], _COMPUTE, stage, programs[stage][pc[stage]], ev[5]))
        else:
            events.append(ev)

    # Replay the sibling's memory trajectory over the recorded prefix
    # with its own stash/workspace values (recompute siblings diverge in
    # memory long before they diverge in timing).
    static = sim.static
    current_mem = list(static)
    peak_mem = list(static)
    for s, i, kind in reference.memory_log[: best.memory_len]:
        op = programs[s][i]
        if kind == 0:
            high = current_mem[s] + op[3]
            if high > peak_mem[s]:
                peak_mem[s] = high
        else:
            cur = current_mem[s] + op[2]
            current_mem[s] = cur
            if cur > peak_mem[s]:
                peak_mem[s] = cur

    state = {
        "pc": pc,
        "computing": best.computing[:],
        "blocked_tag": best.blocked_tag[:],
        "blocked_since": best.blocked_since[:],
        "busy_time": best.busy_time[:],
        "comm_blocked": best.comm_blocked[:],
        "current_mem": current_mem,
        "peak_mem": peak_mem,
        "bytes_sent": best.bytes_sent[:],
        "bytes_received": best.bytes_received[:],
        "comm_free": best.comm_free[:],
        "send_free": best.send_free[:],
        "recv_free": best.recv_free[:],
        "events": events,
        "pending": best.pending[:],
        "eseq": best.eseq,
        "tseq": best.tseq,
        "arrived": set(reference.arrival_log[: best.arrived_len]),
        "makespan": best.makespan,
        "events_processed": best.events_processed,
    }
    result = _run_loop(
        schedule, programs, sizes, static, duplex == "half", state, None
    )
    return result, ResimStats(
        mode="incremental",
        resumed_at_events=best.events_processed,
        divergence_indices=tuple(ks),
    )
