"""Communication-race and head-of-line-blocking analyses.

The IR's execution semantics are forgiving: SENDs issue asynchronously
and RECVs match by globally-unique tag, so any pairing that is
*deliverable* executes.  Real transports are stricter -- NCCL p2p
matches send/recv operations on a channel **in issue order**, not by
tag -- so a schedule that verifies and simulates cleanly can still race
or head-of-line block when lowered onto ordered channels (the paper's
Figure 6a pathology is exactly such a serialisation).  These passes
prove the stronger, transport-portable properties statically, on top
of the pairing the ``structure`` executability pass
(:mod:`repro.schedules.passes`) proves and both require:

``comm-order`` (warnings)
    Same-channel send/recv ordering races: for every directed channel
    ``src -> dst``, the receiver must post its RECVs in the sender's
    issue order.  A RECV posted out of order executes fine under tag
    matching but would consume the wrong payload (or block) on an
    in-order transport.  Out-of-order tags are found as the complement
    of the longest in-order subsequence, so a single displaced message
    is reported once, not once per crossing.
``comm-hol`` (warnings)
    Head-of-line-blocking cycles: abstract execution under in-order
    channel matching (a RECV completes only when its message is at the
    head of the channel's send queue).  A schedule that is
    deadlock-free under tag matching but stuck here contains a blocking
    cycle through one or more channels; the cycle of waiting stages is
    reconstructed and reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.passkit import Severity
from repro.schedules.analysis.framework import (
    SCHEDULE_PASSES,
    AnalysisContext,
    PassIssue,
)
from repro.schedules.ir import RecvInstr, Schedule, SendInstr

__all__ = [
    "CommOp",
    "ChannelGraph",
    "build_channel_graph",
    "check_comm_order",
    "check_hol_blocking",
]

#: Cap per-class issue floods (a systematically-broken schedule repeats
#: one defect hundreds of times; the first few locate it).
_MAX_ISSUES = 8


@dataclass(frozen=True)
class CommOp:
    """One SEND or RECV with its program position."""

    stage: int
    step: int
    instr: SendInstr | RecvInstr

    @property
    def tag(self) -> str:
        return self.instr.tag


@dataclass
class ChannelGraph:
    """Cross-rank channel dependency view of a schedule.

    ``sends``/``recvs`` map a directed channel ``(src, dst)`` to the
    channel's operations in *program order* (send order on ``src``,
    posting order on ``dst``); ``recv_by_tag`` indexes the first RECV
    per tag.
    """

    sends: dict[tuple[int, int], list[CommOp]] = field(default_factory=dict)
    recvs: dict[tuple[int, int], list[CommOp]] = field(default_factory=dict)
    recv_by_tag: dict[str, CommOp] = field(default_factory=dict)


def build_channel_graph(schedule: Schedule) -> ChannelGraph:
    """Index every SEND/RECV by channel and tag, in program order."""
    g = ChannelGraph()
    for stage, prog in enumerate(schedule.programs):
        for step, instr in enumerate(prog):
            if isinstance(instr, SendInstr):
                op = CommOp(stage=stage, step=step, instr=instr)
                g.sends.setdefault((stage, instr.peer), []).append(op)
            elif isinstance(instr, RecvInstr):
                op = CommOp(stage=stage, step=step, instr=instr)
                g.recvs.setdefault((instr.peer, stage), []).append(op)
                g.recv_by_tag.setdefault(instr.tag, op)
    return g


# -- ordering races ----------------------------------------------------------


def _longest_in_order(seq: list[int]) -> set[int]:
    """Indices of one longest strictly-increasing subsequence of ``seq``.

    The complement is the minimal set of "displaced" elements: removing
    them makes the channel perfectly in-order, so each displaced message
    is reported exactly once however many crossings it causes.
    """
    if not seq:
        return set()
    import bisect

    tails: list[int] = []  # tails[k] = smallest tail value of an IS of length k+1
    tail_idx: list[int] = []
    prev = [-1] * len(seq)
    for i, v in enumerate(seq):
        k = bisect.bisect_left(tails, v)
        if k == len(tails):
            tails.append(v)
            tail_idx.append(i)
        else:
            tails[k] = v
            tail_idx[k] = i
        prev[i] = tail_idx[k - 1] if k > 0 else -1
    out: set[int] = set()
    i = tail_idx[len(tails) - 1]
    while i != -1:
        out.add(i)
        i = prev[i]
    return out


@SCHEDULE_PASSES.register(
    "comm-order",
    description="same-channel send/recv ordering races (in-order transports)",
    category="hazard",
    requires=("structure",),
)
def check_comm_order(
    schedule: Schedule, context: AnalysisContext
) -> list[PassIssue]:
    """RECVs must be posted in the channel's send issue order.

    Tag matching makes posting order irrelevant to the simulator, but an
    in-order transport (NCCL p2p on one channel) matches the k-th
    receive against the k-th send: a displaced RECV consumes the wrong
    payload or stalls the channel.  Warnings, not errors -- the IR
    executes these schedules correctly; they are portability hazards
    (``helix-naive`` exhibits exactly this, which is one reason the
    paper's final schedule reorders its communication).
    """
    g = context.channel_graph(schedule)
    issues: list[PassIssue] = []
    for (src, dst), sends in sorted(g.sends.items()):
        recvs = g.recvs.get((src, dst), [])
        rpos = {op.tag: k for k, op in enumerate(recvs)}
        matched = [op for op in sends if op.tag in rpos]
        seq = [rpos[op.tag] for op in matched]
        keep = _longest_in_order(seq)
        displaced = [k for k in range(len(matched)) if k not in keep]
        for k in displaced[:_MAX_ISSUES]:
            r = recvs[seq[k]]
            issues.append(
                PassIssue(
                    "comm-order",
                    f"RECV posted out of send order on channel "
                    f"{src}->{dst}: message is send #{k} but recv #{seq[k]} "
                    "(races an in-order transport)",
                    severity=Severity.WARNING,
                    stage=r.stage,
                    step=r.step,
                    tag=r.tag,
                )
            )
        extra = len(displaced) - _MAX_ISSUES
        if extra > 0:
            issues.append(
                PassIssue(
                    "comm-order",
                    f"... {extra} more displaced RECV(s) on channel {src}->{dst}",
                    severity=Severity.WARNING,
                    stage=dst,
                )
            )
    return issues


# -- head-of-line blocking ---------------------------------------------------


@SCHEDULE_PASSES.register(
    "comm-hol",
    description="head-of-line blocking cycles under in-order channel matching",
    category="hazard",
    requires=("structure", "deadlock"),
)
def check_hol_blocking(
    schedule: Schedule, context: AnalysisContext
) -> list[PassIssue]:
    """Abstract-execute under in-order channel matching; report cycles.

    Model: SENDs still issue asynchronously (buffered transport), but a
    RECV completes only when its message is the *head* of its channel's
    undelivered send queue -- the in-order matching discipline of real
    p2p channels.  A schedule deadlock-free under tag matching (the
    ``deadlock`` pass) that gets stuck here contains a head-of-line
    blocking cycle: some stage's next message is stuck behind an earlier
    send on the same channel whose receiver transitively waits on that
    stage.  The cycle of blocked stages is walked and reported.
    """
    p = schedule.num_stages
    programs = schedule.programs
    g = context.channel_graph(schedule)
    # Per-channel send order and each channel's delivery cursor.
    send_index: dict[str, int] = {}
    channel_of: dict[str, tuple[int, int]] = {}
    for ch, ops in g.sends.items():
        for k, op in enumerate(ops):
            send_index[op.tag] = k
            channel_of[op.tag] = ch
    next_head = {ch: 0 for ch in g.sends}

    pcs = [0] * p
    issued: set[str] = set()
    progress = True
    while progress:
        progress = False
        for stage in range(p):
            prog = programs[stage]
            while pcs[stage] < len(prog):
                instr = prog[pcs[stage]]
                if isinstance(instr, RecvInstr):
                    tag = instr.tag
                    ch = channel_of.get(tag)
                    if (
                        tag not in issued
                        or ch is None
                        or send_index[tag] != next_head[ch]
                    ):
                        break
                    next_head[ch] += 1
                elif isinstance(instr, SendInstr):
                    issued.add(instr.tag)
                pcs[stage] += 1
                progress = True

    blocked = [s for s in range(p) if pcs[s] < len(programs[s])]
    if not blocked:
        return []

    issues: list[PassIssue] = []

    def waiting_on(stage: int) -> tuple[int, str] | None:
        """The stage (and why) that ``stage``'s head RECV waits for."""
        instr = programs[stage][pcs[stage]]
        if not isinstance(instr, RecvInstr):
            return None
        tag = instr.tag
        ch = channel_of.get(tag)
        if tag not in issued:
            # Waiting for the send itself: the sender's pc is stuck.
            return (instr.peer, f"SEND {tag!r} not yet issued")
        if ch is not None and send_index[tag] != next_head[ch]:
            head_tag = g.sends[ch][next_head[ch]].tag
            head_recv = g.recv_by_tag.get(head_tag)
            who = head_recv.stage if head_recv is not None else instr.peer
            return (
                who,
                f"message {tag!r} is #{send_index[tag]} on channel "
                f"{ch[0]}->{ch[1]} behind undelivered head {head_tag!r}",
            )
        return None

    # Walk the wait-for graph from a blocked stage until it revisits a
    # stage: that suffix is the head-of-line blocking cycle.
    start = blocked[0]
    chain: list[tuple[int, str]] = []
    seen_at: dict[int, int] = {}
    stage = start
    while stage not in seen_at:
        seen_at[stage] = len(chain)
        nxt = waiting_on(stage)
        if nxt is None:  # blocked on something non-cyclic; report flatly
            break
        chain.append((stage, nxt[1]))
        stage = nxt[0]
    cycle = chain[seen_at[stage]:] if stage in seen_at else chain
    channels = {
        channel_of[programs[s][pcs[s]].tag]
        for s, _ in cycle
        if isinstance(programs[s][pcs[s]], RecvInstr)
        and programs[s][pcs[s]].tag in channel_of
    }
    desc = "; ".join(f"stage {s} waits: {why}" for s, why in cycle[:4])
    more = "" if len(cycle) <= 4 else f" (+{len(cycle) - 4} more)"
    head = programs[blocked[0]][pcs[blocked[0]]]
    issues.append(
        PassIssue(
            "comm-hol",
            f"head-of-line blocking under in-order channel matching: "
            f"{len(blocked)} stage(s) stuck across {max(1, len(channels))} "
            f"channel(s) -- {desc}{more}",
            severity=Severity.WARNING,
            stage=blocked[0],
            step=pcs[blocked[0]],
            tag=getattr(head, "tag", None),
        )
    )
    for s in blocked[1:_MAX_ISSUES]:
        instr = programs[s][pcs[s]]
        issues.append(
            PassIssue(
                "comm-hol",
                f"stage stuck at pc {pcs[s]}/{len(programs[s])} under "
                "in-order matching",
                severity=Severity.WARNING,
                stage=s,
                step=pcs[s],
                tag=getattr(instr, "tag", None),
            )
        )
    return issues
