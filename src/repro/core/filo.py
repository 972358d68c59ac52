"""HelixPipe FILO micro-batch schedule (paper Sections 4.2-4.4).

One generator covers both schedules of the paper:

* ``fold=1``: the **naive FILO** schedule (Figure 7a).  Micro batches are
  admitted in loops of ``p``; each layer's pre-attention runs sequentially
  on the owner stage while the attention of the loop's ``p`` micro batches
  runs in parallel, one per stage.
* ``fold=2``: the **two-fold FILO** schedule (Figure 7b).  Loops admit
  ``2p`` micro batches; pairs of consecutive micro batches share an
  attention stage, so while one micro batch of the pair computes, the
  other's boundary transfer proceeds behind it, hiding the communication
  (Section 4.3.2).

Backward traverses loops and micro batches in reverse (first-in,
last-out), which equalises the number of stashed micro batches across
stages -- the memory-balance property of Table 2.  When
``recompute=WITHOUT_ATTENTION`` an explicit ``RC`` instruction
re-materialises the pre/post intermediates right before each backward
step while the attention backward consumes its flash-attention stash
directly (Section 4.4.1).

Data flow per layer ``l`` and micro batch ``i`` (weight shipping per
Section 4.2):

.. code-block:: none

   owner(l) --[LN-out + residual (+W_qkv)]--> attn_stage(l, i)
   attn_stage(l, i) --[attn-out + residual]--> owner(l+1)

and the mirrored gradients in backward, with the shipped QKV weight
gradient returning to the owner.

**Program ordering.**  Consecutive loops pipeline into each other: while
a stage waits for the attention outputs of one loop it computes the
pre-attentions of the next, keeping the bubble independent of the number
of loops (the figure-7a packing).  The builder derives each stage's
instruction order with a deterministic list-scheduling pass over the task
DAG -- exactly what a static pipeline runtime does -- and then emits
RECVs immediately before the consuming compute and SENDs immediately
after the producer, so the event-driven executors can overlap transfers
behind independent compute.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.partition import attention_stage, helix_partition, owner_segment, owner_stage
from repro.model.partition import Segment, SegmentKind
from repro.schedules.costs import CostProvider
from repro.schedules.ir import (
    ComputeInstr,
    Instr,
    OpType,
    RecvInstr,
    Schedule,
    SendInstr,
    instr_from_proto,
)
from repro.costmodel.memory import RecomputeStrategy
from repro.schedules.planner import PlannedTask, list_schedule
from repro.schedules.registry import register_schedule

__all__ = ["build_helix_filo", "HelixFiloBuilder"]


def _helix_divisor(p: int, opts) -> int:
    """Loop size ``fold * p`` (a single stage accepts any micro count)."""
    return opts.get("fold", 2) * p if p > 1 else 1


_new = object.__new__


def _task(tid, stage, key, duration, deps, payload):
    # PlannedTask via direct __dict__ seeding: the builder creates
    # thousands per schedule and the generated dataclass __init__ is the
    # single hottest call in task-graph construction.
    t = _new(PlannedTask)
    t.__dict__ = {
        "tid": tid,
        "stage": stage,
        "key": key,
        "duration": duration,
        "deps": deps,
        "payload": payload,
        "undone_deps": 0,
        "start": 0.0,
    }
    return t


def _comm(cls, stage, peer, tag, nbytes, mb, payload):
    # In-place __dict__ writes: SendInstr/RecvInstr are frozen, so the
    # generated __setattr__ (and plain __dict__ rebinding) would raise.
    inst = _new(cls)
    d = inst.__dict__
    d["stage"] = stage
    d["peer"] = peer
    d["tag"] = tag
    d["nbytes"] = nbytes
    d["micro_batch"] = mb
    d["payload"] = payload
    return inst


def _attn_compute(proto, stage, mb):
    inst = _new(ComputeInstr)
    d = inst.__dict__
    d.update(proto)
    d["stage"] = stage
    d["micro_batch"] = mb
    return inst


@dataclass
class HelixFiloBuilder:
    """Materialise the HelixPipe FILO schedule.

    Parameters
    ----------
    num_stages, num_micro_batches:
        ``num_micro_batches`` must be a multiple of ``fold * num_stages``
        (the loop size; paper Section 4.3.1).
    costs:
        Cost provider; its ``recompute`` strategy decides whether RC
        instructions are emitted.
    fold:
        1 for the naive schedule, 2 for the two-fold schedule.
    include_embed, include_head:
        Model the embedding and LM head on stage 0 (Section 4.6).
    """

    num_stages: int
    num_micro_batches: int
    costs: CostProvider
    fold: int = 2
    include_embed: bool = True
    include_head: bool = True

    def __post_init__(self) -> None:
        p, m, f = self.num_stages, self.num_micro_batches, self.fold
        if p <= 0 or m <= 0 or f <= 0:
            raise ValueError("num_stages, num_micro_batches and fold must be positive")
        loop = f * p if p > 1 else m
        if p > 1 and m % loop != 0:
            raise ValueError(
                f"num_micro_batches ({m}) must be a multiple of fold*p ({loop})"
            )
        self.loop_size = loop
        self.L = self.costs.num_layers
        L = self.L
        self.partition = helix_partition(L, p)
        # Per-build constants hoisted off the emission hot path: boundary
        # payload sizes, the attention segment of each layer, and the
        # owner forward/backward/recompute durations per helix position.
        self._pre_to_attn = self.costs.boundary_bytes("pre_to_attn")
        self._attn_to_post = self.costs.boundary_bytes("attn_to_post")
        self._attn_seg = tuple(
            Segment(SegmentKind.ATTN, layer=l) for l in range(L)
        )
        self._owner_costs = tuple(
            self._owner_cost(pos) for pos in range(L + 1)
        )
        # Dense stage tables: ``owner_stage``/``attention_stage`` are
        # pure in (pos | layer, mb mod fold*p), yet were re-derived per
        # task and per emitted instruction (tens of thousands of calls
        # per build).  One table each covers every lookup.
        self._owner_tbl = tuple(owner_stage(pos, p, L) for pos in range(L + 1))
        amod = self.fold * p
        self._attn_mod = amod
        self._attn_tbl = tuple(
            tuple(attention_stage(l, r, p, self.fold) for r in range(amod))
            for l in range(L)
        )
        # Emission templates: every instruction a (kind, pos) emission
        # produces differs across micro batches only in micro_batch, the
        # attention stage and the tag suffix.  Prototype field dicts
        # (completed per micro batch via ``instr_from_proto``) replace
        # per-instruction cost lookups and dataclass __init__ calls.
        fo_protos: list[tuple[dict, ...]] = []
        bo_protos: list[tuple[dict, ...]] = []
        sc = self.costs.segment_cost
        for pos in range(L + 1):
            stage = self._owner_tbl[pos]
            fwd: list[dict] = []
            bwd: list[dict] = []
            if pos == 0 and self.include_embed:
                fwd.append(self._proto(OpType.F, stage, Segment(SegmentKind.EMBED)))
            for seg in owner_segment(pos, L):
                fwd.append(self._proto(OpType.F, stage, seg))
            if pos == L and self.include_head:
                fwd.append(self._proto(OpType.F, stage, Segment(SegmentKind.HEAD)))
                bwd.append(self._proto(OpType.B, stage, Segment(SegmentKind.HEAD)))
            for seg in reversed(owner_segment(pos, L)):
                if sc(seg).rc > 0.0:
                    bwd.append(self._proto(OpType.RC, stage, seg))
                bwd.append(self._proto(OpType.B, stage, seg))
            if pos == 0 and self.include_embed:
                bwd.append(self._proto(OpType.B, stage, Segment(SegmentKind.EMBED)))
            fo_protos.append(tuple(fwd))
            bo_protos.append(tuple(bwd))
        self._fo_protos = tuple(fo_protos)
        self._bo_protos = tuple(bo_protos)
        # Attention protos carry stage=-1; the emitters overwrite it with
        # the per-micro-batch attention stage.
        self._fa_protos = tuple(
            self._proto(OpType.F, -1, self._attn_seg[l]) for l in range(L)
        )
        self._ba_protos = tuple(
            self._proto(OpType.B, -1, self._attn_seg[l]) for l in range(L)
        )
        self._tag_pre = tuple(f"h.pre_out:L{l}:mb" for l in range(L))
        self._tag_attn = tuple(f"h.attn_out:L{l}:mb" for l in range(L))
        self._tag_dpre = tuple(f"h.d_pre_out:L{l}:mb" for l in range(L))
        self._tag_dattn = tuple(f"h.d_attn_out:L{l}:mb" for l in range(L))

    # -- helpers -----------------------------------------------------------------

    def _owner_cost(self, pos: int) -> tuple[float, float, float]:
        """(forward, backward incl. head/embed, recompute) duration at pos."""
        f = b = rc = 0.0
        for seg in owner_segment(pos, self.L):
            c = self.costs.segment_cost(seg)
            f += c.f
            b += c.b
            rc += c.rc
        if pos == 0 and self.include_embed:
            c = self.costs.segment_cost(Segment(SegmentKind.EMBED))
            f += c.f
            b += c.b
        if pos == self.L and self.include_head:
            c = self.costs.segment_cost(Segment(SegmentKind.HEAD))
            f += c.f
            b += c.b
        return f, b, rc

    def _proto(self, op: OpType, stage: int, seg: Segment) -> dict:
        """Prototype :class:`ComputeInstr` fields (all but micro_batch)."""
        c = self.costs.segment_cost(seg)
        if op is OpType.F:
            duration, stash = c.f, c.stash_bytes
        elif op is OpType.RC:
            duration, stash = c.rc, c.rc_extra_stash_bytes
        else:
            duration = c.b
            stash = -(c.stash_bytes + (c.rc_extra_stash_bytes if c.rc > 0 else 0.0))
        return {
            "op": op,
            "stage": stage,
            "segment": seg,
            "duration": duration,
            "stash_delta": stash,
            "workspace": c.workspace_bytes,
        }

    # -- task graph -----------------------------------------------------------------

    def _build_tasks(self) -> list[PlannedTask]:
        p, L, m = self.num_stages, self.L, self.num_micro_batches
        loop_size = self.loop_size
        num_loops = m // loop_size
        owner_costs = self._owner_costs
        owner_f = tuple(c[0] for c in owner_costs)
        owner_b = tuple(c[1] + c[2] for c in owner_costs)
        attn_f = tuple(
            self.costs.segment_cost(self._attn_seg[l]).f for l in range(L)
        )
        attn_b = tuple(
            self.costs.segment_cost(self._attn_seg[l]).b for l in range(L)
        )
        owner_tbl = self._owner_tbl
        attn_tbl = self._attn_tbl
        amod = self._attn_mod
        tasks: list[PlannedTask] = []
        append = tasks.append
        tid = 0
        # Only the position-L forward needs to be addressable outside its
        # micro batch's own loop iteration; everything else chains
        # through scalars, so no (pos, mb) -> tid dicts are built.
        f_last = [0] * m

        # Forward: owner(pos) consumes attention(pos-1); attention(l)
        # consumes owner(l).
        for mb in range(m):
            g, slot = divmod(mb, loop_size)
            r = mb % amod
            deps: list[int] = []
            fo = 0
            for pos in range(L + 1):
                append(
                    _task(
                        tid,
                        owner_tbl[pos],
                        (0, g, pos, 0, slot),
                        owner_f[pos],
                        deps,
                        ("f_owner", pos, mb),
                    )
                )
                fo = tid
                tid += 1
                if pos < L:
                    append(
                        _task(
                            tid,
                            attn_tbl[pos][r],
                            (0, g, pos, 1, slot),
                            attn_f[pos],
                            [fo],
                            ("f_attn", pos, mb),
                        )
                    )
                    deps = [tid]
                    tid += 1
            f_last[mb] = fo
        # Backward: FILO -- later loops and later micro batches first.  The
        # entry point (position L) is chained in strict reverse micro-batch
        # order so the backward wave is truly first-in-last-out; without
        # this, a work-conserving planner would start micro batch 0's
        # backward the moment its own forward finished.
        prev_entry = -1
        for mb in range(m - 1, -1, -1):
            g, slot = divmod(mb, loop_size)
            rg = num_loops - 1 - g
            rslot = loop_size - 1 - slot
            r = mb % amod
            grad = -1
            for pos in range(L, -1, -1):
                rpos = L - pos
                if pos == L:
                    deps = (
                        [f_last[mb]]
                        if prev_entry < 0
                        else [f_last[mb], prev_entry]
                    )
                else:
                    deps = [grad]
                append(
                    _task(
                        tid,
                        owner_tbl[pos],
                        (1, rg, rpos, 0, rslot),
                        owner_b[pos],
                        deps,
                        ("b_owner", pos, mb),
                    )
                )
                bo = tid
                tid += 1
                if pos == L:
                    prev_entry = bo
                if pos > 0:
                    append(
                        _task(
                            tid,
                            attn_tbl[pos - 1][r],
                            (1, rg, rpos, 1, rslot),
                            attn_b[pos - 1],
                            [bo],
                            ("b_attn", pos - 1, mb),
                        )
                    )
                    # The owner backward below pos consumes this gradient.
                    grad = tid
                    tid += 1
        return tasks

    # -- build -------------------------------------------------------------------

    def build(self) -> Schedule:
        tasks = self._build_tasks()
        order = list_schedule(tasks, self.num_stages)
        programs: list[list[Instr]] = [[] for _ in range(self.num_stages)]
        for stage, seq in enumerate(order):
            prog = programs[stage]
            for t in seq:
                kind, pos, mb = t.payload
                self._emit_task(prog, kind, pos, mb)
        name = "helix-2fold" if self.fold == 2 else f"helix-filo{self.fold}"
        sched = Schedule(
            name=name,
            num_stages=self.num_stages,
            num_micro_batches=self.num_micro_batches,
            programs=programs,
            meta={
                "family": "helix",
                "fold": self.fold,
                "num_layers": self.L,
                "recompute": self.costs.recompute.value,
            },
        )
        # Verification is the registry's job (spec.build runs the pass
        # pipeline unless verify=False); validating here too would run
        # every pass twice per build on the tuner's hot path.
        return sched

    # -- emission -------------------------------------------------------------------

    def _emit_task(self, prog: list[Instr], kind: str, pos: int, mb: int) -> None:
        if kind == "f_owner":
            self._emit_f_owner(prog, pos, mb)
        elif kind == "f_attn":
            self._emit_f_attn(prog, pos, mb)
        elif kind == "b_owner":
            self._emit_b_owner(prog, pos, mb)
        elif kind == "b_attn":
            self._emit_b_attn(prog, pos, mb)
        else:  # pragma: no cover - exhaustive
            raise ValueError(kind)

    def _emit_f_owner(self, prog: list[Instr], pos: int, mb: int) -> None:
        stage = self._owner_tbl[pos]
        r = mb % self._attn_mod
        if pos > 0:
            src = self._attn_tbl[pos - 1][r]
            if src != stage:
                prog.append(
                    _comm(
                        RecvInstr,
                        stage,
                        src,
                        self._tag_attn[pos - 1] + str(mb),
                        self._attn_to_post,
                        mb,
                        "attn_out",
                    )
                )
        for proto in self._fo_protos[pos]:
            prog.append(instr_from_proto(ComputeInstr, proto, mb))
        if pos < self.L:
            dst = self._attn_tbl[pos][r]
            if dst != stage:
                prog.append(
                    _comm(
                        SendInstr,
                        stage,
                        dst,
                        self._tag_pre[pos] + str(mb),
                        self._pre_to_attn,
                        mb,
                        "pre_out",
                    )
                )

    def _emit_f_attn(self, prog: list[Instr], layer: int, mb: int) -> None:
        stage = self._attn_tbl[layer][mb % self._attn_mod]
        owner = self._owner_tbl[layer]
        if owner != stage:
            prog.append(
                _comm(
                    RecvInstr,
                    stage,
                    owner,
                    self._tag_pre[layer] + str(mb),
                    self._pre_to_attn,
                    mb,
                    "pre_out",
                )
            )
        prog.append(_attn_compute(self._fa_protos[layer], stage, mb))
        nxt = self._owner_tbl[layer + 1]
        if nxt != stage:
            prog.append(
                _comm(
                    SendInstr,
                    stage,
                    nxt,
                    self._tag_attn[layer] + str(mb),
                    self._attn_to_post,
                    mb,
                    "attn_out",
                )
            )

    def _emit_b_owner(self, prog: list[Instr], pos: int, mb: int) -> None:
        stage = self._owner_tbl[pos]
        r = mb % self._attn_mod
        if pos < self.L:
            src = self._attn_tbl[pos][r]
            if src != stage:
                prog.append(
                    _comm(
                        RecvInstr,
                        stage,
                        src,
                        self._tag_dpre[pos] + str(mb),
                        self._pre_to_attn,
                        mb,
                        "d_pre_out",
                    )
                )
        # The proto sequence bakes the head backward (pos == L), the
        # per-segment RC-before-B pairs, and the embed backward
        # (pos == 0) in emission order; head-send and embed never
        # coexist, so the flat loop preserves the original interleaving.
        for proto in self._bo_protos[pos]:
            prog.append(instr_from_proto(ComputeInstr, proto, mb))
        if pos > 0:
            dst = self._attn_tbl[pos - 1][r]
            if dst != stage:
                prog.append(
                    _comm(
                        SendInstr,
                        stage,
                        dst,
                        self._tag_dattn[pos - 1] + str(mb),
                        self._attn_to_post,
                        mb,
                        "d_attn_out",
                    )
                )

    def _emit_b_attn(self, prog: list[Instr], layer: int, mb: int) -> None:
        stage = self._attn_tbl[layer][mb % self._attn_mod]
        src = self._owner_tbl[layer + 1]
        if src != stage:
            prog.append(
                _comm(
                    RecvInstr,
                    stage,
                    src,
                    self._tag_dattn[layer] + str(mb),
                    self._attn_to_post,
                    mb,
                    "d_attn_out",
                )
            )
        prog.append(_attn_compute(self._ba_protos[layer], stage, mb))
        dst = self._owner_tbl[layer]
        if dst != stage:
            prog.append(
                _comm(
                    SendInstr,
                    stage,
                    dst,
                    self._tag_dpre[layer] + str(mb),
                    self._pre_to_attn,
                    mb,
                    "d_pre_out",
                )
            )


@register_schedule(
    "helix",
    description="HelixPipe two-fold FILO (attention parallel partition)",
    family="helix",
    options={"fold": 2, "include_embed": True, "include_head": True},
    default_recompute=RecomputeStrategy.WITHOUT_ATTENTION,
    # HelixPipe never recomputes attention (Section 4.4.1), so only the
    # strategies the builder models faithfully are swept.
    recompute_choices=(
        RecomputeStrategy.NONE,
        RecomputeStrategy.WITHOUT_ATTENTION,
    ),
    divisor=_helix_divisor,
    # Fold 1 is the naive FILO (no transfer hiding); sweeping it lets
    # the tuner quantify what two-fold buys on a given workload.
    tune_options={"fold": (1, 2)},
)
@register_schedule(
    "helix-naive",
    description="HelixPipe naive (fold-1) FILO, no transfer hiding",
    family="helix",
    options={"fold": 1, "include_embed": True, "include_head": True},
    default_recompute=RecomputeStrategy.WITHOUT_ATTENTION,
    recompute_choices=(
        RecomputeStrategy.NONE,
        RecomputeStrategy.WITHOUT_ATTENTION,
    ),
    # Alias of helix x fold=1 kept for the experiment method names; the
    # tuner sweeps that combination via the "helix" fold grid.
    tunable=False,
    divisor=_helix_divisor,
)
@register_schedule(
    "helix-no-recompute",
    description="HelixPipe two-fold FILO without recomputation",
    family="helix",
    options={"fold": 2, "include_embed": True, "include_head": True},
    default_recompute=RecomputeStrategy.NONE,
    # Alias of helix x RecomputeStrategy.NONE kept for the experiment
    # method names; the tuner sweeps that combination via "helix".
    tunable=False,
    divisor=_helix_divisor,
)
def build_helix_filo(
    num_stages: int,
    num_micro_batches: int,
    costs: CostProvider,
    fold: int = 2,
    include_embed: bool = True,
    include_head: bool = True,
) -> Schedule:
    """Build the HelixPipe FILO schedule (``fold=1`` naive, ``fold=2`` two-fold)."""
    return HelixFiloBuilder(
        num_stages=num_stages,
        num_micro_batches=num_micro_batches,
        costs=costs,
        fold=fold,
        include_embed=include_embed,
        include_head=include_head,
    ).build()
