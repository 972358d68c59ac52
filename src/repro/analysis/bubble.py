"""Closed-form pipeline-bubble and memory formulas (paper Table 2).

These are the analytic expressions HelixPipe is derived from; the
benchmark suite checks the discrete-event simulator against them
(communication disabled) so the two views of the system cannot drift
apart.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.costmodel.timing import LayerTimes, PhaseTimes

__all__ = [
    "bubble_time_1f1b",
    "bubble_time_zb1p",
    "bubble_time_zb_milp",
    "bubble_time_helix",
    "bubble_lower_bound",
    "adapipe_makespan_floor",
    "makespan_lower_bound",
    "makespan_lower_bound_fn",
    "recompute_time_lower_bound",
    "activation_elems_table2",
]


def bubble_time_1f1b(layer: LayerTimes, num_layers: int, p: int) -> float:
    """Paper Eq. 1: ``3 (p-1) (t_pre + t_attn + t_post) L / p``.

    The paper's factor 3 assumes backward costs twice the forward; we use
    the model's actual forward + backward phase times, which reduces to
    the paper's expression when ``bwd == 2 fwd``.
    """
    per_layer = (
        layer.pre.fwd
        + layer.attn.fwd
        + layer.post.fwd
        + layer.pre.bwd
        + layer.attn.bwd
        + layer.post.bwd
    )
    return (p - 1) * per_layer * num_layers / p


def bubble_time_zb1p(layer: LayerTimes, num_layers: int, p: int) -> float:
    """Paper Eq. 3: ``(p-1) (t_pre + 3 t_attn + t_post) L / p``.

    The delayed backward-W fills the 1F1B bubble, leaving
    ``t_F + t_BI - t_BW`` per layer.  Under the paper's convention
    (``bwd_b == bwd_w == fwd`` for the parameterised phases and the whole
    attention backward in B at ``2 t_attn``) this reduces exactly to
    ``t_pre + 3 t_attn + t_post``.
    """
    per_layer = (
        layer.pre.fwd
        + layer.attn.fwd
        + layer.post.fwd
        + layer.pre.bwd_b
        + layer.attn.bwd_b
        + layer.post.bwd_b
        - layer.pre.bwd_w
        - layer.post.bwd_w
    )
    return (p - 1) * per_layer * num_layers / p


def bubble_time_zb_milp(layer: LayerTimes, num_layers: int, p: int) -> float:
    """``zb-milp``'s ramp: ``(p-1) (L/p) (t_F + t_BI)``, a proven lower bound.

    Per layer, ``t_F`` is ``layer.fwd``, ``t_BI`` the ``bwd_b`` of pre,
    attention and post, and ``t_BW`` their ``bwd_w`` (attention has no
    weights, so only pre and post contribute).  ``zb-milp`` runs the
    1F1B order on ``L/p`` layers per stage with each BW right after its
    BI: the only placement :mod:`repro.schedules.zb_milp` ever builds.
    Follow one path through any execution of it:

    1. The last stage's first F waits for micro batch 0's forward
       through stages ``0..p-2``: ``(p-1) (L/p) t_F``.
    2. The last stage has no warm-up, so before it sends BI(m-1)'s
       input gradient it runs, serially, ``m`` F, ``m`` BI and the
       ``m-1`` BW placed before BI(m-1):
       ``(L/p) (m t_F + m t_BI + (m-1) t_BW)``.
    3. That gradient walks the BI chain through stages ``p-2..0``:
       ``(p-1) (L/p) t_BI``.
    4. Stage 0 ends with BW(m-1), right after BI(m-1): ``(L/p) t_BW``,
       which pays back the BW left out in step 2.

    The path sums to ``m (L/p) (t_F + t_BI + t_BW)`` -- the
    work-conservation term of :func:`makespan_lower_bound` -- plus this
    bubble.  Everything else on the path only adds time: the embedding
    and head passes it crosses, recompute forwards folded into BI,
    receive waits and transfers.  The term exceeds paper Eq. 3
    (:func:`bubble_time_zb1p`) by ``(p-1) (L/p) t_BW``: ZB1P's heuristic
    delays BWs into the ramp, ``zb-milp`` never does.
    """
    per_layer = (
        layer.fwd + layer.pre.bwd_b + layer.attn.bwd_b + layer.post.bwd_b
    )
    return (p - 1) * per_layer * num_layers / p


def bubble_time_helix(
    layer: LayerTimes,
    p: int,
    fold: int = 2,
    recompute_pre_post: bool = True,
) -> float:
    """Paper Table 2 row 3 and the step-by-step account of Section 4.5.

    Naive FILO: ``3 (p-1)(t_pre + t_post)`` -- attention is gone from the
    bubble.  Two-fold doubles it; recomputation-without-attention adds one
    more forward pass of pre+post: ``8 (p-1)(t_pre + t_post)`` total with
    the paper's ``bwd == 2 fwd`` convention.  As with the other formulas
    we use the model's actual phase times: per ramp step the idle is
    ``fwd + bwd (+ recompute fwd)`` of (pre + post).
    """
    fwd = layer.pre.fwd + layer.post.fwd
    bwd = layer.pre.bwd + layer.post.bwd
    per_step = fwd + bwd + (fwd if recompute_pre_post else 0.0)
    return fold * (p - 1) * per_step


def _shipped_pre_post(layer: LayerTimes) -> tuple[PhaseTimes, PhaseTimes]:
    """(pre - qkv, post): the smallest pre phase any provider can price.

    Under weight shipping (Section 4.2, the cost providers' default) the
    QKV GEMM moves from the pre phase to the attention stage, so a
    helix ramp bound built on the *shipped* pre phase lower-bounds both
    configurations.
    """
    pre = PhaseTimes(
        layer.pre.fwd - layer.qkv.fwd,
        layer.pre.bwd_b - layer.qkv.bwd_b,
        layer.pre.bwd_w - layer.qkv.bwd_w,
    )
    return pre, layer.post


def bubble_lower_bound(
    schedule: str,
    layer: LayerTimes,
    num_layers: int,
    p: int,
    options: Mapping[str, Any] | None = None,
) -> float:
    """Admissible (never-overestimating) bubble time for ``schedule``.

    A *lower* bound on the pipeline-bubble component of the makespan,
    used by the auto-tuner to prune candidates that provably cannot beat
    the best simulated plan (:mod:`repro.tuner.bounds`).  Per schedule:

    - ``1f1b`` / ``gpipe``: the Table 2 warm-up/drain ramp (Eq. 1) --
      both run ``(p-1)`` ramp steps of a full stage forward+backward.
    - ``zb1p``: Eq. 3 (backward-W fills the ramp, ``f + b_I - b_W``).
    - ``zb-milp``: :func:`bubble_time_zb_milp`, ``(p-1) (L/p) (f +
      b_I)`` -- each BW runs right after its BI, so none fills the ramp.
    - ``interleaved``: the Eq. 1 ramp shrinks with the virtual-chunk
      count ``v`` (each ramp step advances one chunk of ``L/(p v)``
      layers).
    - ``helix`` (any fold): the Section 4.5 FILO ramp on the *shipped*
      pre+post phases, without the recompute term -- admissible for
      every recompute strategy and both weight-shipping settings.
    - anything else: ``0.0``, degrading the bound to pure work
      conservation.  ``adapipe``'s ramp depends on the micro-batch
      count, so :func:`makespan_lower_bound` adds it as a floor
      (:func:`adapipe_makespan_floor`) rather than a bubble.

    Recompute strategies only ever *add* backward time, so evaluating
    the formulas on the plain (no-recompute) layer times keeps the
    bound admissible for every strategy.
    """
    opts = dict(options or {})
    if schedule in ("1f1b", "gpipe"):
        bub = bubble_time_1f1b(layer, num_layers, p)
    elif schedule == "zb1p":
        bub = bubble_time_zb1p(layer, num_layers, p)
    elif schedule == "zb-milp":
        bub = bubble_time_zb_milp(layer, num_layers, p)
    elif schedule == "interleaved":
        chunks = max(1, int(opts.get("num_chunks_per_stage", 2)))
        bub = bubble_time_1f1b(layer, num_layers, p) / chunks
    elif schedule.startswith("helix"):
        pre, post = _shipped_pre_post(layer)
        fwd = pre.fwd + post.fwd
        bwd = pre.bwd + post.bwd
        bub = max(1, int(opts.get("fold", 2))) * (p - 1) * (fwd + bwd)
    else:
        bub = 0.0
    return max(0.0, bub)


def recompute_time_lower_bound(layer: LayerTimes, recompute: Any) -> float:
    """Admissible per-layer recompute-forward time for ``recompute``.

    A lower bound on the forward time each layer's backward must re-run
    under the strategy (``RecomputeStrategy`` or its string value),
    evaluated on the *cheapest* configuration any cost provider can
    price: ``without_attention`` uses the shipped pre phase (QKV moved
    to attention, Section 4.2) so the bound holds under both
    weight-shipping settings, and ``selective`` uses the unshipped
    attention forward for the same reason.  Feeding the result to
    :func:`makespan_lower_bound` tightens the bound for recompute
    candidates without ever overestimating them.
    """
    value = getattr(recompute, "value", recompute)
    if value == "selective":
        return layer.attn.fwd
    if value == "without_attention":
        pre, post = _shipped_pre_post(layer)
        return pre.fwd + post.fwd
    if value == "full":
        return layer.fwd
    return 0.0


def adapipe_makespan_floor(
    layer: LayerTimes,
    num_layers: int,
    p: int,
    num_micro_batches: int,
    recompute_time: float = 0.0,
) -> float:
    """``adapipe``'s floor: ``T / (1 - (1 - 1/m)^p)``, ``T = L (t_F + t_B)``.

    ``adapipe`` runs the 1F1B order on a partition and per-stage
    recompute choices its DP picks at build time.  This floor holds for
    any 1F1B order on any partition of the ``L`` layers over ``p``
    stages, so it needs neither.  Let stage ``s`` own ``n_s`` layers,
    with forward ``F_s = n_s t_F`` and backward ``B_s >= n_s t_B`` per
    micro batch (recompute only adds to it), and ``a_s = F_s + B_s``.
    Fix any stage ``k`` and follow one path through an execution:

    1. Stage ``k``'s first F waits for micro batch 0's forward through
       stages ``0..k-1``: ``sum_{s<k} F_s``.
    2. Stage ``k`` then runs all ``2m`` of its passes serially; the last
       is B(m-1), which then sends its input gradient: ``m a_k``.
    3. That gradient walks the B chain through stages ``k-1..0``:
       ``sum_{s<k} B_s``.

    So the makespan ``M >= sum_{s<k} a_s + m a_k`` for every ``k``.
    Weight stage ``k``'s inequality by ``r^(p-1-k)`` with
    ``r = 1 - 1/m`` and add them up.  Stage ``s`` collects
    ``m r^(p-1-s)`` from its own inequality and
    ``sum_{k>s} r^(p-1-k) = m (1 - r^(p-1-s))`` from the later ones:
    ``m`` in all, the same for every stage.  The weights sum to
    ``m (1 - r^p)``, hence ``M m (1 - r^p) >= m sum_s a_s >= m T``.

    ``m = 1`` gives ``T`` (one micro batch through every layer and
    back), ``p = 1`` gives ``m T``, and since ``1 - r^p <= p/m`` the
    floor never falls below work conservation.  Embedding and head
    passes, receive waits and transfers only add time.
    ``recompute_time`` joins ``t_B`` under the same contract as in
    :func:`makespan_lower_bound`.
    """
    total = num_layers * (layer.fwd + layer.bwd + recompute_time)
    return total / (1.0 - (1.0 - 1.0 / num_micro_batches) ** p)


def makespan_lower_bound_fn(
    schedule: str,
    layer: LayerTimes,
    num_layers: int,
    p: int,
    options: Mapping[str, Any] | None = None,
) -> Callable[..., float]:
    """:func:`makespan_lower_bound` of one configuration, as a function.

    Returns ``bound(num_micro_batches, recompute_time=0.0)``.  The
    schedule's bubble is evaluated once here, so a caller pricing one
    (schedule, options) configuration at many micro-batch counts and
    recompute strategies -- the tuner's pruner,
    :mod:`repro.tuner.bounds` -- gets exactly the values
    :func:`makespan_lower_bound` returns at the cost of a few float
    operations each.
    """
    fwd = layer.fwd
    fwd_bwd = fwd + layer.bwd
    fwd_bi = fwd + layer.pre.bwd_b + layer.attn.bwd_b + layer.post.bwd_b
    bubble = bubble_lower_bound(schedule, layer, num_layers, p, options)

    ramp_floor = schedule == "adapipe"

    def bound(num_micro_batches: int, recompute_time: float = 0.0) -> float:
        work = num_micro_batches * num_layers * (fwd_bwd + recompute_time) / p
        chain = num_layers * (fwd_bi + recompute_time)
        # Conditionals, not max(): the pruner calls this per candidate.
        lower = work + bubble if work + bubble > chain else chain
        if ramp_floor:
            floor = adapipe_makespan_floor(
                layer, num_layers, p, num_micro_batches, recompute_time
            )
            lower = floor if floor > lower else lower
        return lower

    return bound


def makespan_lower_bound(
    schedule: str,
    layer: LayerTimes,
    num_layers: int,
    p: int,
    num_micro_batches: int,
    options: Mapping[str, Any] | None = None,
    recompute_time: float = 0.0,
) -> float:
    """Admissible lower bound on the simulated iteration makespan.

    ``max(work + bubble, chain)`` of three never-overestimating terms,
    and for ``adapipe`` also its floor:

    - **work conservation**: the ``p`` serial compute engines must
      execute ``m x L`` layer forwards+backwards in total, so
      ``makespan >= m L (t_F + t_B) / p`` whatever the partition
      (embedding and head work only add to it);
    - **bubble**: the schedule-specific warm-up/drain ramp
      (:func:`bubble_lower_bound`) exists on top of the steady state;
    - **dependency chain**: one micro batch's forward must traverse all
      ``L`` layers and its backward-B return through them, so
      ``makespan >= L (t_F + t_BI)`` regardless of ``m`` or placement;
    - **adapipe floor** (:func:`adapipe_makespan_floor`): a ramp bound
      for a 1F1B order on any partition, which depends on ``m``.

    ``recompute_time`` (per-layer, from
    :func:`recompute_time_lower_bound`) tightens the work, chain and
    floor terms for a known recompute strategy: every layer's backward
    re-runs that forward time on the same serial engine, per micro batch
    and on the single-micro-batch critical path alike.  The default 0.0
    keeps the bound strategy-free (recompute only adds time).

    Communication and memory stalls only increase the simulated value,
    so the bound holds for every registered schedule x recompute
    strategy x (p, m) point -- property-checked in
    ``tests/analysis/test_bounds.py`` and
    ``tests/schedules/test_invariants.py``.
    """
    bound = makespan_lower_bound_fn(schedule, layer, num_layers, p, options)
    return bound(num_micro_batches, recompute_time)


def activation_elems_table2(
    schedule: str,
    b: int,
    s: int,
    h: int,
    num_layers: int,
    p: int,
    stage: int = 0,
    num_micro_batches: int | None = None,
) -> float:
    """Activation elements per Table 2 (1F1B / ZB1P / HelixPipe rows)."""
    bsh = float(b) * s * h
    if schedule == "1f1b":
        return 16.0 * (p - stage) * bsh * num_layers / p
    if schedule == "zb1p":
        return 16.0 * bsh * num_layers
    if schedule == "helix":
        if num_micro_batches is None:
            raise ValueError("helix needs num_micro_batches")
        return 4.0 * bsh * num_micro_batches * num_layers / p
    raise ValueError(f"unknown schedule {schedule!r}")
