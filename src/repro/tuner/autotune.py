"""Auto-tuning planner: search the schedule configuration space.

The right pipeline schedule depends on the workload shape -- sequence
length, pipeline size and the GPU memory cap decide whether two-fold
FILO, zero-bubble or an adaptively-recomputing baseline wins (paper
Sections 4.2-4.5, Figure 8).  :func:`autotune` makes that decision by
search instead of enumeration: it sweeps every tunable registered
schedule x its admissible :class:`RecomputeStrategy` choices x the
feasible micro-batch counts under the workload's token budget x the
schedule's registered option grid (interleaved chunk counts, ZB1P
outstanding-W caps, HelixPipe fold), evaluates each candidate with the
discrete-event simulator behind a memoizing
:class:`~repro.tuner.cache.CostCache`, and returns ranked
:class:`PlanResult` rows -- feasible plans ordered by simulated
throughput, infeasible candidates kept with their reasons.

Large grids parallelise: ``autotune(..., workers=N)`` evaluates cold
candidates in a ``concurrent.futures`` process pool
(:mod:`repro.tuner.worker`).  Each worker returns a dict of records by
cache key, which the serial walk feeds through
:meth:`CostCache.get_or_eval`.  Results are deterministic and identical
to the serial sweep -- evaluation is a pure function of the candidate
key, and rows are assembled in sweep order regardless of completion
order.

Every candidate that is not pruned or cached is built and simulated in
full.  A sweep keeps nothing it built: each schedule dies with its
evaluation, while the collector is still paused.
"""

from __future__ import annotations

import functools
import gc
import itertools
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from repro.costmodel.memory import RecomputeStrategy
from repro.schedules.registry import (
    ScheduleBuildError,
    ScheduleSpec,
    available_schedules,
    get_schedule,
    workload_cache_key,
    workload_option_defaults,
)
from repro.sim import simulate
# No sweep calls these; planbench/launcher.py wraps these names.
from repro.sim import resimulate, simulate_recording  # noqa: F401
from repro.sim.engine import DeadlockError
from repro.tuner.bounds import throughput_upper_bounds
from repro.tuner.cache import CostCache
from repro.tuner.telemetry import SweepTelemetry
from repro.tuner.worker import evaluate_chunk
from repro.workloads import Workload

__all__ = ["Candidate", "PlanResult", "autotune"]


_gc_pause_lock = threading.Lock()
_gc_pause_depth = 0  # guarded-by: _gc_pause_lock
_gc_pause_owned = False  # guarded-by: _gc_pause_lock


@contextmanager
def _gc_paused():
    """Pause automatic garbage collection over an allocation burst.

    One candidate evaluation allocates tens of thousands of short-lived
    tuples and instruction objects; at the default thresholds the gen-0
    collector fires hundreds of times per sweep, each pass scanning the
    long-lived cost-model and cache heap for cycles that reference
    counting already reclaims (the sweep's object graphs are acyclic).
    Pausing collection for the sweep removes that overhead; the next
    allocation after re-enabling triggers a normal collection.

    The collector switch is process-wide, so pauses nest across threads:
    the first entrant disables collection if it was enabled, and only
    the last one to leave restores it.  A collector the caller disabled
    beforehand stays disabled.
    """
    global _gc_pause_depth, _gc_pause_owned
    with _gc_pause_lock:
        if _gc_pause_depth == 0:
            _gc_pause_owned = gc.isenabled()
            gc.disable()
        _gc_pause_depth += 1
    try:
        yield
    finally:
        with _gc_pause_lock:
            _gc_pause_depth -= 1
            if _gc_pause_depth == 0 and _gc_pause_owned:
                gc.enable()


@dataclass(frozen=True)
class Candidate:
    """One point of the search space."""

    schedule: str
    recompute: RecomputeStrategy
    num_micro_batches: int
    options: tuple[tuple[str, Any], ...] = ()

    @property
    def label(self) -> str:
        opts = "".join(f",{k}={v}" for k, v in self.options)
        return (
            f"{self.schedule}[{self.recompute.value},"
            f"m={self.num_micro_batches}{opts}]"
        )


@dataclass(frozen=True)
class PlanResult:
    """Evaluation of one candidate, ranked by :func:`autotune`.

    ``reason`` is ``None`` for feasible plans; otherwise it explains the
    infeasibility (builder constraint violation, planner failure under
    the cap, simulated peak memory above the cap, executor deadlock, or
    a grid preclusion such as a micro-batch divisor beyond the budget).
    Simulated metrics are ``None`` when the candidate never built (not
    NaN: NaN compares unequal to itself, which would break comparing a
    cached sweep against a cold one).
    """

    candidate: Candidate
    feasible: bool
    reason: str | None
    iteration_time: float | None
    tokens_per_s: float
    peak_memory_bytes: float | None
    bubble_fraction: float | None

    @property
    def label(self) -> str:
        return self.candidate.label


# -- candidate enumeration ---------------------------------------------------


def _tunable_specs(schedules: Sequence[str] | None) -> list[ScheduleSpec]:
    if schedules is None:
        return [
            s
            for s in (get_schedule(n) for n in available_schedules())
            if s.tunable
        ]
    return [get_schedule(n) for n in schedules]


def _option_combos(
    spec: ScheduleSpec, num_stages: int
) -> list[tuple[tuple[str, Any], ...]]:
    """The spec's registered option combinations, canonicalised.

    Pairs whose value equals the schema default are dropped, so the
    all-defaults combination is always the empty tuple -- one canonical
    key per configuration, however the grid spelled it.
    """
    grid = spec.option_grid(num_stages)
    if not grid:
        return [()]
    names = sorted(grid)
    combos: list[tuple[tuple[str, Any], ...]] = []
    seen: set[tuple[tuple[str, Any], ...]] = set()
    for values in itertools.product(*(grid[n] for n in names)):
        combo = tuple(
            (n, v) for n, v in zip(names, values) if v != spec.options[n]
        )
        if combo not in seen:
            seen.add(combo)
            combos.append(combo)
    return combos


def _iter_grid(
    workload: Workload,
    schedules: Sequence[str] | None,
    options: bool,
    fill_budget: bool,
) -> Iterator[tuple[Candidate, str | None]]:
    """Yield ``(candidate, precluded_reason)`` over the full sweep grid.

    The grid is schedules x registered option combinations (only the
    defaults when ``options`` is false) x micro-batch counts x each
    schedule's admissible recompute strategies.  Each schedule sweeps
    every multiple of its own micro-batch divisor up to the workload's
    budget (``workload.num_micro_batches``), so a layer-wise baseline
    that only needs multiples of ``p`` is not restricted to HelixPipe's
    ``2p`` grid.  ``fill_budget`` runs only the largest multiple <=
    budget instead -- the fixed-tokens-per-iteration semantics of
    token-budget planning, where the micro-batch count is determined by
    the workload, not searched.

    ``precluded_reason`` is ``None`` for real grid points.  A schedule
    whose micro-batch divisor exceeds the workload budget has no grid
    point at all; it yields one synthetic candidate (at the divisor,
    the smallest count it could run) with the reason, so sweeps report
    the exclusion instead of silently dropping the schedule.
    """
    p = workload.p
    budget = workload.num_micro_batches
    for spec in _tunable_specs(schedules):
        for combo in _option_combos(spec, p) if options else [()]:
            d = spec.micro_batch_divisor(p, **dict(combo))
            if d > budget:
                yield (
                    Candidate(spec.name, spec.default_recompute, d, combo),
                    f"micro-batch divisor {d} exceeds budget {budget}",
                )
                continue
            counts: Iterable[int] = (
                ((budget // d) * d,) if fill_budget else range(d, budget + 1, d)
            )
            for m in counts:
                for strat in spec.recompute_choices:
                    yield Candidate(spec.name, strat, m, combo), None


# -- evaluation --------------------------------------------------------------


def _candidate_key(wkey: tuple, cand: Candidate, memory_cap_bytes: float) -> tuple:
    # ``wkey`` is workload_cache_key(workload): a canonical,
    # process-stable identity, so two workloads sharing a model/cluster
    # *name* never alias in a shared or persisted cache, and a key
    # computed in a pool worker equals the parent's.
    return (
        wkey,
        float(memory_cap_bytes),
        cand.schedule,
        cand.recompute.value,
        cand.num_micro_batches,
        cand.options,
    )


class _EvalContext:
    """Per-sweep memo of workload-derived values shared by every candidate.

    Cost providers, the static-memory figure and per-spec workload
    option defaults are pure functions of the workload (and memory cap),
    yet were recomputed for each of the hundreds of candidates in a
    sweep -- dominating profiles of the cold path.  One context per
    sweep evaluates each exactly once; cost providers are further shared
    per recompute strategy (builders never mutate them).

    ``telemetry``, when given, accumulates per-phase wall time and
    counters.  Nothing built is memoized: the cost cache evaluates a key
    at most once, so a memo under that key could never hit, and every
    candidate is simulated in full.
    """

    def __init__(
        self,
        workload: Workload,
        memory_cap_bytes: float,
        *,
        telemetry: SweepTelemetry | None = None,
    ) -> None:
        self.workload = workload
        self.memory_cap_bytes = float(memory_cap_bytes)
        self.telemetry = telemetry
        self._costs: dict[RecomputeStrategy, Any] = {}
        self._static: float | None = None
        self._defaults: dict[str, dict[str, Any]] = {}

    def costs(self, recompute: RecomputeStrategy) -> Any:
        provider = self._costs.get(recompute)
        if provider is None:
            provider = self._costs[recompute] = self.workload.costs(recompute)
        return provider

    def static_memory(self) -> float:
        if self._static is None:
            self._static = self.workload.static_memory()
        return self._static

    def option_defaults(self, spec: ScheduleSpec) -> dict[str, Any]:
        defaults = self._defaults.get(spec.name)
        if defaults is None:
            defaults = self._defaults[spec.name] = workload_option_defaults(
                spec, self.workload, self.memory_cap_bytes
            )
        return defaults

    def build_schedule(self, spec: ScheduleSpec, cand: Candidate, opts: dict):
        """Build the candidate's IR."""
        tel = self.telemetry
        t0 = time.perf_counter()
        sched = spec.build(
            (self.workload.p, cand.num_micro_batches),
            self.costs(cand.recompute),
            verify=False,
            **opts,
        )
        if tel is not None:
            tel.build_s += time.perf_counter() - t0
            tel.built += 1
        return sched

    def simulate_candidate(self, sched):
        """Simulate a built schedule without a trace."""
        tel = self.telemetry
        t0 = time.perf_counter()
        try:
            return simulate(
                sched,
                self.workload.cluster,
                static_memory_bytes=self.static_memory(),
                verify=False,
                record_trace=False,
            )
        finally:
            if tel is not None:
                tel.simulate_s += time.perf_counter() - t0
                tel.simulated += 1


def _cold_evaluate(ctx: _EvalContext, cand: Candidate) -> dict[str, Any]:
    """Build + simulate one candidate; returns a cacheable record."""
    spec = get_schedule(cand.schedule)
    opts = dict(cand.options)
    for name, value in ctx.option_defaults(spec).items():
        opts.setdefault(name, value)
    try:
        # verify=False on both steps: registry builders are
        # property-tested against the full pass pipeline, so the sweep
        # skips the per-candidate re-verification; a genuinely
        # unexecutable schedule still surfaces as a runtime
        # DeadlockError below.
        sched = ctx.build_schedule(spec, cand, opts)
        result = ctx.simulate_candidate(sched)
    except (ScheduleBuildError, DeadlockError, ValueError) as err:
        return {"error": str(err)}
    return {
        "error": None,
        "makespan": result.makespan,
        "peak_memory_bytes": result.max_peak_memory_bytes,
        "bubble_fraction": result.bubble_fraction,
    }


def _infeasible(cand: Candidate, reason: str) -> PlanResult:
    return PlanResult(
        candidate=cand,
        feasible=False,
        reason=reason,
        iteration_time=None,
        tokens_per_s=0.0,
        peak_memory_bytes=None,
        bubble_fraction=None,
    )


def _to_plan_result(
    workload: Workload,
    cand: Candidate,
    record: dict[str, Any],
    memory_cap_bytes: float,
) -> PlanResult:
    if record["error"] is not None:
        return _infeasible(cand, record["error"])
    tokens = float(cand.num_micro_batches) * workload.micro_batch * workload.seq_len
    makespan = record["makespan"]
    peak = record["peak_memory_bytes"]
    reason = None
    if peak > memory_cap_bytes:
        gib = float(1 << 30)
        reason = (
            f"OOM: peak {peak / gib:.1f} GiB > cap {memory_cap_bytes / gib:.1f} GiB"
        )
    return PlanResult(
        candidate=cand,
        feasible=reason is None,
        reason=reason,
        iteration_time=makespan,
        tokens_per_s=tokens / makespan if makespan > 0 else 0.0,
        peak_memory_bytes=peak,
        bubble_fraction=record["bubble_fraction"],
    )


# -- the tuner ---------------------------------------------------------------


def autotune(
    workload: Workload,
    memory_cap_bytes: float | None = None,
    *,
    schedules: Sequence[str] | None = None,
    options: bool = True,
    fill_budget: bool = False,
    cache: CostCache | None = None,
    workers: int | None = None,
    prune: bool = True,
    telemetry: SweepTelemetry | None = None,
) -> list[PlanResult]:
    """Search the schedule space for the fastest feasible plan.

    Parameters
    ----------
    workload:
        The :class:`~repro.workloads.Workload` to plan: its shape, cost
        context and micro-batch budget.
    memory_cap_bytes:
        Per-GPU memory capacity; defaults to the cluster GPU's HBM size.
        Plans whose simulated peak exceeds it are reported infeasible,
        and schedules that plan under a cap themselves (AdaPipe) receive
        it as their planning budget.
    schedules:
        Registered schedule names to sweep; ``None`` means every tunable
        one.  Each schedule sweeps its own admissible recompute
        strategies and every micro-batch count on its divisibility grid
        up to the workload budget.
    options:
        Sweep each schedule's registered option grid; ``False`` runs
        every schedule at its default options only.
    fill_budget:
        Run each schedule/option combination at the single largest
        micro-batch count on its divisor grid under the workload budget
        instead of sweeping every multiple -- the fixed
        tokens-per-iteration semantics workload-grid planning uses
        (:func:`repro.tuner.grid.tune_grid`).
    cache:
        :class:`CostCache` to memoize evaluations in (default: a fresh
        cache private to this sweep).  Identical candidate tuples are
        never re-simulated; pass the same cache to later sweeps, or one
        attached to a persisted store with :meth:`CostCache.open`, to
        reuse evaluations across sweeps and runs.
    workers:
        Evaluate cold candidates in a process pool of this size
        (``None``/``0``/``1``: serially in-process).  Each worker
        evaluates a chunk and returns a dict of records by cache key;
        the serial walk feeds those records through
        :meth:`CostCache.get_or_eval`, so results are identical to the
        serial sweep in content, order and cache-stats accounting.
    prune:
        Skip simulating candidates whose closed-form throughput upper
        bound (:func:`repro.tuner.bounds.throughput_upper_bounds`, built
        on the Table 2 lower bounds in :mod:`repro.analysis.bubble`)
        is already below the best simulated feasible throughput.
        Candidates are walked best-bound-first, so the optimum is
        provably never pruned: the winner's bound dominates its own
        simulated throughput, hence every candidate it prunes is
        strictly worse.  Pruned candidates surface as infeasible rows
        (reason ``"pruned: ..."``), are counted in
        :attr:`CacheStats.pruned`, and never enter the cache -- a warm
        re-sweep replays the identical decisions.  ``prune=False`` is
        the exhaustive escape hatch.
    telemetry:
        :class:`~repro.tuner.telemetry.SweepTelemetry` accumulating
        per-phase wall time (build/bound/simulate/cache) and counters
        for this sweep; reuse one instance across sweeps to aggregate.

    Returns
    -------
    list[PlanResult]
        Feasible plans first, ranked by simulated tokens/s (ties broken
        by lower peak memory), then the infeasible candidates, with
        their reasons, in sweep order.
    """
    cache = CostCache() if cache is None else cache
    if memory_cap_bytes is None:
        memory_cap_bytes = float(workload.cluster.node.gpu.hbm_bytes)

    wkey = workload_cache_key(workload)
    rows: list[PlanResult | None] = []
    pending: list[tuple[int, Candidate, tuple]] = []
    for cand, precluded in _iter_grid(workload, schedules, options, fill_budget):
        if precluded is not None:
            rows.append(_infeasible(cand, precluded))
            continue
        pending.append(
            (len(rows), cand, _candidate_key(wkey, cand, memory_cap_bytes))
        )
        rows.append(None)

    if telemetry is not None:
        telemetry.candidates += len(pending)

    # Admissible pruning: price every pending candidate's closed-form
    # throughput upper bound in one call, then walk the
    # candidates best-bound-first.  Any candidate whose bound is below
    # the best simulated feasible throughput so far provably cannot win
    # (bound >= simulated throughput), so its simulation is skipped.
    t_bound = time.perf_counter()
    ubs = (
        throughput_upper_bounds(workload, [c for _, c, _ in pending])
        if prune and pending
        else None
    )
    if telemetry is not None:
        telemetry.bound_s += time.perf_counter() - t_bound
    if ubs is None:
        order = range(len(pending))
    else:
        # Ties (same bound) keep sweep order, so the walk -- and with it
        # every pruning decision -- is deterministic.
        order = sorted(range(len(pending)), key=lambda i: (-ubs[i], i))

    # One batched cache read decides which candidates are already
    # evaluated (a sqlite store is queried once, not once per key); the
    # pruning test and the parallel pre-dispatch both read this set.
    t_fetch = time.perf_counter()
    held = cache.fetch_many(key for _, _, key in pending)
    if telemetry is not None:
        telemetry.eval_s += time.perf_counter() - t_fetch

    # Fan the cold candidates out to a process pool.  Each worker returns
    # its records by key; the walk below feeds them through the same
    # get_or_eval path the serial sweep uses, so hit/miss accounting is
    # identical.
    remote: dict[tuple, dict[str, Any]] = {}
    if workers and workers > 1:
        # Cached feasible throughputs give the pruning floor before any
        # cold work is dispatched.  A candidate the serial replay below
        # prunes at bound ub had some earlier-walked candidate with
        # simulated throughput > ub; that candidate's own bound is >= its
        # throughput > ub, so the dispatch filter (ub >= floor from
        # *all* cached records) keeps a superset of what the replay
        # simulates -- never the reverse, which would deadlock the
        # replay into local cold evaluation.
        best_floor = 0.0
        if ubs is not None:
            for idx, cand, key in pending:
                if key in held:
                    row = _to_plan_result(
                        workload, cand, cache.peek(key), memory_cap_bytes
                    )
                    if row.feasible and row.tokens_per_s > best_floor:
                        best_floor = row.tokens_per_s
        missing: list[Candidate] = []
        seen: set[tuple] = set()
        for i, (_, cand, key) in enumerate(pending):
            if key in held or key in seen:
                continue
            if ubs is not None and ubs[i] < best_floor:
                continue
            seen.add(key)
            missing.append(cand)
        if missing:
            n_workers = min(int(workers), len(missing))
            # Strided chunks spread expensive neighbours (large m, MILP
            # schedules) across workers instead of stacking one worker.
            chunks = [missing[i::n_workers] for i in range(n_workers)]
            run = functools.partial(evaluate_chunk, workload, memory_cap_bytes)
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                for records in pool.map(run, chunks):
                    remote.update(records)

    best_tps = 0.0
    t_eval = time.perf_counter()
    with _gc_paused():
        ctx = _EvalContext(workload, memory_cap_bytes, telemetry=telemetry)
        for i in order:
            idx, cand, key = pending[i]
            if key not in held and ubs is not None and ubs[i] < best_tps:
                # Simulating this candidate cannot change the winner;
                # report it as pruned.  It never enters the cache, so a
                # warm re-sweep walks the identical records and replays
                # the identical decision (cached records are never
                # pruned).  Remote workers may have speculatively
                # evaluated it under their weaker pre-dispatch floor;
                # that record is discarded.
                cache.stats.pruned += 1
                rows[idx] = _infeasible(
                    cand,
                    f"pruned: throughput upper bound {ubs[i]:.0f} tokens/s "
                    f"below best simulated plan {best_tps:.0f} tokens/s",
                )
                continue
            if key in remote:
                record = cache.get_or_eval(key, lambda k=key: remote[k])
            else:
                record = cache.get_or_eval(
                    key, lambda c=cand: _cold_evaluate(ctx, c)
                )
            held.add(key)  # cached now: a repeat of this key is never pruned
            row = _to_plan_result(workload, cand, record, memory_cap_bytes)
            rows[idx] = row
            if row.feasible and row.tokens_per_s > best_tps:
                best_tps = row.tokens_per_s
    if telemetry is not None:
        telemetry.eval_s += time.perf_counter() - t_eval

    results: list[PlanResult] = rows  # type: ignore[assignment]
    feasible = [r for r in results if r.feasible]
    feasible.sort(key=lambda r: (-r.tokens_per_s, r.peak_memory_bytes))
    return feasible + [r for r in results if not r.feasible]
