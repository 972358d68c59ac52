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
(:mod:`repro.tuner.worker`), merging each worker's cache into the
caller's on join.  Results are deterministic and identical to the
serial sweep -- evaluation is a pure function of the candidate key, and
rows are assembled in sweep order regardless of completion order.

The workload argument is duck-typed to
:class:`repro.workloads.Workload`: anything exposing ``p``,
``num_micro_batches``, ``micro_batch``, ``seq_len``, ``cluster``,
``model``, ``costs(recompute)`` and ``static_memory()`` works.  Cache
keys must be stable across processes, so a workload whose ``model`` or
``cluster`` is not a dataclass (and has no value-bearing ``repr``) must
provide a ``cache_key()`` method -- see
:func:`repro.schedules.registry.workload_cache_key`.
"""

from __future__ import annotations

import functools
import gc
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.costmodel.memory import RecomputeStrategy
from repro.schedules.registry import (
    ScheduleBuildError,
    ScheduleSpec,
    available_schedules,
    get_schedule,
    workload_cache_key,
    workload_option_defaults,
)
from repro.sim import resimulate, simulate, simulate_recording
from repro.sim.engine import DeadlockError
from repro.tuner.bounds import throughput_upper_bounds
from repro.tuner.cache import CostCache
from repro.tuner.ircache import ScheduleIRCache
from repro.tuner.telemetry import SweepTelemetry
from repro.tuner.worker import evaluate_chunk

__all__ = ["Candidate", "PlanResult", "enumerate_candidates", "autotune"]

# Smallest schedule (total instruction count) worth recording a timeline
# reference for.  Below this, a full simulation costs about as much as
# the recording overhead plus a resume, so incremental re-simulation
# cannot pay for itself (it stays *correct* either way -- this is purely
# a cost cutoff).
_MIN_RECORD_OPS = 2000


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
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
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
    spec: ScheduleSpec,
    num_stages: int,
    option_grids: Mapping[str, Mapping[str, Sequence[Any]]] | None,
) -> list[tuple[tuple[str, Any], ...]]:
    """Option combinations for one spec, canonicalised against defaults.

    Pairs whose value equals the schema default are dropped, so the
    all-defaults combination is always the empty tuple -- one canonical
    key per configuration, however the grid spelled it.
    """
    if option_grids is None:
        grid = spec.option_grid(num_stages)
    else:
        grid = {
            name: tuple(values)
            for name, values in option_grids.get(spec.name, {}).items()
        }
        unknown = sorted(set(grid) - set(spec.options))
        if unknown:
            raise ValueError(
                f"{spec.name}: option grid names {unknown} not in the "
                f"option schema {sorted(spec.options)}"
            )
    empty = sorted(name for name, values in grid.items() if not values)
    if empty:
        # An empty axis would itertools.product to zero combos and
        # silently drop the schedule -- the silent-exclusion class this
        # module otherwise reports as infeasible rows.
        raise ValueError(
            f"{spec.name}: empty value sequence for option grid {empty}"
        )
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
    workload: Any,
    schedules: Sequence[str] | None,
    recomputes: Sequence[RecomputeStrategy] | str | None,
    micro_batch_counts: Sequence[int] | None,
    option_grids: Mapping[str, Mapping[str, Sequence[Any]]] | None,
    fill_budget: bool = False,
) -> Iterator[tuple[Candidate, str | None]]:
    """Yield ``(candidate, precluded_reason)`` over the full sweep grid.

    ``precluded_reason`` is ``None`` for real grid points.  A schedule
    whose micro-batch divisor exceeds the workload budget has no grid
    point at all; it yields one synthetic candidate (at the divisor,
    the smallest count it could run) with the reason, so sweeps report
    the exclusion instead of silently dropping the schedule.

    ``fill_budget`` switches the micro-batch axis from *sweep every
    multiple of the divisor* to *run the largest multiple <= budget* --
    the fixed-tokens-per-iteration semantics of token-budget planning,
    where the micro-batch count is determined by the workload, not
    searched.
    """
    p = int(workload.p)
    budget = int(workload.num_micro_batches)
    specs = _tunable_specs(schedules)
    if option_grids is not None:
        # A grid keyed by a schedule outside the sweep is a typo, and a
        # worse one than an unknown option name: the override also
        # disables every registered grid, so the sweep would silently
        # run all-defaults while looking successful.
        unknown = sorted(set(option_grids) - {s.name for s in specs})
        if unknown:
            raise ValueError(
                f"option grid(s) for {unknown} name no swept schedule; "
                f"sweeping: {sorted(s.name for s in specs)}"
            )
    if isinstance(recomputes, str) and recomputes != "defaults":
        # Any other string would be iterated character-by-character and
        # crash far from here with an opaque AttributeError.
        raise ValueError(
            f"recomputes={recomputes!r}: the only string mode is "
            "'defaults' (pass a sequence of RecomputeStrategy otherwise)"
        )
    for spec in specs:
        if recomputes is None:
            strategies: Sequence[RecomputeStrategy] = spec.recompute_choices
        elif recomputes == "defaults":
            # Each schedule in its paper-default configuration only --
            # the comparison-figure semantics (one row per method).
            strategies = (spec.default_recompute,)
        else:
            strategies = recomputes
        for combo in _option_combos(spec, p, option_grids):
            if micro_batch_counts is None:
                d = spec.micro_batch_divisor(p, **dict(combo))
                if d > budget:
                    yield (
                        Candidate(spec.name, spec.default_recompute, d, combo),
                        f"micro-batch divisor {d} exceeds budget {budget}",
                    )
                    continue
                if fill_budget:
                    counts: Iterable[int] = ((budget // d) * d,)
                else:
                    counts = range(d, budget + 1, d)
            else:
                counts = micro_batch_counts
            for m in counts:
                for strat in strategies:
                    yield Candidate(spec.name, strat, int(m), combo), None


def enumerate_candidates(
    workload: Any,
    schedules: Sequence[str] | None = None,
    recomputes: Sequence[RecomputeStrategy] | str | None = None,
    micro_batch_counts: Sequence[int] | None = None,
    option_grids: Mapping[str, Mapping[str, Sequence[Any]]] | None = None,
    fill_budget: bool = False,
) -> list[Candidate]:
    """The sweep grid: schedules x recompute x micro-batch counts x options.

    With ``micro_batch_counts=None`` each schedule sweeps every multiple
    of its own divisibility constraint up to the workload's micro-batch
    budget (``workload.num_micro_batches``), so a layer-wise baseline
    that only needs multiples of ``p`` is not restricted to HelixPipe's
    ``2p`` grid.  With ``recomputes=None`` each schedule sweeps its own
    admissible strategies; the string ``"defaults"`` restricts each
    schedule to its single paper-default strategy instead.  With ``option_grids=None`` each schedule
    sweeps its registered :attr:`~ScheduleSpec.tune_options` grid
    (resolved for the workload's pipeline size).  An explicit
    ``{schedule: {option: values}}`` mapping *replaces* the registered
    grids entirely -- schedules it does not name sweep defaults only,
    and ``{}`` disables the option axis altogether; to extend one
    schedule's grid while keeping the others, include theirs in the
    mapping too.  Explicit counts and strategies are taken
    as-is -- candidates that violate a hard builder constraint or name
    an inadmissible strategy surface as infeasible results rather than
    being silently dropped.  ``fill_budget=True`` replaces the
    micro-batch sweep with the single largest feasible count per
    schedule/option combination (token-budget planning semantics).
    """
    return [
        cand
        for cand, precluded in _iter_grid(
            workload,
            schedules,
            recomputes,
            micro_batch_counts,
            option_grids,
            fill_budget,
        )
        if precluded is None
    ]


# -- evaluation --------------------------------------------------------------


def _workload_key(workload: Any) -> tuple:
    # Canonical, process-stable identity (dataclass fields or an opt-in
    # cache_key() hook -- never a memory-address repr): two workloads
    # may share a model/cluster *name* (a tweaked "7B" preset, a retuned
    # "H20x8") and must not alias in a shared or persisted cache, and a
    # key computed in a pool worker must equal the parent's.
    return workload_cache_key(workload)


def _candidate_key(
    workload: Any,
    cand: Candidate,
    memory_cap_bytes: float,
    workload_key: tuple | None = None,
) -> tuple:
    # Sweep loops pass the precomputed workload_key: the recursive
    # dataclass traversal is identical for every candidate.
    return (
        _workload_key(workload) if workload_key is None else workload_key,
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

    The context also owns the sweep's build/simulate fast paths:

    * ``ir_cache`` memoizes built IR under its structural key, so a
      configuration revisited by a warm re-sweep, another grid point or
      a parallel worker is never rebuilt;
    * ``incremental`` turns on prefix re-simulation for candidate
      *families* (same schedule/m/options, different recompute): the
      first sibling simulated records a timeline reference, later
      siblings resume it (:mod:`repro.sim.incremental`), with metrics
      bit-identical to a full simulation either way;
    * ``telemetry`` accumulates per-phase wall time and counters.
    """

    def __init__(
        self,
        workload: Any,
        memory_cap_bytes: float,
        *,
        wkey: tuple | None = None,
        ir_cache: ScheduleIRCache | None = None,
        incremental: bool = True,
        telemetry: SweepTelemetry | None = None,
        family_counts: Mapping[tuple, int] | None = None,
    ) -> None:
        self.workload = workload
        self.memory_cap_bytes = float(memory_cap_bytes)
        self.wkey = wkey
        self.ir_cache = ir_cache
        self.incremental = incremental
        self.telemetry = telemetry
        self.family_counts = family_counts if family_counts is not None else {}
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

    def _workload_key(self) -> tuple:
        if self.wkey is None:
            self.wkey = _workload_key(self.workload)
        return self.wkey

    def family_key(self, cand: Candidate) -> tuple:
        """Identity of a candidate's sibling family (recompute excluded)."""
        return (
            self._workload_key(),
            self.memory_cap_bytes,
            cand.schedule,
            cand.num_micro_batches,
            cand.options,
        )

    def build_schedule(self, spec: ScheduleSpec, cand: Candidate, opts: dict):
        """Build (or fetch) the candidate's IR; cached structurally."""
        tel = self.telemetry
        cache = self.ir_cache
        key = None
        if cache is not None:
            key = (
                self._workload_key(),
                self.memory_cap_bytes,
                cand.schedule,
                cand.recompute.value,
                cand.num_micro_batches,
                cand.options,
            )
            sched = cache.get(key)
            if sched is not None:
                if tel is not None:
                    tel.build_cache_hits += 1
                return sched
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
        if cache is not None:
            cache.put(key, sched)
        return sched

    def simulate_candidate(self, cand: Candidate, sched):
        """Simulate the candidate, incrementally when a sibling already ran.

        The first simulated member of a multi-candidate family records a
        :class:`~repro.sim.incremental.SimReference`; later members
        resume its timeline prefix (falling back to a full simulation
        whenever the divergence detector cannot prove reuse safe).
        Singleton families take the plain path -- recording would only
        add overhead nothing reuses.
        """
        tel = self.telemetry
        t0 = time.perf_counter()
        try:
            cache = self.ir_cache
            if self.incremental and cache is not None:
                fam = self.family_key(cand)
                ref = cache.get_reference(fam)
                if ref is not None:
                    result, stats = resimulate(
                        ref,
                        sched,
                        self.workload.cluster,
                        static_memory_bytes=self.static_memory(),
                        verify=False,
                    )
                    if tel is not None:
                        if stats.mode == "incremental":
                            tel.incremental_hits += 1
                        else:
                            tel.incremental_fallbacks += 1
                    return result
                if self.family_counts.get(fam, 0) > 1 and (
                    sum(len(prog) for prog in sched.programs)
                    >= _MIN_RECORD_OPS
                ):
                    ref = simulate_recording(
                        sched,
                        self.workload.cluster,
                        static_memory_bytes=self.static_memory(),
                        verify=False,
                    )
                    cache.put_reference(fam, ref)
                    if tel is not None:
                        tel.references_recorded += 1
                    return ref.result
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


def _cold_evaluate(
    workload: Any,
    cand: Candidate,
    memory_cap_bytes: float,
    ctx: _EvalContext | None = None,
) -> dict[str, Any]:
    """Build + simulate one candidate; returns a cacheable record."""
    if ctx is None:
        ctx = _EvalContext(workload, memory_cap_bytes)
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
        result = ctx.simulate_candidate(cand, sched)
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
    workload: Any,
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
    workload: Any,
    memory_cap_bytes: float | None = None,
    *,
    schedules: Sequence[str] | None = None,
    recomputes: Sequence[RecomputeStrategy] | str | None = None,
    micro_batch_counts: Sequence[int] | None = None,
    option_grids: Mapping[str, Mapping[str, Sequence[Any]]] | None = None,
    fill_budget: bool = False,
    cache: CostCache | None = None,
    include_infeasible: bool = True,
    workers: int | None = None,
    prune: bool = True,
    ir_cache: ScheduleIRCache | None = None,
    incremental: bool = True,
    telemetry: SweepTelemetry | None = None,
) -> list[PlanResult]:
    """Search the schedule space for the fastest feasible plan.

    Parameters
    ----------
    workload:
        Workload shape + cost context (see module docstring).
    memory_cap_bytes:
        Per-GPU memory capacity; defaults to the cluster GPU's HBM size.
        Plans whose simulated peak exceeds it are reported infeasible,
        and schedules that plan under a cap themselves (AdaPipe) receive
        it as their planning budget.
    schedules, recomputes, micro_batch_counts, option_grids:
        Restrict the sweep grid; ``None`` means every tunable registered
        schedule, each schedule's admissible strategies (the string
        ``"defaults"``: only each schedule's default strategy), every
        micro-batch count on the schedule's divisibility grid up to the
        workload budget, and each schedule's registered option grid.
        An explicit ``option_grids`` mapping replaces the registered
        grids entirely (unnamed schedules sweep defaults only; ``{}``
        disables the option axis).
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
    include_infeasible:
        Keep infeasible candidates (with reasons) at the tail of the
        returned list.
    workers:
        Evaluate cold candidates in a process pool of this size
        (``None``/``0``/``1``: serially in-process).  Each worker
        evaluates a chunk into its own cache; the chunks are merged into
        ``cache`` on join, and results are identical to the serial sweep
        in content, order and cache-stats accounting.
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
        the exhaustive escape hatch; workloads the closed-form model
        cannot price (duck types without model/GPU attributes) disable
        pruning automatically.
    ir_cache:
        :class:`ScheduleIRCache` memoizing built IR under its structural
        key (workload, cap, schedule, recompute, m, options), so each
        distinct IR builds exactly once per cache lifetime.  ``None``
        (default) uses a fresh private cache for this sweep; pass a
        shared instance to reuse builds across sweeps
        (:func:`repro.tuner.grid.tune_grid` does).
    incremental:
        Re-simulate candidate *families* (same schedule/m/options,
        different recompute strategy) incrementally: the first sibling
        records its event timeline, later siblings resume from the last
        checkpoint before their first timing divergence
        (:mod:`repro.sim.incremental`).  Metrics -- and therefore
        winners, rankings and cached records -- are bit-identical to
        full simulation; ``incremental=False`` is the escape hatch that
        forces every candidate through the from-scratch simulator.
    telemetry:
        :class:`~repro.tuner.telemetry.SweepTelemetry` accumulating
        per-phase wall time (build/bound/simulate/cache) and counters
        for this sweep; reuse one instance across sweeps to aggregate.

    Returns
    -------
    list[PlanResult]
        Feasible plans first, ranked by simulated tokens/s (ties broken
        by lower peak memory), then -- unless disabled -- the infeasible
        candidates in sweep order.
    """
    cache = CostCache() if cache is None else cache
    if ir_cache is None:
        ir_cache = ScheduleIRCache()
    if memory_cap_bytes is None:
        memory_cap_bytes = float(workload.cluster.node.gpu.hbm_bytes)

    wkey = _workload_key(workload)
    rows: list[PlanResult | None] = []
    pending: list[tuple[int, Candidate, tuple]] = []
    for cand, precluded in _iter_grid(
        workload, schedules, recomputes, micro_batch_counts, option_grids,
        fill_budget,
    ):
        if (
            precluded is None
            and cand.recompute
            not in get_schedule(cand.schedule).recompute_choices
        ):
            # Explicitly requested strategy the schedule does not model
            # faithfully: report it rather than evaluating nonsense.
            precluded = (
                f"recompute {cand.recompute.value!r} not admissible "
                f"for schedule {cand.schedule!r}"
            )
        if precluded is not None:
            rows.append(_infeasible(cand, precluded))
            continue
        pending.append(
            (
                len(rows),
                cand,
                _candidate_key(workload, cand, memory_cap_bytes, wkey),
            )
        )
        rows.append(None)

    # Sibling-family multiplicity decides whether the first simulated
    # member records a resumable timeline reference: recording costs a
    # few percent, so singleton families skip it.
    family_counts: dict[tuple, int] = {}
    cap = float(memory_cap_bytes)
    for _, cand, _key in pending:
        fam = (wkey, cap, cand.schedule, cand.num_micro_batches, cand.options)
        family_counts[fam] = family_counts.get(fam, 0) + 1
    ctx = _EvalContext(
        workload,
        memory_cap_bytes,
        wkey=wkey,
        ir_cache=ir_cache,
        incremental=incremental,
        telemetry=telemetry,
        family_counts=family_counts,
    )
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

    # Fan the cold candidates out to a process pool.  Each worker fills
    # a private CostCache; the merged records feed the same get_or_eval
    # path the serial sweep uses, so hit/miss accounting is identical.
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
            run = functools.partial(
                evaluate_chunk, workload, memory_cap_bytes,
                incremental=incremental,
            )
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                for records in pool.map(run, chunks):
                    remote.update(records)

    best_tps = 0.0
    t_eval = time.perf_counter()
    with _gc_paused():
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
                    key,
                    lambda c=cand: _cold_evaluate(
                        workload, c, memory_cap_bytes, ctx
                    ),
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
    if not include_infeasible:
        return feasible
    return feasible + [r for r in results if not r.feasible]
