"""Auto-tuner: candidate sweep, memory cap, memoizing cache, acceptance."""

import dataclasses
import gc
import sys
import threading
import time

import pytest

from repro.costmodel.memory import RecomputeStrategy
from repro.experiments.common import METHODS, Workload, run_method
from repro.schedules.registry import stable_value_key, workload_cache_key
from repro.tuner import CostCache, autotune
from repro.tuner.autotune import _candidate_key, _gc_paused, _iter_grid

GIB = float(1 << 30)


def grid_points(workload, schedules=None, options=True, fill_budget=False):
    """The sweep's real grid points (divisor-precluded rows left out)."""
    return [
        cand
        for cand, precluded in _iter_grid(workload, schedules, options, fill_budget)
        if precluded is None
    ]


@pytest.fixture(scope="module")
def wl():
    """The paper's 7B / H20 / p=8 / 64k acceptance workload."""
    return Workload.paper("7B", "H20", 8, 65536)


@pytest.fixture(scope="module")
def small_wl():
    return Workload.paper("7B", "H20", 4, 32768)


class TestEnumeration:
    def test_micro_batch_counts_follow_schedule_divisors(self, small_wl):
        cands = grid_points(small_wl)
        # The divisor tracks the swept fold: 2p for the bound fold=2,
        # p for the fold=1 grid point.
        helix2 = {
            c.num_micro_batches
            for c in cands
            if c.schedule == "helix" and c.options == ()
        }
        helix1 = {
            c.num_micro_batches
            for c in cands
            if c.schedule == "helix" and c.options == (("fold", 1),)
        }
        layerwise = {c.num_micro_batches for c in cands if c.schedule == "1f1b"}
        assert helix2 == {8}  # multiples of 2p up to the budget of 2p
        assert helix1 == {4, 8}  # fold 1 runs on the p grid
        assert layerwise == {4, 8}  # multiples of p

    def test_recompute_restricted_per_schedule(self, small_wl):
        cands = grid_points(small_wl)
        helix = {c.recompute for c in cands if c.schedule == "helix"}
        assert helix == {RecomputeStrategy.NONE, RecomputeStrategy.WITHOUT_ATTENTION}
        ada = {c.recompute for c in cands if c.schedule == "adapipe"}
        assert ada == {RecomputeStrategy.NONE}

    def test_aliases_not_swept(self, small_wl):
        cands = grid_points(small_wl)
        assert not any(c.schedule == "helix-no-recompute" for c in cands)
        # helix-naive is helix x fold=1, which the fold grid now covers.
        assert not any(c.schedule == "helix-naive" for c in cands)
        assert any(
            c.schedule == "helix" and c.options == (("fold", 1),) for c in cands
        )


class TestOptionAxis:
    def test_interleaved_chunk_grid_swept(self, small_wl):
        cands = grid_points(small_wl)
        combos = {c.options for c in cands if c.schedule == "interleaved"}
        assert combos == {(), (("num_chunks_per_stage", 4),)}

    def test_zb1p_grid_depends_on_pipeline_size(self, small_wl):
        cands = grid_points(small_wl)
        combos = {c.options for c in cands if c.schedule == "zb1p"}
        # None (the schema default) canonicalises to the empty combo.
        assert combos == {(), (("max_outstanding", small_wl.p),)}

    def test_default_combo_is_canonical_empty_tuple(self, small_wl):
        """A grid value equal to the schema default must not produce a
        second, distinct cache key for the same configuration."""
        cands = grid_points(small_wl, schedules=["helix"])
        fold_combos = {c.options for c in cands}
        assert () in fold_combos  # fold=2, the bound default
        assert (("fold", 2),) not in fold_combos

    def test_options_false_disables_the_option_axis(self, small_wl):
        swept = grid_points(small_wl)
        none = grid_points(small_wl, options=False)
        assert any(c.options for c in swept)
        assert all(c.options == () for c in none)
        assert {c.schedule for c in none} == {c.schedule for c in swept}

    def test_option_candidates_evaluate(self, small_wl):
        """fold=1 grid points build and rank like any other candidate."""
        plans = autotune(small_wl, schedules=["helix"], cache=CostCache())
        fold1 = [p for p in plans if p.candidate.options == (("fold", 1),)]
        assert fold1
        assert any(p.feasible for p in fold1)


class TestDivisorBudgetPreclusion:
    def test_schedule_beyond_budget_reported_not_dropped(self):
        """p=4 with a budget of 4 micro-batches cannot run two-fold
        helix (divisor 8); the sweep must say so instead of silently
        omitting the schedule."""
        wl = Workload.paper("7B", "H20", 4, 32768, num_micro_batches=4)
        plans = autotune(wl, schedules=["helix"], cache=CostCache())
        precluded = [
            p
            for p in plans
            if p.reason and "micro-batch divisor 8 exceeds budget 4" in p.reason
        ]
        assert len(precluded) == 1
        assert not precluded[0].feasible
        assert precluded[0].candidate.num_micro_batches == 8
        assert precluded[0].iteration_time is None
        # The fold-1 grid points still fit the budget and evaluate.
        assert any(p.feasible and p.candidate.options == (("fold", 1),) for p in plans)

    def test_grid_points_exclude_synthetic_rows(self):
        wl = Workload.paper("7B", "H20", 4, 32768, num_micro_batches=4)
        cands = grid_points(wl, schedules=["helix"])
        assert all(c.num_micro_batches <= 4 for c in cands)


class TestWorkloadKey:
    def test_key_is_value_based_and_stable(self, small_wl):
        other = Workload.paper("7B", "H20", 4, 32768)
        assert workload_cache_key(small_wl) == workload_cache_key(other)
        assert workload_cache_key(small_wl) != workload_cache_key(
            Workload.paper("7B", "H20", 4, 65536)
        )

    def test_key_contains_no_memory_addresses(self, small_wl):
        assert " at 0x" not in repr(workload_cache_key(small_wl))

    def test_non_dataclass_model_raises_type_error(self, small_wl):
        """A model object without value fields has no process-stable
        identity; keying it must fail loudly, not fall back to repr."""

        class Opaque:
            pass

        with pytest.raises(TypeError, match="cannot derive a stable cache key"):
            workload_cache_key(dataclasses.replace(small_wl, model=Opaque()))

    @pytest.mark.parametrize(
        "value", [(1, 2), {"a": 1}, frozenset({1}), RecomputeStrategy.NONE]
    )
    def test_only_primitives_and_dataclasses_have_keys(self, value):
        """Model and cluster fields are primitives or dataclasses; any
        other value fails loudly instead of keying by a guess."""
        with pytest.raises(TypeError, match="cannot derive a stable cache key"):
            stable_value_key(value)


class TestMemoryCap:
    def test_feasible_plans_respect_cap(self, small_wl):
        cap = 24 * GIB
        plans = autotune(small_wl, memory_cap_bytes=cap, cache=CostCache())
        feasible = [p for p in plans if p.feasible]
        assert feasible
        assert all(p.peak_memory_bytes <= cap for p in feasible)
        over = [p for p in plans if not p.feasible and p.reason and "OOM" in p.reason]
        assert over, "a 24 GiB cap must exclude the no-recompute plans"

    def test_tiny_cap_reports_reasons_for_everything(self, small_wl):
        plans = autotune(small_wl, memory_cap_bytes=1 * GIB, cache=CostCache())
        assert all(not p.feasible for p in plans)
        assert all(p.reason for p in plans)


class TestCache:
    def test_cache_hits_reproduce_cold_results(self, small_wl):
        shared = CostCache()
        cold = autotune(small_wl, cache=shared)
        assert shared.stats.hits == 0 and shared.stats.misses > 0
        warm = autotune(small_wl, cache=shared)
        assert warm == cold
        assert shared.stats.hits == shared.stats.misses

    def test_cache_matches_independent_cold_run(self, small_wl):
        a = autotune(small_wl, cache=CostCache())
        b = autotune(small_wl, cache=CostCache())
        assert a == b

    def test_cached_equality_with_build_error_candidates(self, small_wl):
        """Build-error rows carry None metrics (not NaN), so a cached
        sweep still compares equal to its cold run."""
        shared = CostCache()
        # AdaPipe plans under the cap itself; 1 GiB leaves it no plan.
        kw = dict(schedules=["adapipe"], cache=shared)
        cold = autotune(small_wl, 1 * GIB, **kw)
        warm = autotune(small_wl, 1 * GIB, **kw)
        assert cold and not cold[0].feasible
        assert cold[0].iteration_time is None
        assert "no feasible plan under the memory cap" in cold[0].reason
        assert warm == cold
        assert shared.stats.hits == len(warm)

    def test_key_distinguishes_caps(self, small_wl):
        c1 = grid_points(small_wl)[0]
        wkey = workload_cache_key(small_wl)
        assert _candidate_key(wkey, c1, 1.0) != _candidate_key(wkey, c1, 2.0)


class TestFillBudgetParity:
    """fill_budget=True must pick the plan an exhaustive sweep picks."""

    KW = dict(schedules=["1f1b", "helix", "zb1p"])

    def test_candidates_are_the_max_divisor_multiples(self, small_wl):
        full = grid_points(small_wl, **self.KW)
        filled = grid_points(small_wl, fill_budget=True, **self.KW)
        # One candidate per (schedule, recompute, options) combination...
        combo = lambda c: (c.schedule, c.recompute, c.options)
        assert len(filled) == len({combo(c) for c in full})
        # ...at exactly the largest count the exhaustive sweep reaches.
        max_full = {}
        for c in full:
            key = combo(c)
            max_full[key] = max(max_full.get(key, 0), c.num_micro_batches)
        for c in filled:
            assert c.num_micro_batches == max_full[combo(c)]

    def test_best_plan_matches_exhaustive_sweep(self, small_wl):
        """On the smoke workload, the winner of the full micro-batch-count
        sweep runs at the budget-filling count, so the cheap fill_budget
        sweep returns an identical best PlanResult."""
        full = autotune(small_wl, cache=CostCache(), **self.KW)
        filled = autotune(
            small_wl, cache=CostCache(), fill_budget=True, **self.KW
        )
        assert full and filled
        assert full[0].feasible and filled[0].feasible
        assert filled[0] == full[0]
        # Every fill_budget plan appears in the exhaustive sweep with
        # identical metrics (same cache keys -> same records).
        by_cand = {p.candidate: p for p in full}
        for plan in filled:
            assert by_cand[plan.candidate] == plan


class TestGcPaused:
    @pytest.fixture(autouse=True)
    def _restore_the_collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()

    def test_overlapping_pauses_hold_until_the_last_one_leaves(self):
        # Thread A pauses first and leaves first; B's pause spans A's
        # exit, so the collector must stay off until B leaves.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def a():
            with _gc_paused():
                a_in.set()
                b_in.wait(10)
            a_out.set()

        def b():
            a_in.wait(10)
            with _gc_paused():
                b_in.set()
                a_out.wait(10)
                seen["enabled_after_a_left"] = gc.isenabled()

        assert gc.isenabled()
        threads = [threading.Thread(target=f) for f in (a, b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"enabled_after_a_left": False}
        assert gc.isenabled()

    def test_no_thread_sees_the_collector_on_inside_a_pause(self):
        # More threads than cores and a tiny switch interval: a lost
        # update of the pause depth would re-enable the collector while
        # another thread is still inside its pause.
        seen_on = []

        def worker():
            for _ in range(200):
                with _gc_paused():
                    time.sleep(0)  # let another thread enter or leave
                    if gc.isenabled():
                        seen_on.append(threading.current_thread().name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen_on == []
        assert gc.isenabled()

    def test_a_collector_disabled_beforehand_stays_disabled(self):
        gc.disable()
        with _gc_paused():
            with _gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert not gc.isenabled()


class TestAcceptance:
    def test_paper_workload_ranked_and_beats_hardcoded_methods(self, wl):
        """ISSUE acceptance: non-empty ranked list, top plan feasible
        under the HBM cap and at least matching the best hardcoded
        METHODS entry on simulated iteration time."""
        cap = wl.cluster.node.gpu.hbm_bytes
        plans = autotune(wl, cache=CostCache())
        assert plans
        top = plans[0]
        assert top.feasible
        assert top.peak_memory_bytes <= cap
        assert top.iteration_time is not None

        best_hardcoded = min(
            run_method(wl, method).makespan for method in METHODS
        )
        assert top.iteration_time <= best_hardcoded * (1 + 1e-9)

    def test_ranking_is_by_throughput(self, wl):
        plans = [p for p in autotune(wl, cache=CostCache()) if p.feasible]
        rates = [p.tokens_per_s for p in plans]
        assert rates == sorted(rates, reverse=True)
