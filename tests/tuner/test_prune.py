"""Admissible pruning never changes what the tuner finds.

ISSUE acceptance: on the paper's 7B / H20 / p=8 / 64k acceptance grid
the pruned sweep's best ``PlanResult`` is byte-identical to the
exhaustive sweep's, the feasible ranking restricted to the candidates
both sweeps simulated is identical, and pruning decisions replay
deterministically across fresh, partly warm and warm re-sweeps.
"""

import pytest

from repro.experiments.common import Workload
from repro.schedules.registry import workload_cache_key
from repro.tuner import CostCache, SweepTelemetry, autotune
from repro.tuner.autotune import _candidate_key, _workload_text


@pytest.fixture(scope="module")
def wl():
    """The paper's 7B / H20 / p=8 / 64k acceptance workload."""
    return Workload.paper("7B", "H20", 8, 65536)


@pytest.fixture(scope="module")
def exhaustive(wl):
    cache = CostCache()
    plans = autotune(wl, cache=cache, prune=False)
    return plans, cache


@pytest.fixture(scope="module")
def pruned(wl):
    cache = CostCache()
    plans = autotune(wl, cache=cache)
    return plans, cache


class TestPrunedVsExhaustive:
    def test_best_plan_is_byte_identical(self, exhaustive, pruned):
        full, _ = exhaustive
        cut, _ = pruned
        assert full and cut
        assert full[0].feasible
        assert cut[0] == full[0]

    def test_pruning_actually_prunes(self, wl, exhaustive, pruned):
        _, full_cache = exhaustive
        _, cut_cache = pruned
        assert cut_cache.stats.pruned > 0
        assert cut_cache.stats.misses < full_cache.stats.misses
        assert full_cache.stats.pruned == 0

    def test_feasible_ranking_identical_on_simulated_candidates(
        self, exhaustive, pruned
    ):
        """Restricted to the candidates the pruned sweep simulated, the
        two feasible rankings agree row for row (same order, same
        metrics): pruning only removes provably-losing rows, it never
        reorders or perturbs the survivors."""
        full, _ = exhaustive
        cut, _ = pruned
        simulated = {
            r.candidate for r in cut if not (r.reason or "").startswith("pruned")
        }
        full_rank = [r for r in full if r.feasible and r.candidate in simulated]
        cut_rank = [r for r in cut if r.feasible]
        assert cut_rank == full_rank

    def test_pruned_rows_reported_not_dropped(self, exhaustive, pruned):
        """Every exhaustive candidate appears in the pruned sweep too;
        the skipped ones carry an explicit ``pruned:`` reason."""
        full, _ = exhaustive
        cut, _ = pruned
        assert {r.candidate for r in cut} == {r.candidate for r in full}
        skipped = [r for r in cut if (r.reason or "").startswith("pruned")]
        assert skipped
        for row in skipped:
            assert not row.feasible
            assert row.iteration_time is None
            assert "upper bound" in row.reason

    def test_pruned_candidates_would_have_lost(self, exhaustive, pruned):
        """Ground truth: every pruned candidate's exhaustively-simulated
        throughput is below the winner's -- the bound never cut a
        contender."""
        full, _ = exhaustive
        cut, _ = pruned
        best = full[0].tokens_per_s
        by_cand = {r.candidate: r for r in full}
        for row in cut:
            if (row.reason or "").startswith("pruned"):
                assert by_cand[row.candidate].tokens_per_s < best

    def test_telemetry_counts_only_simulated_candidates(self, wl):
        """Every pending candidate is either built and simulated once,
        or pruned; the exhaustive sweep builds them all."""
        for prune in (True, False):
            tel, cache = SweepTelemetry(), CostCache()
            rows = autotune(wl, cache=cache, prune=prune, telemetry=tel)
            assert tel.candidates == len(rows)
            assert tel.built == tel.simulated == cache.stats.misses == len(cache)
            assert tel.built + cache.stats.pruned == tel.candidates
            assert (cache.stats.pruned > 0) == prune


@pytest.mark.parametrize("p", (4, 8))
@pytest.mark.parametrize("gpu", ("H20", "A800"))
@pytest.mark.parametrize("model", ("3B", "7B", "13B"))
def test_best_plan_identical_across_models_gpus_and_depths(model, gpu, p):
    """Every schedule's ramp term leaves the winner alone: the best row
    is byte-identical with and without pruning at 64k."""
    wl = Workload.paper(model, gpu, p, 65536)
    full = autotune(wl, cache=CostCache(), prune=False)
    cut = autotune(wl, cache=CostCache())
    assert full[0].feasible
    assert cut[0] == full[0]


class TestDeterminism:
    def test_warm_resweep_replays_identical_decisions(self, wl):
        shared = CostCache()
        cold = autotune(wl, cache=shared)
        misses = shared.stats.misses
        warm = autotune(wl, cache=shared)
        assert warm == cold
        # Simulated candidates hit the cache; pruned ones never touch it.
        assert len(shared) == misses
        assert shared.stats.misses == misses
        assert shared.stats.hits == misses
        skipped = sum(1 for r in cold if (r.reason or "").startswith("pruned"))
        assert skipped > 0
        assert shared.stats.pruned == 2 * skipped

    def test_fresh_sweep_replays_identical_decisions(self, wl, pruned):
        """A second cold sweep on its own cache simulates and prunes
        exactly the candidates the first one did."""
        plans, first = pruned
        cache = CostCache()
        assert autotune(wl, cache=cache) == plans
        assert len(cache) == len(first)
        assert cache.stats.misses == first.stats.misses
        assert cache.stats.pruned == first.stats.pruned

    def test_partly_warm_cache_replays_identical_decisions(self, wl, pruned):
        """Records already cached are reused, not re-simulated, and do
        not change what the walk prunes: the rows, and the candidates
        the walk skips, match a cold sweep's."""
        plans, first = pruned
        wtext = _workload_text(
            workload_cache_key(wl), wl.cluster.node.gpu.hbm_bytes
        )
        simulated = [
            _candidate_key(wtext, r.candidate)
            for r in plans
            if not (r.reason or "").startswith("pruned")
        ]
        preloaded = simulated[::2]
        cache = CostCache()
        for key in preloaded:
            cache.get_or_eval(key, lambda key=key: first.peek(key))
        before = cache.stats.misses

        assert autotune(wl, cache=cache) == plans
        assert cache.stats.hits == len(preloaded)
        assert cache.stats.misses - before == len(simulated) - len(preloaded)
        assert cache.stats.pruned == first.stats.pruned
        assert len(cache) == len(simulated)
