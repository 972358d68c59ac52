"""Parallel sweeps and persisted caches reproduce the serial tuner.

ISSUE acceptance: ``autotune(..., workers=4)`` returns plans identical
to the serial sweep on the 7B / H20 / p=8 / 64k grid, and a repeated
sweep against a persisted cache performs zero cold evaluations
(verified via :class:`CacheStats`).
"""

import pytest

from repro.experiments.common import Workload
from repro.schedules.registry import workload_cache_key
from repro.tuner import CostCache, SqliteCostStore, autotune
from repro.tuner.autotune import _candidate_key
from repro.tuner.worker import evaluate_chunk
from tests.tuner.test_autotune import grid_points


@pytest.fixture(scope="module")
def wl():
    """The paper's 7B / H20 / p=8 / 64k acceptance workload."""
    return Workload.paper("7B", "H20", 8, 65536)


@pytest.fixture(scope="module")
def serial(wl):
    cache = CostCache()
    plans = autotune(wl, cache=cache)
    return plans, cache


class TestParallelEquivalence:
    def test_workers4_matches_serial_on_acceptance_grid(self, wl, serial):
        serial_plans, serial_cache = serial
        cache = CostCache()
        parallel_plans = autotune(wl, cache=cache, workers=4)
        assert parallel_plans == serial_plans

    def test_parallel_cache_stats_match_serial(self, wl, serial):
        _, serial_cache = serial
        cache = CostCache()
        autotune(wl, cache=cache, workers=4)
        assert cache.stats.misses == serial_cache.stats.misses
        assert cache.stats.hits == serial_cache.stats.hits
        assert len(cache) == len(serial_cache)

    def test_workers_skip_already_cached_candidates(self, wl, serial):
        """A warm cache leaves nothing for the pool: all hits, no forks."""
        serial_plans, serial_cache = serial
        before = serial_cache.stats.misses
        again = autotune(wl, cache=serial_cache, workers=4)
        assert again == serial_plans
        assert serial_cache.stats.misses == before

    def test_worker_chunk_records_use_the_caller_keys(self, wl):
        """A worker returns one record per candidate, under the caller's key."""
        cap = float(wl.cluster.node.gpu.hbm_bytes)
        cands = grid_points(wl, schedules=["1f1b"])[:2]
        records = evaluate_chunk(wl, cap, cands)
        wkey = workload_cache_key(wl)
        assert set(records) == {_candidate_key(wkey, cand, cap) for cand in cands}


def _persist(wl, cache, path):
    """Write the records ``cache`` holds for ``wl``'s grid to a fresh store."""
    wkey = workload_cache_key(wl)
    cap = float(wl.cluster.node.gpu.hbm_bytes)
    held = cache.fetch_many(_candidate_key(wkey, cand, cap) for cand in grid_points(wl))
    SqliteCostStore(path).put_many((key, cache.peek(key)) for key in held)


class TestPersistedSweep:
    def test_second_sweep_from_disk_is_all_hits(self, wl, serial, tmp_path):
        serial_plans, serial_cache = serial
        path = tmp_path / "sweep.sqlite"
        _persist(wl, serial_cache, path)

        reloaded = CostCache.open(path)
        plans = autotune(wl, cache=reloaded)
        assert plans == serial_plans
        assert reloaded.stats.misses == 0, "persisted sweep must be fully warm"
        assert reloaded.stats.disk_hits == reloaded.stats.lookups

    def test_parallel_sweep_against_disk_cache_stays_cold_free(
        self, wl, serial, tmp_path
    ):
        serial_plans, serial_cache = serial
        path = tmp_path / "sweep.sqlite"
        _persist(wl, serial_cache, path)

        reloaded = CostCache.open(path)
        plans = autotune(wl, cache=reloaded, workers=4)
        assert plans == serial_plans
        assert reloaded.stats.misses == 0
