"""Workload-grid tuning: tune_grid ranking, reporting and cache reuse."""

from repro.analysis.tuner_view import format_grid_table, grid_plan_rows
from repro.tuner import CostCache, tune_grid
from repro.workloads import Workload, WorkloadGrid
from tests.tuner.test_autotune import grid_points

def small_grid(**kw):
    """Small/fast grid: 1.3B on H20, two sequence lengths, one pipeline size."""
    base = dict(
        model="1.3B",
        gpu="H20",
        seq_lens=(16384, 32768),
        pipeline_sizes=(2,),
        budget_tokens=1 << 19,
    )
    base.update(kw)
    return WorkloadGrid(**base)


class TestFillBudget:
    def test_single_count_per_combo(self):
        wl = Workload.paper("1.3B", "H20", 2, 16384, num_micro_batches=9)
        cands = grid_points(
            wl, schedules=["1f1b"], options=False, fill_budget=True
        )
        # One micro-batch count -- the largest multiple of the divisor
        # (p=2) under the budget of 9 -- instead of the 1f1b sweep 2,4,6,8.
        assert {c.num_micro_batches for c in cands} == {8}

    def test_sweep_mode_unchanged(self):
        wl = Workload.paper("1.3B", "H20", 2, 16384, num_micro_batches=9)
        cands = grid_points(wl, schedules=["1f1b"], options=False)
        assert {c.num_micro_batches for c in cands} == {2, 4, 6, 8}


class TestTuneGrid:
    def test_spans_points_and_ranks_by_throughput(self):
        plans = tune_grid(small_grid(), schedules=["1f1b", "helix"],
                          options=False, cache=CostCache())
        feasible = [r for r in plans if r.feasible]
        assert feasible, "expected feasible plans"
        # Rows span multiple workload points.
        assert {(r.point.seq_len, r.point.p) for r in feasible} == {
            (16384, 2),
            (32768, 2),
        }
        # Ranked by tokens/s across the whole grid.
        rates = [r.tokens_per_s for r in feasible]
        assert rates == sorted(rates, reverse=True)
        # Feasible block strictly precedes the infeasible block.
        flags = [r.feasible for r in plans]
        assert flags == sorted(flags, reverse=True)

    def test_budget_fixes_micro_batches_per_point(self):
        plans = tune_grid(small_grid(), schedules=["1f1b"],
                          options=False, cache=CostCache())
        for r in plans:
            if r.plan is None:
                continue
            expected = (1 << 19) // r.point.seq_len
            d = 2  # 1f1b divisor == p
            assert r.plan.candidate.num_micro_batches == (expected // d) * d

    def test_dead_point_reported_with_reason(self):
        grid = small_grid(seq_lens=(16384, 1 << 21))
        plans = tune_grid(grid, schedules=["1f1b"], options=False,
                          cache=CostCache())
        dead = [r for r in plans if r.plan is None]
        assert len(dead) == 1
        assert dead[0].point.seq_len == 1 << 21
        assert not dead[0].feasible
        assert "token budget" in dead[0].reason

    def test_point_above_the_micro_batch_cap_reported_with_reason(self):
        # 512k tokens at 1k a micro batch is 512 micro batches.
        grid = small_grid(seq_lens=(1024,))
        (dead,) = tune_grid(grid, schedules=["1f1b"], options=False,
                            cache=CostCache())
        assert dead.plan is None and not dead.feasible
        assert "micro-batch budget 512 is above the maximum" in dead.reason

    def test_divisor_preclusion_surfaces_as_infeasible_row(self):
        # Budget of 2 micro batches at 16k; helix needs fold*p == 4.
        grid = small_grid(seq_lens=(16384,), budget_tokens=2 << 14)
        plans = tune_grid(grid, schedules=["1f1b", "helix"],
                          options=False, cache=CostCache())
        precluded = [
            r
            for r in plans
            if r.reason and "micro-batch divisor" in r.reason
        ]
        assert precluded, "helix divisor preclusion must be a row, not a gap"
        assert all(r.plan.candidate.schedule == "helix" for r in precluded)

    def test_shared_cache_warms_every_point(self):
        cache = CostCache()
        grid = small_grid()
        first = tune_grid(grid, schedules=["1f1b", "helix"],
                          options=False, cache=cache)
        misses = cache.stats.misses
        assert misses > 0
        again = tune_grid(grid, schedules=["1f1b", "helix"],
                          options=False, cache=cache)
        assert cache.stats.misses == misses, "second sweep must be all hits"
        assert [r.label for r in again] == [r.label for r in first]


class TestGridView:
    def test_table_includes_point_columns_and_reasons(self):
        grid = small_grid(seq_lens=(16384, 1 << 21))
        plans = tune_grid(grid, schedules=["1f1b", "helix"],
                          options=False, cache=CostCache())
        rows = grid_plan_rows(plans)
        assert {"rank", "seq_len", "pp", "mb", "schedule", "status"} <= set(rows[0])
        text = format_grid_table(plans)
        assert "16k" in text
        assert "token budget" in text  # dead point reason rendered
        assert "ok" in text
