"""Lower-bound formulas and the candidate throughput pricer."""

import pytest

from repro.analysis.bubble import (
    adapipe_makespan_floor,
    bubble_lower_bound,
    bubble_time_1f1b,
    bubble_time_zb1p,
    makespan_lower_bound,
    recompute_time_lower_bound,
)
from repro.costmodel.timing import TimingModel
from repro.schedules.registry import get_schedule
from repro.tuner import autotune
from repro.tuner.bounds import throughput_upper_bounds
from repro.tuner.cache import CostCache
from repro.workloads import Workload
from tests.tuner.test_autotune import grid_points


@pytest.fixture(scope="module")
def wl():
    return Workload.paper("1.3B", "H20", 4, 16384)


@pytest.fixture(scope="module")
def layer(wl):
    return TimingModel(
        wl.cluster.node.gpu,
        wl.model,
        wl.micro_batch,
        wl.seq_len,
        sp=wl.cluster.sequence_parallel_size,
    ).layer_times()


class TestBubbleLowerBound:
    def test_interleaving_shrinks_the_ramp(self, layer):
        L, p = 24, 4
        full = bubble_lower_bound("1f1b", layer, L, p)
        v2 = bubble_lower_bound("interleaved", layer, L, p)
        v4 = bubble_lower_bound(
            "interleaved", layer, L, p, {"num_chunks_per_stage": 4}
        )
        assert full == bubble_time_1f1b(layer, L, p)
        assert v2 == pytest.approx(full / 2)
        assert v4 == pytest.approx(full / 4)

    def test_unknown_schedules_degrade_to_zero(self, layer):
        assert bubble_lower_bound("plugin-pipe", layer, 24, 4) == 0.0
        assert bubble_lower_bound("mystery", layer, 24, 4) == 0.0

    def test_never_negative(self, layer):
        for name in ("1f1b", "zb1p", "interleaved", "helix", "other"):
            assert bubble_lower_bound(name, layer, 24, 4) >= 0.0

    def test_makespan_bound_floors_at_dependency_chain(self, layer):
        # With one micro batch on a large pipeline, the F->BI chain of a
        # single micro batch dominates the per-stage work term.
        chain_bound = makespan_lower_bound("mystery", layer, 24, 24, 1)
        chain = 24 * (
            layer.fwd + layer.pre.bwd_b + layer.attn.bwd_b + layer.post.bwd_b
        )
        assert chain_bound == pytest.approx(chain)


class TestZbMilpBubble:
    def test_value(self, layer):
        L, p = 24, 4
        t_bi = layer.pre.bwd_b + layer.attn.bwd_b + layer.post.bwd_b
        expected = (p - 1) * (L / p) * (layer.fwd + t_bi)
        assert bubble_lower_bound("zb-milp", layer, L, p) == pytest.approx(
            expected, rel=1e-12
        )

    def test_at_least_eq3_by_the_weight_ramp(self, layer):
        """Eq. 3 lets BWs fill the ramp; zb-milp's BW follows its BI, so
        its ramp is larger by exactly (p-1)(L/p) t_BW."""
        t_bw = layer.pre.bwd_w + layer.post.bwd_w
        for L, p in ((24, 4), (32, 8), (48, 16), (4, 2), (8, 1)):
            milp = bubble_lower_bound("zb-milp", layer, L, p)
            eq3 = bubble_time_zb1p(layer, L, p)
            assert milp >= eq3
            assert milp - eq3 == pytest.approx((p - 1) * (L / p) * t_bw)


def _round_trip(layer, L):
    """T = L (t_F + t_B): one micro batch through every layer and back."""
    return L * (layer.fwd + layer.bwd)


class TestAdaPipeFloor:
    def test_one_micro_batch_is_one_round_trip(self, layer):
        for p in (1, 2, 4, 16):
            floor = adapipe_makespan_floor(layer, 32, p, 1)
            assert floor == pytest.approx(_round_trip(layer, 32), rel=1e-12)

    def test_one_stage_is_all_the_work(self, layer):
        for m in (1, 2, 7, 64):
            floor = adapipe_makespan_floor(layer, 32, 1, m)
            assert floor == pytest.approx(m * _round_trip(layer, 32), rel=1e-12)

    def test_never_below_work_conservation(self, layer):
        for p in (2, 4, 8, 16):
            for m in (1, 2, p, 2 * p, 8 * p):
                work = m * _round_trip(layer, 32) / p
                assert adapipe_makespan_floor(layer, 32, p, m) >= work

    def test_recompute_joins_the_backward(self, layer):
        rc = recompute_time_lower_bound(layer, "full")
        floor = adapipe_makespan_floor(layer, 32, 4, 8, rc)
        plain = adapipe_makespan_floor(layer, 32, 4, 8)
        assert floor == pytest.approx(
            plain * (layer.fwd + layer.bwd + rc) / (layer.fwd + layer.bwd)
        )

    def test_floor_is_adapipe_s_makespan_bound(self, layer):
        """The floor depends on m, so it lives in makespan_lower_bound;
        the m-free bubble stays 0.0 for adapipe."""
        assert bubble_lower_bound("adapipe", layer, 32, 4) == 0.0
        for m in (1, 4, 8, 32):
            assert makespan_lower_bound("adapipe", layer, 32, 4, m) == (
                adapipe_makespan_floor(layer, 32, 4, m)
            )


class TestThroughputUpperBounds:
    def test_bounds_dominate_simulated_throughput(self, wl):
        plans = autotune(wl, cache=CostCache())
        feasible = [r for r in plans if r.feasible]
        assert feasible
        cands = [r.candidate for r in feasible]
        ubs = throughput_upper_bounds(wl, cands)
        assert len(ubs) == len(cands)
        for row, ub in zip(feasible, ubs):
            assert row.tokens_per_s <= ub * (1.0 + 1e-9), (
                f"{row.label}: simulated {row.tokens_per_s} above bound {ub}"
            )

    def test_empty_candidates(self, wl):
        assert len(throughput_upper_bounds(wl, [])) == 0

    def test_pruner_prices_with_makespan_lower_bound(self):
        """One formula: on the 7B/H20/p=8/64k grid with options, every
        candidate's tokens / bound is makespan_lower_bound's value."""
        wl = Workload.paper("7B", "H20", 8, 65536)
        layer = TimingModel(
            wl.cluster.node.gpu,
            wl.model,
            wl.micro_batch,
            wl.seq_len,
            sp=wl.cluster.sequence_parallel_size,
        ).layer_times()
        cands = grid_points(wl)
        assert {c.schedule for c in cands} >= {"zb-milp", "adapipe", "helix"}
        ubs = throughput_upper_bounds(wl, cands)
        for cand, ub in zip(cands, ubs):
            tokens = cand.num_micro_batches * wl.micro_batch * wl.seq_len
            opts = {**get_schedule(cand.schedule).options, **dict(cand.options)}
            expected = makespan_lower_bound(
                cand.schedule,
                layer,
                wl.model.num_layers,
                wl.p,
                cand.num_micro_batches,
                opts,
                recompute_time_lower_bound(layer, cand.recompute),
            )
            assert tokens / ub == pytest.approx(expected, rel=1e-12, abs=0.0), (
                cand.label
            )
