"""Lower-bound formulas and the candidate throughput pricer."""

import pytest

from repro.analysis.bubble import (
    bubble_lower_bound,
    bubble_time_1f1b,
    makespan_lower_bound,
)
from repro.costmodel.timing import TimingModel
from repro.tuner import autotune
from repro.tuner.bounds import throughput_upper_bounds
from repro.tuner.cache import CostCache
from repro.workloads import Workload


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
        assert bubble_lower_bound("zb-milp", layer, 24, 4) == 0.0
        assert bubble_lower_bound("adapipe", layer, 24, 4) == 0.0
        assert bubble_lower_bound("mystery", layer, 24, 4) == 0.0

    def test_never_negative(self, layer):
        for name in ("1f1b", "zb1p", "interleaved", "helix", "other"):
            assert bubble_lower_bound(name, layer, 24, 4) >= 0.0

    def test_makespan_bound_floors_at_dependency_chain(self, layer):
        # With one micro batch on a large pipeline, the F->BI chain of a
        # single micro batch dominates the per-stage work term.
        chain_bound = makespan_lower_bound("zb-milp", layer, 24, 24, 1)
        chain = 24 * (
            layer.fwd + layer.pre.bwd_b + layer.attn.bwd_b + layer.post.bwd_b
        )
        assert chain_bound == pytest.approx(chain)


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
