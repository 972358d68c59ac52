"""Workload presets, shape parsing and token-budget grid enumeration."""

import pytest

from repro.query import parse_text
from repro.workloads import (
    GPU_CLUSTERS,
    MAX_MICRO_BATCH_TOKENS,
    MAX_MICRO_BATCHES,
    Workload,
    WorkloadGrid,
    format_seq_len,
)


class TestParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [("64k", 65536), ("64K", 65536), ("65536", 65536), ("32k", 32768)],
    )
    def test_seq_len(self, text, expected):
        assert parse_text("seq_len", text) == expected

    @pytest.mark.parametrize("text", ["", "banana", "64q", "-4", "0", "1e3"])
    def test_seq_len_invalid(self, text):
        with pytest.raises(ValueError):
            parse_text("seq_len", text)

    @pytest.mark.parametrize(
        "text,expected",
        [("1M", 1 << 20), ("4M", 4 << 20), ("512k", 512 << 10), ("1G", 1 << 30)],
    )
    def test_token_budget(self, text, expected):
        assert parse_text("budget_tokens", text) == expected

    def test_seq_lens_list(self):
        assert parse_text("seq_lens", "16k, 32k,65536") == (16384, 32768, 65536)
        with pytest.raises(ValueError):
            parse_text("seq_lens", " , ")

    def test_int_list(self):
        assert parse_text("pipeline_sizes", "4,8") == (4, 8)
        with pytest.raises(ValueError):
            parse_text("pipeline_sizes", "4,eight")

    def test_int_list_entries_must_be_positive(self):
        with pytest.raises(ValueError, match="must be a positive integer"):
            parse_text("pipeline_sizes", "4,0")

    def test_format_seq_len_round_trips(self):
        assert format_seq_len(65536) == "64k"
        assert format_seq_len(parse_text("seq_len", "96k")) == "96k"
        assert format_seq_len(1000) == "1000"


class TestWorkload:
    def test_paper_defaults(self):
        wl = Workload.paper("7B", "H20", 4, 65536)
        assert wl.p == 4
        assert wl.num_micro_batches == 8  # 2 x p
        assert wl.tokens_per_iteration == 8 * 65536

    def test_reexported_from_experiments(self):
        # The experiments layer must resolve workloads through this
        # module, not a diverged copy.
        from repro.experiments.common import Workload as CommonWorkload

        assert CommonWorkload is Workload

    def test_gpu_presets_match_cli_choices(self):
        assert set(GPU_CLUSTERS) == {"H20", "A800"}

    def test_micro_batch_budget_is_capped(self):
        wl = Workload.paper("7B", "H20", 2, 8192, num_micro_batches=256)
        assert wl.num_micro_batches == MAX_MICRO_BATCHES == 256
        with pytest.raises(ValueError, match="budget 257 is above the maximum"):
            Workload.paper("7B", "H20", 2, 8192, num_micro_batches=257)
        # The 2 x p default is capped the same way.
        assert Workload.paper("7B", "H20", 128, 8192).num_micro_batches == 256
        with pytest.raises(ValueError, match="budget 258 is above the maximum"):
            Workload.paper("7B", "H20", 129, 8192)

    @pytest.mark.parametrize("seq_len,micro_batch", [
        (MAX_MICRO_BATCH_TOKENS + 1, 1),
        (10**400, 1),
        (8192, 10**160),
        (MAX_MICRO_BATCH_TOKENS // 2, 3),
    ])
    def test_micro_batch_tokens_are_capped(self, seq_len, micro_batch):
        # Past the cap the cost model's floats overflow; the workload
        # refuses the shape instead.
        with pytest.raises(ValueError, match="above the maximum of 16777216 tokens"):
            Workload.paper("7B", "H20", 4, seq_len, micro_batch=micro_batch)

    def test_micro_batch_at_the_token_cap_is_allowed(self):
        assert MAX_MICRO_BATCH_TOKENS == 1 << 24
        wl = Workload.paper("7B", "H20", 4, MAX_MICRO_BATCH_TOKENS // 2, micro_batch=2)
        assert wl.seq_len * wl.micro_batch == MAX_MICRO_BATCH_TOKENS


class TestWorkloadGrid:
    def test_default_budget_is_2p(self):
        grid = WorkloadGrid(seq_lens=(32768,), pipeline_sizes=(2, 4))
        points = grid.points()
        assert [p.num_micro_batches for p in points] == [4, 8]
        assert all(p.feasible for p in points)

    def test_token_budget_sets_micro_batches(self):
        grid = WorkloadGrid(
            seq_lens=(16384, 32768),
            pipeline_sizes=(4, 8),
            budget_tokens=1 << 20,
        )
        assert len(grid) == 4
        points = grid.points()
        assert len(points) == 4
        by_cell = {(p.seq_len, p.p): p.num_micro_batches for p in points}
        assert by_cell[(16384, 4)] == 64
        assert by_cell[(16384, 8)] == 64
        assert by_cell[(32768, 4)] == 32

    def test_budget_below_one_micro_batch_is_infeasible_row(self):
        grid = WorkloadGrid(
            seq_lens=(16384, 1 << 21),
            pipeline_sizes=(4,),
            budget_tokens=1 << 20,
        )
        points = grid.points()
        # The impossible point is enumerated, not omitted.
        assert len(points) == 2
        dead = [p for p in points if not p.feasible]
        assert len(dead) == 1
        assert dead[0].seq_len == 1 << 21
        assert "token budget" in dead[0].reason
        assert dead[0].num_micro_batches == 0
        with pytest.raises(ValueError, match="infeasible workload point"):
            dead[0].workload()

    def test_budget_above_the_cap_is_infeasible_row(self):
        grid = WorkloadGrid(
            seq_lens=(4096, 8192),
            pipeline_sizes=(2,),
            budget_tokens=(MAX_MICRO_BATCHES + 1) * 4096,
        )
        over, fits = grid.points()
        assert not over.feasible and over.num_micro_batches == 0
        assert "budget 257 is above the maximum of 256" in over.reason
        assert fits.feasible and fits.num_micro_batches == 128
        with pytest.raises(ValueError, match="infeasible workload point"):
            over.workload()
        # Without a token budget, the 2 x p default is capped too.
        (big,) = WorkloadGrid(seq_lens=(4096,), pipeline_sizes=(129,)).points()
        assert not big.feasible and "budget 258" in big.reason

    @pytest.mark.parametrize("budget_tokens", [None, 1 << 20])
    def test_micro_batch_above_the_token_cap_is_infeasible_row(self, budget_tokens):
        grid = WorkloadGrid(
            seq_lens=(MAX_MICRO_BATCH_TOKENS, MAX_MICRO_BATCH_TOKENS + 1, 10**160),
            pipeline_sizes=(2,),
            budget_tokens=budget_tokens,
        )
        at_cap, *over = grid.points()
        assert (at_cap.reason is None) == (budget_tokens is None)
        for point in over:
            assert not point.feasible and point.num_micro_batches == 0
            assert "above the maximum of 16777216 tokens" in point.reason
            with pytest.raises(ValueError, match="infeasible workload point"):
                point.workload()

    def test_micro_batch_scales_budget(self):
        grid = WorkloadGrid(
            seq_lens=(16384,),
            pipeline_sizes=(4,),
            micro_batch=2,
            budget_tokens=1 << 20,
        )
        (point,) = grid.points()
        assert point.num_micro_batches == 32  # budget / (seq * b)

    def test_point_resolves_to_workload(self):
        grid = WorkloadGrid(
            model="1.3B",
            gpu="A800",
            seq_lens=(32768,),
            pipeline_sizes=(2,),
            budget_tokens=1 << 19,
        )
        (point,) = grid.points()
        wl = point.workload()
        assert wl.model.name == "1.3B"
        assert wl.p == 2
        assert wl.num_micro_batches == 16
        assert wl.tokens_per_iteration == 1 << 19

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(model="70B"),
            dict(gpu="H100"),
            dict(seq_lens=()),
            dict(pipeline_sizes=()),
            dict(seq_lens=(0,)),
            dict(pipeline_sizes=(-1,)),
            dict(micro_batch=0),
            dict(budget_tokens=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadGrid(**kwargs)

    def test_label_mentions_shape(self):
        grid = WorkloadGrid(
            seq_lens=(16384, 32768), pipeline_sizes=(4, 8), budget_tokens=1 << 20
        )
        assert "16k,32k" in grid.label
        assert "4,8" in grid.label
