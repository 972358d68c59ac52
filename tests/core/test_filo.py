"""HelixPipe FILO schedule tests (naive and two-fold)."""

import pytest

from repro.analysis.bubble import bubble_time_helix
from repro.cluster import abstract_cluster
from repro.costmodel import RecomputeStrategy, unit_layer_times
from repro.core.filo import build_helix_filo
from repro.model import SegmentKind
from repro.schedules.costs import UnitCosts
from repro.schedules.ir import ComputeInstr, OpType
from repro.sim import simulate


def _unit(L, recompute=RecomputeStrategy.NONE, comm=0.0):
    return UnitCosts(num_layers=L, recompute=recompute, comm_time=comm)


def _build(p, m, L, fold=1, recompute=RecomputeStrategy.NONE, comm=0.0, **kw):
    kw.setdefault("include_embed", False)
    kw.setdefault("include_head", False)
    return build_helix_filo(p, m, _unit(L, recompute, comm), fold=fold, **kw)


class TestStructure:
    def test_validates(self):
        _build(4, 8, 8, fold=2).validate()

    def test_loop_size_constraint(self):
        with pytest.raises(ValueError, match="multiple"):
            _build(4, 6, 8, fold=1)
        with pytest.raises(ValueError, match="multiple"):
            _build(4, 4, 8, fold=2)

    def test_attention_count_per_stage(self):
        """Each stage executes fold attention computations per layer per
        loop -- the 'parallel across stages' property."""
        p, m, L, fold = 4, 8, 8, 2
        sched = _build(p, m, L, fold=fold)
        for stage in range(p):
            attn_f = [
                i
                for i in sched.programs[stage]
                if isinstance(i, ComputeInstr)
                and i.op is OpType.F
                and i.segment.kind is SegmentKind.ATTN
            ]
            assert len(attn_f) == L * m // p

    def test_every_layer_phase_computed_once_per_mb(self):
        p, m, L = 4, 8, 8
        sched = _build(p, m, L, fold=2)
        seen: dict[tuple, int] = {}
        for i in sched.compute_instructions():
            if i.op is OpType.F:
                key = (i.segment.kind, i.segment.layer, i.micro_batch)
                seen[key] = seen.get(key, 0) + 1
        for mb in range(m):
            for l in range(L):
                attn = (SegmentKind.ATTN, l, mb)
                assert seen.get(attn) == 1
        assert all(v == 1 for v in seen.values())

    def test_forward_backward_symmetric_counts(self):
        sched = _build(4, 8, 8, fold=2)
        fs = sum(1 for i in sched.compute_instructions() if i.op is OpType.F)
        bs = sum(1 for i in sched.compute_instructions() if i.op is OpType.B)
        assert fs == bs

    def test_recompute_instructions_emitted(self):
        sched = _build(4, 8, 8, fold=2, recompute=RecomputeStrategy.WITHOUT_ATTENTION)
        rcs = [i for i in sched.compute_instructions() if i.op is OpType.RC]
        assert rcs, "recompute strategy must emit RC instructions"
        assert all(i.segment.kind is not SegmentKind.ATTN for i in rcs)

    def test_no_recompute_of_attention_ever(self):
        sched = _build(4, 8, 8, fold=2, recompute=RecomputeStrategy.WITHOUT_ATTENTION)
        for i in sched.compute_instructions():
            if i.segment.kind is SegmentKind.ATTN:
                assert i.op in (OpType.F, OpType.B)

    def test_embed_and_head_on_stage0(self):
        sched = build_helix_filo(4, 8, _unit(8), fold=2)
        for stage in range(1, 4):
            kinds = {
                i.segment.kind
                for i in sched.programs[stage]
                if isinstance(i, ComputeInstr)
            }
            assert SegmentKind.EMBED not in kinds
            assert SegmentKind.HEAD not in kinds
        kinds0 = {
            i.segment.kind
            for i in sched.programs[0]
            if isinstance(i, ComputeInstr)
        }
        assert SegmentKind.EMBED in kinds0 and SegmentKind.HEAD in kinds0


class TestTiming:
    def test_single_loop_naive_matches_table2(self):
        """Exact reproduction of the Figure 2b packing: bubble =
        (p-1) * (fwd + bwd of pre+post), attention out of the bubble."""
        p, L = 4, 8
        r = simulate(_build(p, 4, L, fold=1), abstract_cluster(p))
        expected = bubble_time_helix(
            unit_layer_times(), p, fold=1, recompute_pre_post=False
        )
        assert r.mean_bubble_time == pytest.approx(expected)

    def test_two_fold_bubble_independent_of_m(self):
        p, L = 4, 8
        bubbles = []
        for m in (8, 16, 32):
            r = simulate(_build(p, m, L, fold=2), abstract_cluster(p))
            bubbles.append(r.mean_bubble_time)
        assert max(bubbles) - min(bubbles) < 1e-6

    def test_two_fold_bubble_at_most_formula(self):
        p, L = 4, 8
        r = simulate(_build(p, 8, L, fold=2), abstract_cluster(p))
        formula = bubble_time_helix(
            unit_layer_times(), p, fold=2, recompute_pre_post=False
        )
        assert r.mean_bubble_time <= formula + 1e-9

    def test_helix_beats_1f1b(self):
        from repro.schedules.one_f_one_b import build_1f1b

        p, m, L = 4, 8, 8
        hx = simulate(_build(p, m, L, fold=2), abstract_cluster(p))
        fb = simulate(
            build_1f1b(p, m, _unit(L), include_embed=False, include_head=False),
            abstract_cluster(p),
        )
        assert hx.makespan < fb.makespan

    def test_two_fold_overlaps_comm_better_than_naive(self):
        """Section 4.3.2: with comm < attention, the two-fold schedule
        hides transfers that stall the naive schedule."""
        p, m, L, comm = 4, 8, 8, 2.0  # attn fwd = 3 > comm
        nv = simulate(_build(p, m, L, fold=1, comm=comm), abstract_cluster(p))
        tf = simulate(_build(p, m, L, fold=2, comm=comm), abstract_cluster(p))
        assert tf.makespan < nv.makespan

    def test_comm_overlap_breaks_when_comm_exceeds_attention(self):
        """Section 5.3: when a transfer outlasts the attention behind it
        the two-fold schedule degrades."""
        p, m, L = 4, 8, 8
        base = simulate(_build(p, m, L, fold=2, comm=0.0), abstract_cluster(p))
        ok = simulate(_build(p, m, L, fold=2, comm=1.0), abstract_cluster(p))
        slow = simulate(_build(p, m, L, fold=2, comm=6.0), abstract_cluster(p))
        assert ok.makespan < base.makespan * 1.10  # overlapped
        assert slow.makespan > base.makespan * 1.25  # exposed

    def test_recompute_adds_pre_post_forward_time(self):
        p, m, L = 4, 8, 8
        off = simulate(_build(p, m, L, fold=2), abstract_cluster(p))
        on = simulate(
            _build(p, m, L, fold=2, recompute=RecomputeStrategy.WITHOUT_ATTENTION),
            abstract_cluster(p),
        )
        assert on.makespan > off.makespan


class TestMemory:
    def test_balanced_across_stages(self):
        """Table 2: HelixPipe's stash is the same on every stage."""
        p, m, L = 4, 8, 8
        sched = _build(p, m, L, fold=2, recompute=RecomputeStrategy.WITHOUT_ATTENTION)
        r = simulate(sched, abstract_cluster(p))
        peaks = r.peak_memory_bytes
        assert max(peaks) <= min(peaks) * 1.25

    def test_table2_helix_stash_level(self):
        """Unit world: 4 abstract units per layer per micro batch, m*L/p
        per stage (2 owner units + 2 attention units under w/o-attn
        recompute in UnitCosts' stash accounting)."""
        p, m, L = 4, 8, 8

        class WoAttnUnit(UnitCosts):
            def segment_cost(self, seg):
                c = super().segment_cost(seg)
                return c

        sched = _build(p, m, L, fold=2, recompute=RecomputeStrategy.NONE)
        r = simulate(sched, abstract_cluster(p))
        # NONE strategy: 16 units per layer per mb, balanced: 16*m*L/p.
        expected = 16.0 * m * L / p
        for peak in r.peak_memory_bytes:
            assert peak == pytest.approx(expected, rel=0.1)

    def test_memory_grows_with_m(self):
        p, L = 4, 8
        r8 = simulate(_build(p, 8, L, fold=2), abstract_cluster(p))
        r16 = simulate(_build(p, 16, L, fold=2), abstract_cluster(p))
        assert max(r16.peak_memory_bytes) > max(r8.peak_memory_bytes)
