"""`ScheduleIRCache` and what a sweep keeps: keys, simulations, lifetimes.

A sweep's schedules belong to one call: the suite checks that candidate
keys separate every axis of the candidate space (schedule, recompute,
micro-batch count, each option grid point), that every candidate is
simulated in full (no sweep records or resumes a sibling timeline),
that a shared cost cache agrees with evaluating each candidate alone,
that the LRU bounds hold, and that nothing a sweep built is alive once
it returns -- freed by reference counting, before the collector
resumes.
"""

import gc
import sys
import weakref
from contextlib import contextmanager

import pytest

from repro.costmodel.memory import RecomputeStrategy
from repro.schedules.ir import Schedule
from repro.schedules.registry import ScheduleSpec
from repro.tuner import CostCache, SweepTelemetry, autotune, tune_grid
from repro.tuner.autotune import (
    _candidate_key,
    _cold_evaluate,
    _EvalContext,
    _to_plan_result,
    _workload_text,
)
from repro.tuner.ircache import ScheduleIRCache
from repro.workloads import Workload, WorkloadGrid
from tests.tuner.test_autotune import grid_points

WL = Workload.paper("1.3B", "H20", 4, 8192)


def _ir_key(cand, wkey=("w",), cap=1.0):
    """A candidate's cost-cache key."""
    return _candidate_key(_workload_text(wkey, cap), cand)


def _rows(**kw):
    kw.setdefault("cache", CostCache())
    return autotune(WL, **kw)


def record_builds(monkeypatch):
    """Weak references to every schedule built from now on.

    Returns one weakref per :class:`Schedule` that ``ScheduleSpec.build``
    returns.
    """
    schedules = []
    build = ScheduleSpec.build

    def tracked_build(self, *args, **kwargs):
        sched = build(self, *args, **kwargs)
        schedules.append(weakref.ref(sched))
        return sched

    monkeypatch.setattr(ScheduleSpec, "build", tracked_build)
    return schedules


@contextmanager
def collector_off():
    """Disable automatic collection, so only reference counting frees."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def alive(refs):
    return [r for r in refs if r() is not None]


class TestKeys:
    def test_no_structural_collisions_across_the_grid(self):
        # Every enumerated candidate -- including every option-grid
        # point -- must map to its own cache slot.
        cands = grid_points(WL)
        keys = {_ir_key(c) for c in cands}
        assert len(keys) == len(cands)

    def test_recompute_separates_keys(self):
        cands = grid_points(WL, schedules=["helix"])
        by_rest = {}
        for c in cands:
            rest = (c.schedule, c.num_micro_batches, c.options)
            by_rest.setdefault(rest, set()).add(_ir_key(c))
        for rest, keys in by_rest.items():
            # One key per recompute strategy of the family.
            n_rc = len({c.recompute for c in cands
                        if (c.schedule, c.num_micro_batches, c.options) == rest})
            assert len(keys) == n_rc, rest

    def test_workload_and_cap_separate_keys(self):
        c = grid_points(WL)[0]
        assert _ir_key(c, wkey=("a",)) != _ir_key(c, wkey=("b",))
        assert _ir_key(c, cap=1.0) != _ir_key(c, cap=2.0)


class TestCacheMechanics:
    def test_get_put_roundtrip_and_counters(self):
        cache = ScheduleIRCache()
        sched = Schedule("t", 1, 1, [[]])
        assert cache.get(("k",)) is None
        cache.put(("k",), sched)
        assert cache.get(("k",)) is sched
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_bounds_both_stores(self):
        cache = ScheduleIRCache(max_schedules=2, max_references=1)
        for i in range(5):
            cache.put((i,), Schedule(f"s{i}", 1, 1, [[]]))
        assert len(cache) == 2
        assert cache.get((4,)) is not None  # newest survives
        assert cache.get((0,)) is None  # oldest evicted

    def test_lru_recency_order(self):
        cache = ScheduleIRCache(max_schedules=2)
        a, b, c = (Schedule(n, 1, 1, [[]]) for n in "abc")
        cache.put(("a",), a)
        cache.put(("b",), b)
        cache.get(("a",))  # refresh a: b is now the eviction victim
        cache.put(("c",), c)
        assert cache.get(("a",)) is a
        assert cache.get(("b",)) is None

    def test_clear(self):
        cache = ScheduleIRCache()
        cache.put(("k",), Schedule("t", 1, 1, [[]]))
        cache.clear()
        assert len(cache) == 0

    def test_rejects_degenerate_bounds(self):
        with pytest.raises(ValueError):
            ScheduleIRCache(max_schedules=0)
        with pytest.raises(ValueError):
            ScheduleIRCache(max_references=0)


class TestFullSimulation:
    """Every sweep simulates each candidate in full."""

    @pytest.fixture
    def no_resume(self, monkeypatch):
        # The launcher-pinned names stay importable, but no sweep may
        # record or resume a timeline through them.
        def refuse(*args, **kwargs):
            raise AssertionError("a sweep recorded or resumed a timeline")

        for module in ("repro.tuner.autotune", "repro.sim.incremental"):
            for name in ("simulate_recording", "resimulate"):
                monkeypatch.setattr(sys.modules[module], name, refuse)

    def test_autotune(self, no_resume):
        rows = _rows(schedules=["helix"], prune=False)
        assert all(r.iteration_time is not None for r in rows)

    def test_tune_grid(self, no_resume):
        rows = tune_grid(
            WorkloadGrid(model="1.3B", seq_lens=(8192,),
                         pipeline_sizes=(2, 4), budget_tokens=1 << 16),
            schedules=["helix"],
            cache=CostCache(),
        )
        assert any(r.feasible for r in rows)

    def test_cold_evaluate(self, no_resume):
        ctx = _EvalContext(WL, float(WL.cluster.node.gpu.hbm_bytes))
        records = [_cold_evaluate(ctx, c) for c in grid_points(WL, schedules=["helix"])]
        assert records and all(r["error"] is None for r in records)
        assert all(r["makespan"] > 0 for r in records)


class TestSweepEquivalence:
    def test_shared_cache_across_recomputes_no_false_hits(self):
        # One recompute strategy's evaluation must never leak into
        # another's result: every row of a helix sweep over both its
        # strategies must match evaluating that candidate alone.
        together = _rows(schedules=["helix"], prune=False)
        assert {r.candidate.recompute for r in together} == {
            RecomputeStrategy.NONE,
            RecomputeStrategy.WITHOUT_ATTENTION,
        }
        cap = float(WL.cluster.node.gpu.hbm_bytes)
        uncached = _EvalContext(WL, cap)
        for row in together:
            record = _cold_evaluate(uncached, row.candidate)
            assert _to_plan_result(WL, row.candidate, record, cap) == row, row.label

    def test_pruned_rows_match_evaluating_each_candidate_alone(self):
        # The default walk over every schedule shares one cache and one
        # context; each row it simulated must still be that candidate's
        # own evaluation.
        cap = float(WL.cluster.node.gpu.hbm_bytes)
        rows = _rows()
        simulated = [r for r in rows if not (r.reason or "").startswith("pruned")]
        assert len({r.candidate.schedule for r in simulated}) > 1
        assert len(simulated) < len(rows)
        uncached = _EvalContext(WL, cap)
        for row in simulated:
            record = _cold_evaluate(uncached, row.candidate)
            assert _to_plan_result(WL, row.candidate, record, cap) == row, row.label


class TestTelemetry:
    def test_counters_are_consistent(self):
        tel = SweepTelemetry()
        rows = _rows(telemetry=tel)
        assert tel.candidates == len(rows)
        assert tel.built > 0
        assert tel.simulated == tel.built
        assert tel.eval_s >= tel.build_s + tel.simulate_s - 1e-9
        snap = tel.as_dict()
        assert snap["built"] == tel.built
        assert snap["cache_s"] == tel.cache_s
        fresh = SweepTelemetry()
        assert fresh.built == 0 and fresh.eval_s == 0.0
        assert fresh.as_dict()["cache_s"] == 0.0


class TestGridSharing:
    def test_tune_grid_points_never_alias(self):
        # Distinct p over one cost cache: each point's rows must match
        # that point swept alone on a fresh cache (an aliased record
        # would leak a wrong-p result across points).
        grid = WorkloadGrid(
            seq_lens=(8192,), pipeline_sizes=(2, 4), budget_tokens=1 << 16
        )
        rows = tune_grid(grid, cache=CostCache())
        for point in grid.iter_points():
            alone = autotune(point.workload(), fill_budget=True, cache=CostCache())
            assert [r.plan for r in rows if r.point == point] == alone


class TestNothingRetained:
    """Reference counting alone frees everything a sweep built."""

    @pytest.mark.parametrize("sweep", ["autotune", "tune_grid", "cold_evaluate"])
    def test_built_objects_die_with_the_call(self, monkeypatch, sweep):
        schedules = record_builds(monkeypatch)
        cap = float(WL.cluster.node.gpu.hbm_bytes)
        with collector_off():
            if sweep == "autotune":
                _rows(schedules=["helix"], prune=False)
            elif sweep == "tune_grid":
                tune_grid(
                    WorkloadGrid(model="1.3B", seq_lens=(8192,),
                                 pipeline_sizes=(2, 4), budget_tokens=1 << 16),
                    schedules=["helix"],
                )
            else:
                ctx = _EvalContext(WL, cap)
                for cand in grid_points(WL, schedules=["helix"]):
                    _cold_evaluate(ctx, cand)
            left = alive(schedules)
        assert schedules
        assert left == []

    def test_ir_is_freed_before_the_collector_resumes(self, monkeypatch):
        # With a threshold of one, the first allocation after the pause
        # ends runs a collection; none runs during the pause.  At that
        # first collection after a build, nothing built may be alive.
        schedules = record_builds(monkeypatch)
        at_first_collection = []

        def hook(phase, info):
            if phase == "start" and schedules and not at_first_collection:
                at_first_collection.append(len(alive(schedules)))

        assert gc.isenabled()
        threshold = gc.get_threshold()
        gc.callbacks.append(hook)
        gc.set_threshold(1)
        try:
            _rows(schedules=["helix"])
        finally:
            gc.set_threshold(*threshold)
            gc.callbacks.remove(hook)
        assert schedules
        assert at_first_collection == [0]
