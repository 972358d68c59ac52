"""Runtime lock-order verification: recorder, proxies, static cross-check.

The last class is the acceptance gate the ISSUE names: instrument every
lock in a live :class:`PlannerService` stack (service, telemetry, cost
cache, sqlite store), drive real mixed traffic through it, and require
the *observed* acquisition orders to be consistent with the static
lock-order graph -- the same reality-check PR 7 ran for the static
peak-memory pass against the simulator.
"""

import threading

import pytest

from repro.devtools.concurrency import (
    LockOrderRecorder,
    RecordingLock,
    build_model,
    instrument,
    verify_lock_order,
)
from repro.devtools.concurrency.lockorder import static_lock_graph
from repro.service import PlannerService
from repro.tuner import CostCache

from tests.devtools.test_model import project
from tests.devtools.test_passes import _REPO_ROOT

_BODY = {
    "model": "7B",
    "gpu": "H20",
    "p": 2,
    "seq_len": "8k",
    "schedules": ["1f1b"],
    "options": False,
}


class TestRecorder:
    def test_nested_acquisition_records_edge(self):
        rec = LockOrderRecorder()
        a = RecordingLock(threading.Lock(), "A", rec)
        b = RecordingLock(threading.Lock(), "B", rec)
        with a:
            with b:
                pass
        assert rec.edges() == {("A", "B"): 1}
        assert rec.acquisitions() == {"A": 1, "B": 1}

    def test_release_order_tracked_per_thread(self):
        rec = LockOrderRecorder()
        a = RecordingLock(threading.Lock(), "A", rec)
        b = RecordingLock(threading.Lock(), "B", rec)
        with a:
            pass
        with b:
            with a:
                pass
        assert set(rec.edges()) == {("B", "A")}

    def test_threads_do_not_see_each_others_stacks(self):
        rec = LockOrderRecorder()
        a = RecordingLock(threading.Lock(), "A", rec)
        b = RecordingLock(threading.Lock(), "B", rec)
        gate = threading.Barrier(2)

        def hold(lock):
            gate.wait()
            with lock:
                gate.wait()
                gate.wait()

        t1 = threading.Thread(target=hold, args=(a,))
        t2 = threading.Thread(target=hold, args=(b,))
        t1.start(), t2.start()
        t1.join(), t2.join()
        # Each thread held exactly one lock; concurrent holds across
        # threads are not an ordering.
        assert rec.edges() == {}

    def test_reentrant_reacquire_is_not_a_self_edge(self):
        rec = LockOrderRecorder()
        r = RecordingLock(threading.RLock(), "R", rec)
        with r:
            with r:
                pass
        assert rec.edges() == {}


class TestInstrument:
    def test_wraps_lock_attributes_with_class_labels(self):
        class Thing:
            def __init__(self):
                self._lock = threading.Lock()
                self.data = {}

        rec = LockOrderRecorder()
        thing = Thing()
        labels = instrument(thing, rec)
        assert labels == ["Thing._lock"]
        assert isinstance(thing._lock, RecordingLock)
        with thing._lock:
            pass
        assert rec.acquisitions() == {"Thing._lock": 1}

    def test_idempotent(self):
        class Thing:
            def __init__(self):
                self._lock = threading.Lock()

        rec = LockOrderRecorder()
        thing = Thing()
        instrument(thing, rec)
        assert instrument(thing, rec) == []


class TestVerifyLockOrder:
    def _model(self):
        return project(
            """
            import threading

            class S:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def both(self):
                    with self._a:
                        with self._b:
                            pass
            """
        )

    def test_consistent_when_runtime_matches_static(self):
        rec = LockOrderRecorder()
        rec.on_acquire("S._a")
        rec.on_acquire("S._b")
        verdict = verify_lock_order(self._model(), rec)
        assert verdict.consistent
        assert verdict.extra_edges == []

    def test_inversion_is_flagged(self):
        rec = LockOrderRecorder()
        rec.on_acquire("S._b")
        rec.on_acquire("S._a")
        verdict = verify_lock_order(self._model(), rec)
        assert not verdict.consistent
        assert ("S._b", "S._a") in verdict.inversions
        assert "INCONSISTENT" in verdict.format()

    def test_extra_acyclic_edge_is_consistent(self):
        rec = LockOrderRecorder()
        rec.on_acquire("S._a")
        rec.on_acquire("Other._c")
        verdict = verify_lock_order(self._model(), rec)
        assert verdict.consistent
        assert ("S._a", "Other._c") in verdict.extra_edges


class TestServiceCrossCheck:
    """Acceptance: runtime lock orders from real service traffic are
    consistent with the static graph (folded into tier-1 by living in
    this suite)."""

    @pytest.fixture(scope="class")
    def observed(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("crosscheck") / "cache.sqlite"
        cache = CostCache.open(path)
        service = PlannerService(cache)
        rec = LockOrderRecorder()
        for obj in (service, service.telemetry, cache, cache.store):
            assert instrument(obj, rec)

        def plan():
            service.telemetry.record_request("/v1/plan")
            service.plan(_BODY)

        threads = [threading.Thread(target=plan) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.start_sweep(
            {
                "model": "7B",
                "seq_lens": ["8k"],
                "pipeline_sizes": [2],
                "schedules": ["1f1b"],
                "options": False,
            }
        )
        service.stats()
        service.close()
        return rec

    def test_core_locks_were_exercised(self, observed):
        acquired = observed.acquisitions()
        assert acquired.get("PlannerService._eval_lock")
        assert acquired.get("PlannerService._inflight_lock")
        assert acquired.get("CostCache._lock")
        assert acquired.get("SqliteCostStore._conns_lock")
        assert acquired.get("ServiceTelemetry._lock")

    def test_runtime_order_consistent_with_static_graph(self, observed):
        model = build_model(
            [
                f"{_REPO_ROOT}/src/repro/service",
                f"{_REPO_ROOT}/src/repro/tuner",
            ]
        )
        # Sanity: the static graph predicts the service's core edges.
        static = set(static_lock_graph(model))
        assert ("PlannerService._eval_lock", "CostCache._lock") in static
        verdict = verify_lock_order(model, observed)
        assert verdict.consistent, verdict.format()
        # The real traffic must have exercised at least one static edge.
        assert set(verdict.observed) & static
