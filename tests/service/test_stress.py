"""Concurrency stress and shutdown: the ISSUE's lost-update regression net.

The storm drives one :class:`PlannerService` over a sqlite-backed cache
with >=8 threads mixing ``/v1/plan`` and ``/v1/sweep`` traffic exactly
the way the HTTP layer does (``record_request`` on entry, ``record_error``
on failure) and then checks two conservation laws:

- telemetry counters balance: every request is accounted cold, warm,
  coalesced or error -- a lost update under ``ServiceTelemetry._lock``
  (or an unlocked ``CostCache`` publish) breaks the equality;
- no cache write is lost: after the storm every plan answer is warm and
  every in-memory entry reached the sqlite store's write-through.

The shutdown class covers the graceful-drain contract ``repro serve``
relies on: close() joins sweep threads, rejects late sweeps, closes the
store's connections, and is idempotent.
"""

import threading

import pytest

from repro.service import PlannerService
from repro.tuner import CostCache

_PLAN_BODIES = [
    {
        "model": "7B",
        "gpu": "H20",
        "p": 2,
        "seq_len": seq,
        "schedules": ["1f1b"],
        "options": False,
    }
    for seq in ("4k", "8k")
]

_SWEEP_BODY = {
    "model": "7B",
    "seq_lens": ["4k", "8k"],
    "pipeline_sizes": [2],
    "schedules": ["1f1b"],
    "options": False,
}


@pytest.fixture
def service(tmp_path):
    svc = PlannerService(CostCache.open(tmp_path / "stress.sqlite"))
    yield svc
    svc.close()


class TestStressStorm:
    def test_counter_conservation_and_no_lost_writes(self, service):
        n_plan_threads, plans_each = 8, 3
        errors: list[BaseException] = []
        err_lock = threading.Lock()
        gate = threading.Barrier(n_plan_threads + 2)

        def plan_worker(idx):
            gate.wait()
            for i in range(plans_each):
                body = _PLAN_BODIES[(idx + i) % len(_PLAN_BODIES)]
                service.telemetry.record_request("/v1/plan")
                try:
                    service.plan(body)
                except BaseException as err:
                    service.telemetry.record_error()
                    with err_lock:
                        errors.append(err)

        def sweep_worker():
            gate.wait()
            service.telemetry.record_request("/v1/sweep")
            try:
                service.start_sweep(_SWEEP_BODY)
            except BaseException as err:
                service.telemetry.record_error()
                with err_lock:
                    errors.append(err)

        def bad_worker():
            gate.wait()
            service.telemetry.record_request("/v1/plan")
            try:
                service.plan({"model": "no-such-model"})
            except ValueError:
                service.telemetry.record_error()

        threads = [
            threading.Thread(target=plan_worker, args=(i,))
            for i in range(n_plan_threads)
        ]
        threads.append(threading.Thread(target=sweep_worker))
        threads.append(threading.Thread(target=bad_worker))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []

        # Conservation: requests == cold + warm + coalesced + errors.
        # (The sweep request is counted on /v1/sweep but produces no plan
        # outcome, so balance plan-endpoint traffic specifically.)
        tele = service.telemetry.as_dict()
        plan_requests = tele["by_endpoint"]["/v1/plan"]
        outcomes = (
            tele["plans_cold"]
            + tele["plans_warm"]
            + tele["plans_coalesced"]
            + tele["errors"]
        )
        assert plan_requests == n_plan_threads * plans_each + 1
        assert outcomes == plan_requests
        assert tele["errors"] == 1  # exactly the seeded bad request
        # Dedup really coalesced or warmed duplicates: only one cold
        # evaluation can exist per distinct body.
        assert tele["plans_cold"] <= len(_PLAN_BODIES)

        # No lost cache writes, part 1: everything answers warm now.
        for body in _PLAN_BODIES:
            assert service.plan(body)["outcome"] == "warm"
        # Part 2: every in-memory entry reached the sqlite store.
        assert service.cache.store is not None
        for key, _record in service.cache.entries():
            assert key in service.cache.store

    def test_identical_burst_coalesces_to_one_cold_eval(self, service):
        n = 8
        gate = threading.Barrier(n)
        outcomes: list[str] = []
        lock = threading.Lock()

        def worker():
            gate.wait()
            out = service.plan(_PLAN_BODIES[0])["outcome"]
            with lock:
                outcomes.append(out)

        threads = [threading.Thread(target=worker) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(outcomes) == n
        assert outcomes.count("cold") == 1
        assert set(outcomes) <= {"cold", "warm", "coalesced"}


class TestGracefulShutdown:
    def test_close_drains_sweeps_and_reports_save_count(self, tmp_path):
        service = PlannerService(CostCache.open(tmp_path / "drain.sqlite"))
        service.start_sweep(_SWEEP_BODY)
        saved = service.close()
        # The sweep thread was joined before the final save, so its
        # results are included and its record reached a terminal state.
        assert saved is not None and saved > 0
        (record,) = service.sweeps()
        assert record["state"] in ("done", "failed")
        assert record["state"] == "done"

    def test_sweep_after_close_is_rejected(self, tmp_path):
        service = PlannerService(CostCache.open(tmp_path / "c.sqlite"))
        service.close()
        with pytest.raises(ValueError, match="shutting down"):
            service.start_sweep(_SWEEP_BODY)

    def test_close_is_idempotent(self, tmp_path):
        service = PlannerService(CostCache.open(tmp_path / "idem.sqlite"))
        assert service.close() == service.close()

    def test_close_without_a_store_returns_none(self):
        service = PlannerService(CostCache())
        assert service.close() is None

    def test_close_flushes_unstored_entries_to_the_store(self, tmp_path):
        path = tmp_path / "flush.sqlite"
        service = PlannerService(CostCache.open(path))
        key = (("model", "7B"), 1.0, "1f1b", "none", 4, ())
        service.cache.adopt(key, {"error": "adopted, not written through"})
        assert service.close() == 1
        assert CostCache.open(path).peek(key) == {
            "error": "adopted, not written through"
        }

    def test_close_closes_store_connections(self, tmp_path):
        service = PlannerService(CostCache.open(tmp_path / "fds.sqlite"))
        service.plan(_PLAN_BODIES[0])
        store = service.cache.store
        assert store._all_conns
        service.close()
        assert store._all_conns == []
