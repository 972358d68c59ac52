"""PlannerService: parsing, dedup, warm/cold accounting, sweeps."""

import json
import threading

import pytest

from repro.service import PlannerService, parse_plan_request, plan_payload
from repro.tuner import CostCache, autotune
from repro.workloads import MAX_MICRO_BATCH_TOKENS, MAX_MICRO_BATCHES, Workload
from tests.tuner.test_ircache import alive, collector_off, record_builds

# One tiny deterministic workload shared by every evaluation test: a
# 2-stage pipeline at 8k tokens with a single schedule and no option
# axis keeps a cold sweep fast while still exercising the real tuner.
_BODY = {
    "model": "7B",
    "gpu": "H20",
    "p": 2,
    "seq_len": "8k",
    "schedules": ["1f1b"],
    "options": False,
}


def _workload():
    return Workload.paper("7B", "H20", 2, 8192)


class TestParsePlanRequest:
    def test_defaults(self):
        q = parse_plan_request({})
        assert (q.model, q.gpu, q.p, q.seq_len) == ("7B", "H20", 8, 65536)
        assert q.micro_batch == 1 and q.schedules is None
        assert q.options and q.prune and q.top is None

    def test_seq_len_accepts_k_suffix_and_int(self):
        assert parse_plan_request({"seq_len": "64k"}).seq_len == 65536
        assert parse_plan_request({"seq_len": 4096}).seq_len == 4096

    def test_schedules_accepts_list_and_comma_string(self):
        assert parse_plan_request({"schedules": ["1f1b", "helix"]}).schedules \
            == ("1f1b", "helix")
        assert parse_plan_request({"schedules": "1f1b, helix"}).schedules \
            == ("1f1b", "helix")

    def test_unknown_field_is_rejected(self):
        with pytest.raises(ValueError, match="unknown plan request field"):
            parse_plan_request({"sequence_length": 4096})

    def test_unknown_presets_are_rejected(self):
        with pytest.raises(ValueError, match="unknown model preset"):
            parse_plan_request({"model": "70T"})
        with pytest.raises(ValueError, match="unknown GPU preset"):
            parse_plan_request({"gpu": "TPU"})

    @pytest.mark.parametrize(
        "payload",
        [
            {"p": 0},
            {"p": True},
            {"seq_len": -1},
            {"top": 0},
            {"memory_cap_gib": -1},
            {"memory_cap_gib": float("nan")},
            {"memory_cap_gib": float("inf")},
            {"schedules": []},
            {"schedules": ["no-such-schedule"]},
            {"options": "yes"},
            {"prune": 1},
            {"model": ["7B"]},
            {"gpu": {"a": 1}},
            {"memory_cap_gib": 1e300},
        ],
    )
    def test_malformed_values_are_rejected(self, payload):
        with pytest.raises(ValueError):
            parse_plan_request(payload)

    def test_workload_takes_a_budget_up_to_the_cap(self):
        q = parse_plan_request(dict(_BODY, num_micro_batches=MAX_MICRO_BATCHES))
        assert q.workload().num_micro_batches == MAX_MICRO_BATCHES
        over = parse_plan_request(
            dict(_BODY, num_micro_batches=MAX_MICRO_BATCHES + 1)
        )
        with pytest.raises(ValueError, match="above the maximum of 256"):
            over.workload()

    @pytest.mark.parametrize("body", [
        {"p": 4, "seq_len": 10**400},
        {"p": 4, "seq_len": 10**160},
        {"p": 4, "seq_len": "8k", "micro_batch": 10**160},
    ])
    def test_micro_batch_above_the_token_cap_is_refused(self, body):
        # Past the cap the plan used to raise OverflowError (a 500) or
        # answer rows of inf and nan, which are not JSON.
        service = PlannerService()
        with pytest.raises(ValueError, match="above the maximum of 16777216 tokens"):
            service.plan(body)
        assert service.telemetry.as_dict()["plans"] == 0

    def test_a_plan_at_the_token_cap_is_strict_json(self):
        answer = PlannerService().plan(
            {"model": "1.3B", "p": 2, "seq_len": MAX_MICRO_BATCH_TOKENS}
        )
        assert answer["plan_count"] > 0
        json.dumps(answer, allow_nan=False)

    def test_top_does_not_split_the_dedup_key(self):
        a = parse_plan_request(dict(_BODY, top=1))
        b = parse_plan_request(dict(_BODY, top=5))
        wl = a.workload()
        assert a.dedup_key(wl) == b.dedup_key(wl)


class TestPlan:
    def test_matches_direct_autotune_byte_for_byte(self):
        """The service answer serialises a direct autotune run exactly."""
        service = PlannerService()
        response = service.plan(_BODY)
        direct = autotune(
            _workload(), schedules=["1f1b"], options=False,
            cache=CostCache(),
        )
        assert response["plans"] == [plan_payload(r) for r in direct]
        best = next(r for r in direct if r.feasible)
        assert response["best"] == plan_payload(best)

    def test_cold_then_warm(self):
        service = PlannerService()
        first = service.plan(_BODY)
        assert first["outcome"] == "cold"
        misses = service.cache.stats.misses
        second = service.plan(_BODY)
        assert second["outcome"] == "warm"
        # Warm requests are served from the cache: no new evaluations.
        assert service.cache.stats.misses == misses
        assert second["plans"] == first["plans"]
        t = service.telemetry.as_dict()
        assert (t["plans_cold"], t["plans_warm"]) == (1, 1)

    def test_top_truncates_response_not_search(self):
        service = PlannerService()
        full = service.plan(_BODY)
        topped = service.plan(dict(_BODY, top=1))
        assert len(topped["plans"]) == 1
        assert topped["plan_count"] == full["plan_count"] > 1
        assert topped["plans"][0] == full["plans"][0]

    def test_identical_concurrent_requests_coalesce_to_one_cold_eval(self):
        """N identical in-flight requests -> exactly one cold evaluation."""
        service = PlannerService()
        n = 6
        barrier = threading.Barrier(n)
        results = [None] * n

        def request(i):
            barrier.wait()
            results[i] = service.plan(_BODY)

        threads = [threading.Thread(target=request, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        outcomes = sorted(r["outcome"] for r in results)
        assert outcomes.count("cold") == 1
        assert outcomes.count("warm") + outcomes.count("coalesced") == n - 1
        # All callers see the same ranked plans.
        assert all(r["plans"] == results[0]["plans"] for r in results)
        t = service.telemetry.as_dict()
        assert t["plans"] == n and t["plans_cold"] == 1

    def test_leader_failure_propagates_to_followers(self):
        service = PlannerService()
        release = threading.Event()
        calls = []

        def exploding_evaluate(query, workload):
            calls.append(1)
            release.wait(5)
            raise ValueError("boom")

        service._evaluate = exploding_evaluate
        errors = []

        def request():
            try:
                service.plan(_BODY)
            except ValueError as err:
                errors.append(str(err))

        threads = [threading.Thread(target=request) for _ in range(3)]
        for t in threads:
            t.start()
        while not service._inflight:  # leader registered, followers waiting
            pass
        release.set()
        for t in threads:
            t.join()
        assert len(errors) == 3 and all("boom" in e for e in errors)
        assert len(calls) == 1
        # The failed flight is deregistered: a later request retries.
        assert not service._inflight


class TestNothingRetained:
    def test_a_cold_plan_keeps_nothing_it_built(self, monkeypatch):
        # Reference counting alone must free every schedule the plan's
        # sweep built: the service holds no IR between plans.
        schedules = record_builds(monkeypatch)
        service = PlannerService()
        body = {"model": "1.3B", "gpu": "H20", "p": 4, "seq_len": "8k",
                "schedules": ["helix"], "prune": False}
        with collector_off():
            answer = service.plan(body)
            left = alive(schedules)
        assert answer["outcome"] == "cold"
        assert schedules
        assert left == []


class TestSweeps:
    def test_background_sweep_prefills_the_cache(self):
        service = PlannerService()
        started = service.start_sweep(
            {
                "model": "7B",
                "gpu": "H20",
                "seq_lens": ["8k"],
                "pipeline_sizes": [2],
                "schedules": ["1f1b"],
                "options": False,
            }
        )
        assert started["state"] == "running" and started["points"] == 1
        deadline = threading.Event()
        for _ in range(200):
            record = service.sweeps()[0]
            if record["state"] != "running":
                break
            deadline.wait(0.05)
        assert record["state"] == "done"
        assert record["candidates"] > 0 and record["error"] is None
        assert service.telemetry.as_dict()["sweeps_completed"] == 1
        # The plan query the sweep anticipated is now answered warm.
        assert service.plan(_BODY)["outcome"] == "warm"

    def test_sweep_rejects_unknown_fields_and_bad_shapes(self):
        service = PlannerService()
        with pytest.raises(ValueError, match="unknown sweep request field"):
            service.start_sweep({"sequence_lengths": [1]})
        with pytest.raises(ValueError, match="seq_lens"):
            service.start_sweep({"seq_lens": []})
        with pytest.raises(ValueError, match="unknown model preset"):
            service.start_sweep({"model": "70T"})
        with pytest.raises(ValueError, match="unknown model preset"):
            service.start_sweep({"model": ["7B"]})
        with pytest.raises(ValueError, match="unknown GPU preset"):
            service.start_sweep({"gpu": {"a": 1}})
        for sizes in ([True], [2.5]):
            with pytest.raises(ValueError, match="pipeline_sizes"):
                service.start_sweep({"pipeline_sizes": sizes})
        for budget in (float("nan"), 1.5, [1]):
            with pytest.raises(ValueError, match="budget_tokens"):
                service.start_sweep({"budget_tokens": budget})
        with pytest.raises(ValueError, match="no-such-schedule"):
            service.start_sweep({"schedules": ["1f1b", "no-such-schedule"]})
        assert service.telemetry.as_dict()["sweeps_started"] == 0

    def test_failed_sweep_is_recorded_not_raised(self, monkeypatch):
        def failing_tune_grid(*args, **kwargs):
            raise KeyError("unknown schedule 'no-such-schedule'")

        monkeypatch.setattr(
            "repro.service.planner.tune_grid", failing_tune_grid
        )
        service = PlannerService()
        service.start_sweep({"seq_lens": ["8k"], "pipeline_sizes": [2]})
        for _ in range(200):
            record = service.sweeps()[0]
            if record["state"] != "running":
                break
            threading.Event().wait(0.05)
        assert record["state"] == "failed"
        assert "no-such-schedule" in record["error"]
        assert service.telemetry.as_dict()["sweeps_failed"] == 1


class TestStats:
    def test_stats_shape(self):
        service = PlannerService()
        service.plan(_BODY)
        stats = service.stats()
        assert stats["telemetry"]["plans"] == 1
        cache = stats["cache"]
        assert cache["misses"] > 0 and cache["entries"] == len(service.cache)
        assert cache["backend"] == "memory" and cache["path"] is None
        assert stats["sweeps"] == []

    def test_plan_answer_does_not_count_the_store(self, tmp_path, monkeypatch):
        # Counting a sqlite store is a full scan; the plan answer leaves
        # the entry count to /v1/healthz and /v1/stats.
        service = PlannerService(CostCache.open(str(tmp_path / "p.sqlite")))
        counts = []
        real_len = CostCache.__len__

        def counting_len(cache):
            counts.append(real_len(cache))
            return counts[-1]

        monkeypatch.setattr(CostCache, "__len__", counting_len)
        body = service.plan(_BODY)
        assert set(body["cache"]) == {"hits", "disk_hits", "misses", "pruned"}
        assert counts == []
        entries = service.healthz()["cache_entries"]
        assert counts == [entries] and entries == body["cache"]["misses"]

    def test_sqlite_backed_service_reports_store_path(self, tmp_path):
        path = str(tmp_path / "plans.sqlite")
        service = PlannerService(CostCache.open(path))
        assert service.stats()["cache"]["backend"] == "sqlite"
        assert service.stats()["cache"]["path"] == path
