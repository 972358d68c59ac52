"""Planner core of the service: dedup, serialized evaluation, background sweeps.

:class:`PlannerService` answers "best schedule for (model, gpu, p,
seq_len, token budget)" from a warm shared :class:`~repro.tuner.cache.
CostCache` -- the serving-side counterpart of the offline schedule
search.  It is transport-agnostic: the HTTP layer
(:mod:`repro.service.api`) translates requests to the three entry
points :meth:`~PlannerService.plan`, :meth:`~PlannerService.start_sweep`
and :meth:`~PlannerService.stats`, and tests drive them directly.  A
request body is parsed by :mod:`repro.query`, as ``repro tune``'s flags
are.

Three properties make it a service rather than a loop around
:func:`~repro.tuner.autotune`:

- **Request dedup.**  Identical in-flight plan requests coalesce onto
  one evaluation: the first arrival (the *leader*) runs the sweep, every
  concurrent identical request waits on the leader's event and shares
  its result.  The dedup key is the query's normalized workload fields,
  with the micro-batch budget resolved, plus the sweep-shaping
  parameters -- response shaping (``top``) is per-request and never
  splits the key.  N identical concurrent requests therefore
  trigger exactly one cold evaluation; arrivals after the leader
  finishes are served warm from the cost cache.
- **Serialized evaluation.**  One sweep runs at a time
  (``_eval_lock``): the sweep telemetry is a single-writer structure,
  and a plan sweep is CPU-bound anyway -- concurrency buys throughput
  through the shared cache, not through parallel sweeps.  Each sweep is
  one serial, pruned walk on the thread that holds the lock.  A sweep
  keeps nothing it built, so the service's long-lived heap is the cost
  cache and its bookkeeping.
- **Background sweeps.**  :meth:`start_sweep` pre-fills a workload
  neighbourhood (a :class:`~repro.workloads.WorkloadGrid`) on a daemon
  thread through :func:`~repro.tuner.grid.tune_grid` into the same
  cache, so the named plan queries it anticipates are answered warm.

Every response is canonical JSON-ready data; notably
:func:`plan_payload` is the single serialisation of a
:class:`~repro.tuner.autotune.PlanResult`, so a service answer can be
compared byte-for-byte against a direct :func:`autotune` run.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.query import PlanQuery, SweepQuery, parse_plan_request, parse_sweep_request
from repro.tuner.autotune import PlanResult, autotune
from repro.tuner.cache import CostCache
from repro.tuner.grid import tune_grid
from repro.tuner.telemetry import SweepTelemetry
from repro.service.telemetry import ServiceTelemetry
from repro.workloads import Workload

__all__ = ["PlannerService", "plan_payload"]


def plan_payload(plan: PlanResult) -> dict[str, Any]:
    """The canonical JSON-ready form of one :class:`PlanResult` row.

    This is the byte-level contract of the service: serialising a
    direct :func:`~repro.tuner.autotune` result through this function
    yields exactly the rows ``POST /v1/plan`` returns for the same
    workload (deterministic evaluation + shared cache records).
    """
    cand = plan.candidate
    return {
        "schedule": cand.schedule,
        "recompute": cand.recompute.value,
        "num_micro_batches": cand.num_micro_batches,
        "options": {name: value for name, value in cand.options},
        "label": plan.label,
        "feasible": plan.feasible,
        "reason": plan.reason,
        "iteration_time": plan.iteration_time,
        "tokens_per_s": plan.tokens_per_s,
        "peak_memory_bytes": plan.peak_memory_bytes,
        "bubble_fraction": plan.bubble_fraction,
    }


@dataclass
class _Inflight:
    """One in-progress plan evaluation awaited by coalesced requests."""

    done: threading.Event = field(default_factory=threading.Event)
    plans: list[PlanResult] | None = None
    cold: bool = False
    error: BaseException | None = None
    waiters: int = 0


class PlannerService:
    """Long-running planner over one shared cost cache.

    Parameters
    ----------
    cache:
        The shared :class:`CostCache` (typically over a sqlite store via
        :meth:`CostCache.open`, so evaluations persist and concurrent
        processes share them).  Every cold evaluation is written
        through to the store as it happens, so neither background
        sweeps nor :meth:`close` have anything to flush.  Defaults to a
        fresh in-memory cache.
    """

    def __init__(self, cache: CostCache | None = None) -> None:
        self.cache = cache if cache is not None else CostCache()
        self.telemetry = ServiceTelemetry()
        self.sweep_telemetry = SweepTelemetry()
        self.started_at = time.time()
        self._eval_lock = threading.Lock()
        self._inflight_lock = threading.Lock()
        self._inflight: dict[tuple, _Inflight] = {}  # guarded-by: _inflight_lock
        self._sweeps: dict[str, dict[str, Any]] = {}  # guarded-by: _inflight_lock
        self._sweep_seq = 0  # guarded-by: _inflight_lock
        self._threads: list[threading.Thread] = []  # guarded-by: _inflight_lock
        self._closed = False  # guarded-by: _inflight_lock

    # -- planning ---------------------------------------------------------

    def _evaluate(self, query: PlanQuery, workload: Workload) -> tuple[list[PlanResult], bool]:
        """Run the sweep for ``query``; returns (plans, ran_cold_evals)."""
        # _eval_lock exists to serialize evaluation; see the class docstring.
        with self._eval_lock:  # lint-code: allow(blocking-under-lock) -- deliberate serialization
            misses_before = self.cache.stats.misses
            plans = autotune(
                workload,
                query.memory_cap_bytes(workload),
                schedules=list(query.schedules) if query.schedules else None,
                options=query.options,
                cache=self.cache,
                prune=query.prune,
                telemetry=self.sweep_telemetry,
            )
            cold = self.cache.stats.misses > misses_before
        return plans, cold

    def plan(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Answer one plan request (the ``POST /v1/plan`` body)."""
        t0 = time.perf_counter()
        query = parse_plan_request(payload)
        workload = query.workload()
        key = query.dedup_key(workload)

        with self._inflight_lock:
            flight = self._inflight.get(key)
            leader = flight is None
            if leader:
                flight = self._inflight[key] = _Inflight()
            else:
                flight.waiters += 1

        if leader:
            try:
                flight.plans, flight.cold = self._evaluate(query, workload)
            except BaseException as err:
                flight.error = err
                raise
            finally:
                with self._inflight_lock:
                    del self._inflight[key]
                flight.done.set()
            outcome = "cold" if flight.cold else "warm"
        else:
            flight.done.wait()
            if flight.error is not None:
                # The leader's failure is this request's failure too --
                # same query, same deterministic evaluation.
                raise ValueError(str(flight.error))
            outcome = "coalesced"

        plans = flight.plans
        assert plans is not None
        elapsed = time.perf_counter() - t0
        self.telemetry.record_plan(outcome, elapsed)

        feasible = [r for r in plans if r.feasible]
        shown = plans if query.top is None else plans[: query.top]
        stats = self.cache.stats
        return {
            "workload": {
                "model": query.model,
                "gpu": query.gpu,
                "p": workload.p,
                "seq_len": workload.seq_len,
                "micro_batch": workload.micro_batch,
                "num_micro_batches": workload.num_micro_batches,
                "memory_cap_bytes": query.memory_cap_bytes(workload),
            },
            "best": plan_payload(feasible[0]) if feasible else None,
            "plans": [plan_payload(r) for r in shown],
            "plan_count": len(plans),
            "feasible_count": len(feasible),
            "outcome": outcome,
            "coalesced": outcome == "coalesced",
            "elapsed_s": round(elapsed, 6),
            "cache": {
                "hits": stats.hits,
                "disk_hits": stats.disk_hits,
                "misses": stats.misses,
                "pruned": stats.pruned,
            },
        }

    # -- background sweeps ------------------------------------------------

    def start_sweep(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Launch a background neighbourhood pre-fill (``POST /v1/sweep``).

        The body names a workload neighbourhood -- ``seq_lens`` x
        ``pipeline_sizes`` under an optional ``budget_tokens`` -- which
        a daemon thread sweeps through :func:`tune_grid` into the shared
        cache.  Returns immediately with the sweep's id and shape;
        progress is visible under ``/v1/sweeps`` (and in ``/v1/stats``).
        """
        query = parse_sweep_request(payload)
        with self._inflight_lock:
            if self._closed:
                raise ValueError("service is shutting down")
            self._sweep_seq += 1
            sweep_id = f"sweep-{self._sweep_seq}"
        record: dict[str, Any] = {
            "id": sweep_id,
            "state": "running",
            "grid": query.grid.label,
            "points": len(query.grid),
            "candidates": None,
            "error": None,
            "started_s": round(time.time() - self.started_at, 3),
            "elapsed_s": None,
        }
        thread = threading.Thread(
            target=self._run_sweep,
            args=(record, query),
            name=sweep_id,
            daemon=True,
        )
        with self._inflight_lock:
            self._sweeps[sweep_id] = record
            # Drop finished sweep threads so the list stays bounded; the
            # records themselves are kept for /v1/sweeps history.
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
        self.telemetry.record_sweep("started")
        thread.start()
        return {"sweep": sweep_id, "state": "running", "points": len(query.grid)}

    def _run_sweep(self, record: dict[str, Any], query: SweepQuery) -> None:
        t0 = time.perf_counter()
        try:
            with self._eval_lock:  # lint-code: allow(blocking-under-lock) -- deliberate serialization
                plans = tune_grid(
                    query.grid,
                    query.memory_cap_bytes(),
                    schedules=list(query.schedules) if query.schedules else None,
                    options=query.options,
                    cache=self.cache,
                    prune=query.prune,
                    telemetry=self.sweep_telemetry,
                )
            record["candidates"] = len(plans)
            record["state"] = "done"
            self.telemetry.record_sweep("completed")
        except Exception as err:  # surfaced via /v1/sweeps, not a crash
            record["error"] = str(err)
            record["state"] = "failed"
            self.telemetry.record_sweep("failed")
        finally:
            record["elapsed_s"] = round(time.perf_counter() - t0, 3)

    def sweeps(self) -> list[dict[str, Any]]:
        """Every sweep launched by this process, oldest first."""
        with self._inflight_lock:
            return [dict(r) for r in self._sweeps.values()]

    # -- lifecycle --------------------------------------------------------

    def close(self, timeout: float | None = 30.0) -> int | None:
        """Drain background work and release resources, deterministically.

        Rejects new sweeps, joins every live sweep thread (bounded by
        ``timeout`` seconds each -- sweeps are daemon threads, so a
        stuck one is abandoned rather than hanging shutdown forever)
        and closes the store's sqlite connections.  Idempotent; the
        HTTP layer calls it from signal handling so a SIGTERM'd service
        never dies mid-write.  Returns the store's entry count, read
        after the joins (None for an in-memory cache).
        """
        with self._inflight_lock:
            self._closed = True
            threads = list(self._threads)
            self._threads = []
        for thread in threads:
            thread.join(timeout)
        saved = None if self.cache.store is None else len(self.cache.store)
        self.cache.close()
        return saved

    # -- introspection ----------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "cache_entries": len(self.cache),
        }

    def stats(self) -> dict[str, Any]:
        stats = self.cache.stats
        store = self.cache.store
        return {
            "uptime_s": round(time.time() - self.started_at, 3),
            "telemetry": self.telemetry.as_dict(),
            "cache": {
                "hits": stats.hits,
                "disk_hits": stats.disk_hits,
                "misses": stats.misses,
                "pruned": stats.pruned,
                "hit_rate": stats.hit_rate,
                "entries": len(self.cache),
                "backend": "sqlite" if store is not None else "memory",
                "path": store.path if store is not None else None,
            },
            "sweep_telemetry": self.sweep_telemetry.as_dict(),
            "sweeps": self.sweeps(),
        }
