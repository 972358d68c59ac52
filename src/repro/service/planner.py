"""Planner core of the service: request parsing, dedup, background sweeps.

:class:`PlannerService` answers "best schedule for (model, gpu, p,
seq_len, token budget)" from a warm shared :class:`~repro.tuner.cache.
CostCache` -- the serving-side counterpart of the offline schedule
search.  It is transport-agnostic: the HTTP layer
(:mod:`repro.service.api`) translates requests to the three entry
points :meth:`~PlannerService.plan`, :meth:`~PlannerService.start_sweep`
and :meth:`~PlannerService.stats`, and tests drive them directly.

Three properties make it a service rather than a loop around
:func:`~repro.tuner.autotune`:

- **Request dedup.**  Identical in-flight plan requests coalesce onto
  one evaluation: the first arrival (the *leader*) runs the sweep, every
  concurrent identical request waits on the leader's event and shares
  its result.  The dedup key is the workload cache key
  (:func:`repro.schedules.registry.workload_cache_key`) plus the
  sweep-shaping parameters -- response shaping (``top``) is per-request
  and never splits the key.  N identical concurrent requests therefore
  trigger exactly one cold evaluation; arrivals after the leader
  finishes are served warm from the cost cache.
- **Serialized evaluation.**  One sweep runs at a time
  (``_eval_lock``): the sweep telemetry is a single-writer structure,
  and a plan sweep is CPU-bound anyway -- concurrency buys throughput
  through the shared cache, not through parallel sweeps.
  ``workers=N`` still parallelises *within* a sweep.  A sweep keeps
  nothing it built, so the service's long-lived heap is the cost cache
  and its bookkeeping.
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

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.model.config import MODEL_PRESETS
from repro.schedules.registry import available_schedules, workload_cache_key
from repro.tuner.autotune import PlanResult, autotune
from repro.tuner.cache import CostCache
from repro.tuner.grid import tune_grid
from repro.tuner.telemetry import SweepTelemetry
from repro.service.telemetry import ServiceTelemetry
from repro.workloads import (
    GPU_CLUSTERS,
    Workload,
    WorkloadGrid,
    parse_seq_len,
    parse_token_budget,
)

__all__ = ["PlanQuery", "PlannerService", "parse_plan_request", "plan_payload"]

_GIB = float(1 << 30)

#: Fields a ``POST /v1/plan`` body may carry.
_PLAN_FIELDS = frozenset(
    {
        "model",
        "gpu",
        "p",
        "seq_len",
        "micro_batch",
        "num_micro_batches",
        "schedules",
        "memory_cap_gib",
        "options",
        "prune",
        "top",
    }
)

#: Fields a ``POST /v1/sweep`` body may carry.
_SWEEP_FIELDS = frozenset(
    {
        "model",
        "gpu",
        "seq_lens",
        "pipeline_sizes",
        "micro_batch",
        "budget_tokens",
        "schedules",
        "options",
    }
)


def _is_positive_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


def _parse_int(payload: Mapping[str, Any], name: str, default: int) -> int:
    value = payload.get(name, default)
    if not _is_positive_int(value):
        raise ValueError(f"{name!r} must be a positive integer, got {value!r}")
    return value


def _parse_seq(value: Any, name: str = "seq_len") -> int:
    """A sequence length given as an int or a k-suffixed string."""
    if isinstance(value, str):
        return parse_seq_len(value)
    if _is_positive_int(value):
        return value
    raise ValueError(
        f"{name!r} must be a positive integer or a k-suffixed string "
        f"(e.g. '64k'), got {value!r}"
    )


def _parse_schedules(payload: Mapping[str, Any]) -> tuple[str, ...] | None:
    value = payload.get("schedules")
    if value is None:
        return None
    if isinstance(value, str):
        value = [s.strip() for s in value.split(",") if s.strip()]
    if not isinstance(value, (list, tuple)) or not value or not all(
        isinstance(s, str) for s in value
    ):
        raise ValueError(
            f"'schedules' must be a non-empty list of names, got {value!r}"
        )
    registered = available_schedules()
    unknown = sorted(set(value) - set(registered))
    if unknown:
        raise ValueError(
            f"unknown schedule(s) {unknown}; registered: {registered}"
        )
    return tuple(value)


def _check_fields(
    payload: Mapping[str, Any], allowed: frozenset[str], what: str
) -> None:
    if not isinstance(payload, Mapping):
        raise ValueError(f"{what} request body must be a JSON object")
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ValueError(
            f"unknown {what} request field(s) {unknown}; "
            f"allowed: {sorted(allowed)}"
        )


@dataclass(frozen=True)
class PlanQuery:
    """One normalized plan request.

    ``top`` shapes the response only (how many ranked rows to return);
    it is excluded from :meth:`dedup_key`, so requests differing only in
    ``top`` coalesce onto the same evaluation.
    """

    model: str
    gpu: str
    p: int
    seq_len: int
    micro_batch: int = 1
    num_micro_batches: int | None = None
    schedules: tuple[str, ...] | None = None
    memory_cap_gib: float | None = None
    options: bool = True
    prune: bool = True
    top: int | None = None

    def workload(self) -> Workload:
        return Workload.paper(
            self.model,
            self.gpu,
            self.p,
            self.seq_len,
            micro_batch=self.micro_batch,
            num_micro_batches=self.num_micro_batches,
        )

    def memory_cap_bytes(self, workload: Workload) -> float:
        if self.memory_cap_gib is not None:
            return float(self.memory_cap_gib) * _GIB
        return float(workload.cluster.node.gpu.hbm_bytes)

    def dedup_key(self, workload: Workload) -> tuple:
        return (
            workload_cache_key(workload),
            self.memory_cap_bytes(workload),
            self.schedules,
            self.options,
            self.prune,
        )


def parse_plan_request(payload: Mapping[str, Any]) -> PlanQuery:
    """Validate a ``POST /v1/plan`` body into a :class:`PlanQuery`.

    Raises :class:`ValueError` with a pointed message on unknown fields,
    unknown presets or malformed values -- the HTTP layer maps those to
    400 responses verbatim.
    """
    _check_fields(payload, _PLAN_FIELDS, "plan")
    model = payload.get("model", "7B")
    if not isinstance(model, str) or model not in MODEL_PRESETS:
        raise ValueError(
            f"unknown model preset {model!r}; available: {sorted(MODEL_PRESETS)}"
        )
    gpu = payload.get("gpu", "H20")
    if not isinstance(gpu, str) or gpu not in GPU_CLUSTERS:
        raise ValueError(
            f"unknown GPU preset {gpu!r}; available: {sorted(GPU_CLUSTERS)}"
        )
    num_micro_batches = payload.get("num_micro_batches")
    if num_micro_batches is not None:
        num_micro_batches = _parse_int(payload, "num_micro_batches", 0)
    cap = payload.get("memory_cap_gib")
    # The cap in bytes (cap * 2**30) must be a finite float too; the
    # comparison also holds for an int too large to convert to float.
    if cap is not None and (
        isinstance(cap, bool)
        or not isinstance(cap, (int, float))
        or not 0 <= cap <= sys.float_info.max / _GIB
    ):
        raise ValueError(
            "'memory_cap_gib' must be a non-negative number whose value in "
            f"bytes is finite, got {cap!r}"
        )
    top = payload.get("top")
    if top is not None:
        top = _parse_int(payload, "top", 0)
    for flag in ("options", "prune"):
        if not isinstance(payload.get(flag, True), bool):
            raise ValueError(
                f"{flag!r} must be a boolean, got {payload[flag]!r}"
            )
    return PlanQuery(
        model=model,
        gpu=gpu,
        p=_parse_int(payload, "p", 8),
        seq_len=_parse_seq(payload.get("seq_len", 65536)),
        micro_batch=_parse_int(payload, "micro_batch", 1),
        num_micro_batches=num_micro_batches,
        schedules=_parse_schedules(payload),
        memory_cap_gib=None if cap is None else float(cap),
        options=payload.get("options", True),
        prune=payload.get("prune", True),
        top=top,
    )


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
    workers:
        Process-pool size for cold candidate evaluation *within* one
        sweep (``autotune(..., workers=N)``); None evaluates serially.
    """

    def __init__(
        self,
        cache: CostCache | None = None,
        *,
        workers: int | None = None,
    ) -> None:
        self.cache = cache if cache is not None else CostCache()
        self.workers = workers
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
                workers=self.workers,
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
        _check_fields(payload, _SWEEP_FIELDS, "sweep")
        seq_lens = payload.get("seq_lens", [65536])
        if not isinstance(seq_lens, (list, tuple)) or not seq_lens:
            raise ValueError(
                f"'seq_lens' must be a non-empty list, got {seq_lens!r}"
            )
        pipeline_sizes = payload.get("pipeline_sizes", [8])
        if (
            not isinstance(pipeline_sizes, (list, tuple))
            or not pipeline_sizes
            or not all(map(_is_positive_int, pipeline_sizes))
        ):
            raise ValueError(
                "'pipeline_sizes' must be a non-empty list of positive "
                f"integers, got {pipeline_sizes!r}"
            )
        budget = payload.get("budget_tokens")
        if isinstance(budget, str):
            budget = parse_token_budget(budget)
        elif budget is not None and not _is_positive_int(budget):
            raise ValueError(
                "'budget_tokens' must be a positive integer or a k/M/G-suffixed "
                f"string (e.g. '4M'), got {budget!r}"
            )
        grid = WorkloadGrid(
            model=payload.get("model", "7B"),
            gpu=payload.get("gpu", "H20"),
            seq_lens=tuple(_parse_seq(s, "seq_lens") for s in seq_lens),
            pipeline_sizes=tuple(pipeline_sizes),
            micro_batch=_parse_int(payload, "micro_batch", 1),
            budget_tokens=budget,
        )
        schedules = _parse_schedules(payload)
        options = payload.get("options", True)
        if not isinstance(options, bool):
            raise ValueError(f"'options' must be a boolean, got {options!r}")

        with self._inflight_lock:
            if self._closed:
                raise ValueError("service is shutting down")
            self._sweep_seq += 1
            sweep_id = f"sweep-{self._sweep_seq}"
        record: dict[str, Any] = {
            "id": sweep_id,
            "state": "running",
            "grid": grid.label,
            "points": len(grid),
            "candidates": None,
            "error": None,
            "started_s": round(time.time() - self.started_at, 3),
            "elapsed_s": None,
        }
        thread = threading.Thread(
            target=self._run_sweep,
            args=(record, grid, schedules, options),
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
        return {"sweep": sweep_id, "state": "running", "points": len(grid)}

    def _run_sweep(
        self,
        record: dict[str, Any],
        grid: WorkloadGrid,
        schedules: tuple[str, ...] | None,
        options: bool,
    ) -> None:
        t0 = time.perf_counter()
        try:
            with self._eval_lock:  # lint-code: allow(blocking-under-lock) -- deliberate serialization
                plans = tune_grid(
                    grid,
                    schedules=list(schedules) if schedules else None,
                    options=options,
                    cache=self.cache,
                    workers=self.workers,
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
