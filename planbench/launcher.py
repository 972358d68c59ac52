"""Run ``repro serve`` with spans recorded around each layer's entry points.

Usage (the benchmark's traced rounds start the service this way)::

    PYTHONPATH=src python planbench/launcher.py SPANS.json serve --cache S.sqlite --port 0

Each entry point is wrapped by replacing the attribute its caller looks
up -- the module global a function is called through, or the class
attribute a method is found on -- so the planner's code is unchanged.
A span records its name, start and end (``time.perf_counter``, the
driver's clock), its parent span on the same thread, the thread name
and a small note (a hit flag, a result size, the driver's request id).
Spans stay in memory and are written to SPANS.json when the service
exits on SIGTERM, together with the start-up timings.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable

perf_counter = time.perf_counter

Note = Callable[[tuple, Any], Any]


class Recorder:
    """In-memory span log shared by every thread of the service."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.setup: dict[str, float] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)

    def wrap(self, fn: Callable, name: str, note: Note | None = None) -> Callable:
        spans, local, ids = self.spans, self._local, self._ids

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((
                    sid, parent, name, t0, t1, threading.current_thread().name,
                    None if note is None else note(args, result),
                ))

        return traced

    def request_ids(self) -> dict[int, str]:
        """Span id -> request id.

        A request is the plan span and everything under it (named after
        its handler thread and that span), a sweep thread's whole life,
        or else the outermost span on a thread.
        """
        spans = {s[0]: s for s in self.spans}
        rids: dict[int, str] = {}

        def rid(sid: int) -> str:
            if sid not in rids:
                _, parent, name, _, _, thread, _ = spans[sid]
                if thread.startswith("sweep-"):
                    rids[sid] = thread
                elif name == "service.planner.plan" or parent not in spans:
                    rids[sid] = f"{thread}/{sid}"
                else:
                    rids[sid] = rid(parent)
            return rids[sid]

        for sid in spans:
            rid(sid)
        return rids

    def dump(self, path: str) -> None:
        rids = self.request_ids()
        names: dict[str, int] = {}
        threads: dict[str, int] = {}
        rows = [
            [sid, parent, names.setdefault(name, len(names)), t0, t1,
             threads.setdefault(thread, len(threads)), rids[sid], note]
            for sid, parent, name, t0, t1, thread, note in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"setup": self.setup, "names": list(names),
                 "threads": list(threads), "spans": rows},
                fh,
                separators=(",", ":"),
            )


def _found(args: tuple, result: Any) -> int:
    return int(result is not None)


def _size(args: tuple, result: Any) -> int | None:
    return None if result is None else len(result)


def install(rec: Recorder) -> None:
    """Wrap every traced entry point of the planner stack."""
    mod = importlib.import_module

    def function(module: str, attr: str, name: str, note: Note | None = None) -> None:
        owner = mod(module)
        setattr(owner, attr, rec.wrap(getattr(owner, attr), name, note))

    def methods(module: str, cls: str, names: dict[str, str], note: dict[str, Note] | None = None) -> None:
        owner = getattr(mod(module), cls)
        for attr, name in names.items():
            setattr(owner, attr, rec.wrap(getattr(owner, attr), name, (note or {}).get(attr)))

    # service.api / service.planner
    methods("repro.service.api", "PlannerAPIHandler", {"_dispatch": "service.api.dispatch"},
            {"_dispatch": lambda args, result: args[0].headers.get("X-Bench-Request")})
    methods("repro.service.planner", "PlannerService", {
        "plan": "service.planner.plan",
        "start_sweep": "service.planner.start_sweep",
        "_run_sweep": "service.planner.run_sweep",
        "sweeps": "service.planner.sweeps",
        "healthz": "service.planner.healthz",
        "stats": "service.planner.stats",
        "close": "service.planner.close",
    })
    # tuner: autotune is called through the planner and the grid module.
    function("repro.service.planner", "autotune", "tuner.autotune", _size)
    function("repro.tuner.grid", "autotune", "tuner.autotune", _size)
    function("repro.service.planner", "tune_grid", "tuner.grid.tune_grid", _size)
    auto = "repro.tuner.autotune"
    function(auto, "throughput_upper_bounds", "tuner.bounds")
    function(auto, "simulate", "sim.engine.simulate")
    function(auto, "resimulate", "sim.incremental.resimulate",
             lambda args, result: None if result is None else int(result[1].mode == "incremental"))
    function(auto, "simulate_recording", "sim.incremental.record")
    # tuner.cache: a miss is an evaluate span under get_or_eval.
    cost_cache = mod("repro.tuner.cache").CostCache
    get_or_eval = cost_cache.get_or_eval

    def traced_get_or_eval(self: Any, key: Any, evaluate: Callable[[], Any]) -> Any:
        return get_or_eval(self, key, rec.wrap(evaluate, "tuner.cache.evaluate"))

    cost_cache.get_or_eval = rec.wrap(
        functools.wraps(get_or_eval)(traced_get_or_eval), "tuner.cache.get_or_eval"
    )
    methods("repro.tuner.cache", "CostCache", {
        "peek": "tuner.cache.peek",
        "__contains__": "tuner.cache.contains",
        "__len__": "tuner.cache.len",
    })
    cost_cache.open = classmethod(
        rec.wrap(cost_cache.__dict__["open"].__func__, "setup.store_open")
    )
    methods("repro.tuner.store", "SqliteCostStore", {
        "get": "tuner.store.get",
        # One batched write counts as one put.
        "put": "tuner.store.put",
        "put_many": "tuner.store.put",
        "__contains__": "tuner.store.contains",
        "__len__": "tuner.store.len",
    }, {"get": _found})
    methods("repro.tuner.ircache", "ScheduleIRCache", {
        "get": "tuner.ircache.get",
        "put": "tuner.ircache.put",
        "get_reference": "tuner.ircache.get_reference",
        "put_reference": "tuner.ircache.put_reference",
    }, {"get": _found, "get_reference": _found})
    # schedules / sim
    methods("repro.schedules.registry", "ScheduleSpec", {"build": "schedules.registry.build"})
    function("repro.core.filo", "list_schedule", "schedules.planner.list_schedule")
    function("repro.schedules.interleaved", "list_schedule", "schedules.planner.list_schedule")
    function("repro.sim.engine", "compile_programs", "sim.engine.compile")
    function("repro.sim.incremental", "compile_programs", "sim.engine.compile")
    methods("repro.sim.engine", "PipelineSimulator", {"run": "sim.engine.run"})
    # start-up: `repro serve` looks create_server up on the package.
    function("repro.service", "create_server", "setup.bind")


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = perf_counter()
    cli = importlib.import_module("repro.cli")
    rec = Recorder()
    rec.setup["import_s"] = perf_counter() - t0
    install(rec)
    try:
        return cli.main(cli_args)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
