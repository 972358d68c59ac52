"""Per-layer metrics from the spans of a traced run.

A layer is a module of the planner stack.  For each traced entry point
the spans give a call count, busy time (total span time) and self time
(span time minus the time its direct child spans cover); notes on the
spans give hit and resume ratios.  Client round trips, matched to
server spans by the driver's request id, give the transport overhead.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any

from harness import median, quantile

class SpanTotals:
    """Counts, busy and self seconds per span name over several rounds."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.notes: dict[str, list[Any]] = defaultdict(list)
        self.plan_self_ms: list[float] = []
        self.plan_s_by_request: dict[str, float] = {}
        self.event_loop_s = 0.0
        self.setup: dict[str, list[float]] = defaultdict(list)

    def add_round(self, path: str) -> None:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        names = data["names"]
        spans = {
            row[0]: (row[1], names[row[2]], row[3], row[4], row[7])
            for row in data["spans"]
        }
        child_s: dict[int, float] = defaultdict(float)
        plan_under: dict[int, float] = {}
        for parent, name, t0, t1, _ in spans.values():
            child_s[parent] += t1 - t0
            if name == "service.planner.plan":
                plan_under[parent] = t1 - t0
        for sid, (parent, name, t0, t1, note) in spans.items():
            dur = t1 - t0
            self.calls[name] += 1
            self.busy[name] += dur
            self.self_s[name] += dur - child_s[sid]
            if note is not None:
                self.notes[name].append(note)
            if name == "service.planner.plan":
                self.plan_self_ms.append((dur - child_s[sid]) * 1e3)
            elif name == "service.api.dispatch" and sid in plan_under:
                self.plan_s_by_request[note] = plan_under[sid]
        # The event loop is simulate's time minus the compile spans under it.
        self.event_loop_s += sum(
            t1 - t0 for _, name, t0, t1, _ in spans.values() if name == "sim.engine.simulate"
        )
        for parent, name, t0, t1, _ in spans.values():
            if name != "sim.engine.compile":
                continue
            up = parent
            while up in spans and spans[up][1] not in (
                "sim.engine.simulate", "sim.incremental.resimulate", "sim.incremental.record"
            ):
                up = spans[up][0]
            if up in spans and spans[up][1] == "sim.engine.simulate":
                self.event_loop_s -= t1 - t0
        self.setup["setup.import_s"].append(data["setup"]["import_s"])
        for name, metric in (("setup.store_open", "setup.store_open_s"), ("setup.bind", "setup.bind_s")):
            self.setup[metric].extend(
                t1 - t0 for _, n, t0, t1, _ in spans.values() if n == name
            )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(span_files: list[str], plans: list[dict[str, Any]]) -> dict[str, float]:
    """Every per-layer metric of one traced run."""
    t = SpanTotals()
    for path in span_files:
        t.add_round(path)
    overhead_ms = [
        (s["done"] - s["sent"] - t.plan_s_by_request[str(s["id"])]) * 1e3
        for s in plans
        if str(s["id"]) in t.plan_s_by_request
    ]
    late_ms = [(s["sent"] - s["due"]) * 1e3 for s in plans]
    gets = t.calls["tuner.cache.get_or_eval"]
    out = {
        "service.api.requests": t.calls["service.api.dispatch"],
        "service.api.overhead_ms_p50": median(overhead_ms),
        "service.planner.plan.calls": t.calls["service.planner.plan"],
        "service.planner.plan.self_ms_p50": median(t.plan_self_ms),
        "service.planner.plan.self_ms_p99": quantile(t.plan_self_ms, 0.99),
        "service.planner.start_sweep.calls": t.calls["service.planner.start_sweep"],
        "tuner.grid.tune_grid.calls": t.calls["tuner.grid.tune_grid"],
        "tuner.grid.tune_grid.busy_s": t.busy["tuner.grid.tune_grid"],
        "tuner.autotune.calls": t.calls["tuner.autotune"],
        "tuner.autotune.busy_s": t.busy["tuner.autotune"],
        "tuner.autotune.self_s": t.self_s["tuner.autotune"],
        "tuner.autotune.candidates": sum(t.notes["tuner.autotune"]),
        "tuner.autotune.simulated_ratio": _ratio(
            t.calls["sim.engine.simulate"]
            + t.calls["sim.incremental.resimulate"]
            + t.calls["sim.incremental.record"],
            sum(t.notes["tuner.autotune"]),
        ),
        "tuner.bounds.calls": t.calls["tuner.bounds"],
        "tuner.bounds.busy_s": t.busy["tuner.bounds"],
        "tuner.cache.get_or_eval.calls": gets,
        "tuner.cache.get_or_eval.self_s": t.self_s["tuner.cache.get_or_eval"],
        "tuner.cache.hit_ratio": _ratio(gets - t.calls["tuner.cache.evaluate"], gets),
        "tuner.cache.contains.calls": t.calls["tuner.cache.contains"],
    }
    for op in ("get", "contains", "put", "len"):
        out[f"tuner.store.{op}.calls"] = t.calls[f"tuner.store.{op}"]
        out[f"tuner.store.{op}.busy_s"] = t.busy[f"tuner.store.{op}"]
    out["tuner.store.get.hit_ratio"] = _ratio(
        sum(t.notes["tuner.store.get"]), t.calls["tuner.store.get"]
    )
    out["tuner.ircache.hit_ratio"] = _ratio(
        sum(t.notes["tuner.ircache.get"]), t.calls["tuner.ircache.get"]
    )
    out.update({
        "schedules.registry.build.calls": t.calls["schedules.registry.build"],
        "schedules.registry.build.self_s": t.self_s["schedules.registry.build"],
        "schedules.planner.list_schedule.calls": t.calls["schedules.planner.list_schedule"],
        "schedules.planner.list_schedule.busy_s": t.busy["schedules.planner.list_schedule"],
        "sim.engine.compile.calls": t.calls["sim.engine.compile"],
        "sim.engine.compile.busy_s": t.busy["sim.engine.compile"],
        "sim.engine.simulate.calls": t.calls["sim.engine.simulate"],
        "sim.engine.simulate.self_s": t.event_loop_s,
        "sim.incremental.resimulate.calls": t.calls["sim.incremental.resimulate"],
        "sim.incremental.resimulate.busy_s": t.busy["sim.incremental.resimulate"],
        "sim.incremental.record.calls": t.calls["sim.incremental.record"],
        "sim.incremental.resume_ratio": _ratio(
            sum(t.notes["sim.incremental.resimulate"]), t.calls["sim.incremental.resimulate"]
        ),
    })
    for name in ("setup.import_s", "setup.store_open_s", "setup.bind_s"):
        out[name] = median(t.setup[name])
    out["driver.late_ms_p99"] = quantile(late_ms, 0.99)
    return out
