"""Benchmark of the planner service through ``repro serve``.

Usage, from the repository root::

    python3 planbench/run.py --workload cold-plan --seed 1 --seconds 40 --trace 0

Builds what it needs on first use (bytecode in its own prefix, the
reference answers and the pre-filled store), runs whole rounds of the
workload -- each against a freshly started service -- while the next
round still fits in ``--seconds``, checks every answer, and prints one
JSON line last: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the service runs under ``launcher.py`` and the metrics are
the per-layer ones computed from its spans (the traced run's end-to-end
figures go to stderr, for the tracing overhead).  Every sample, with
its groups, is also written to ``.bench_build/planbench/results/``,
which ``report.py`` reads.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
from typing import Any

from harness import BUILD, ROOT, BenchError, compile_bytecode, median, quantile, require_checkout
from layers import layer_metrics
from workloads import ROUNDS, Run, prepare, run_rounds, warmup


def _per_round(run: Run, name: str) -> float:
    return median([r[name] for r in run.rounds if name in r])


def end_to_end(run: Run) -> dict[str, float]:
    latencies_ms = [(s["done"] - s["due"]) * 1e3 for s in run.plans if s["ok"]]
    return {
        "setup_s": _per_round(run, "setup_s"),
        "peak_rss_mb": _per_round(run, "peak_rss_mb"),
        "candidates_per_s": _per_round(run, "candidates_per_s"),
        "plans_per_s": _per_round(run, "plans_per_s"),
        "plan_ms_p50": quantile(latencies_ms, 0.5),
        "plan_ms_p90": quantile(latencies_ms, 0.9),
        "sweep_s": median([s["sweep_s"] for s in run.sweeps]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so every service still running is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        require_checkout()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (BenchError, OSError) as err:
        print(f"planbench: {err}", file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics this run prints, with their units.
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    compile_bytecode()
    run_dir = BUILD / "runs" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, prepare(), run_dir, traced=bool(args.trace))
        warmup(run)
    except BenchError as err:
        print(f"planbench: {err}", file=sys.stderr)
        return 1
    run_rounds(run, args.seconds)

    e2e = end_to_end(run)
    if args.trace:
        values = layer_metrics([r["spans"] for r in run.rounds if "spans" in r], run.plans)
        print(f"planbench: traced end-to-end {json.dumps(e2e)}", file=sys.stderr)
    else:
        values = e2e
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"planbench: metrics not computed: {missing}", file=sys.stderr)
        return 1
    for err in run.errors:
        print(f"planbench: failed: {err}", file=sys.stderr)

    detail: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "end_to_end": e2e,
        "metrics": values,
        "rounds": run.rounds,
        "sweeps": run.sweeps,
        "plans": [
            {"latency_ms": (s["done"] - s["due"]) * 1e3, "groups": s["groups"], "ok": s["ok"]}
            for s in run.plans
        ],
    }
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-{args.seed}-{args.trace}.json").write_text(json.dumps(detail))
    if not run.failed:  # a failed run keeps its service log
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
