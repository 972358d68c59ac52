"""Steadiness report: repeated runs of one workload, one seed each.

Usage, from the repository root::

    python3 planbench/report.py --workload warm-serve --seeds 1-10
    python3 planbench/report.py --workload cold-plan --seeds 1-10 --save a.json
    python3 planbench/report.py --workload cold-plan --seeds 11-20 --against a.json
    python3 planbench/report.py --workload sweep-and-serve --seeds 1-5 --overhead

For every end-to-end metric it prints the median of the per-run values,
their quartiles (``statistics.quantiles(values, n=4)``) and the spread
(interquartile distance over the median) against the metric's bound
from BENCHMARK.json.  For each latency percentile it prints how the
samples around it split between groups -- stalled or unstalled, first
touch or repeat, p = 4 / 8 / 16 -- so a percentile sitting on the edge
between two groups shows before it is relied on.  ``--against`` compares
the medians with a set saved by ``--save``; ``--overhead`` also runs
each seed traced and prints traced minus untraced for every end-to-end
metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import Counter
from typing import Any

from harness import BUILD, ROOT

#: A percentile's neighbourhood: samples within this many rank points.
WINDOW = 0.05
PERCENTILES = {"plan_ms_p50": 0.5, "plan_ms_p90": 0.9}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "planbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: run failed ({proc.returncode})\n{proc.stderr}")
    result = json.loads(lines[-1])
    detail = json.loads((BUILD / "results" / f"{workload}-{seed}-{trace}.json").read_text())
    print(
        f"seed {seed:>3} trace {trace}: attempted {result['attempted']} failed "
        f"{result['failed']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if trace == 0
        ),
        flush=True,
    )
    return detail


def group_shares(details: list[dict[str, Any]]) -> None:
    """Group composition overall and around each latency percentile."""
    overall: Counter[str] = Counter()
    near = {name: Counter() for name in PERCENTILES}
    near_n = Counter()
    total = 0
    for d in details:
        plans = sorted((p for p in d["plans"] if p["ok"]), key=lambda p: p["latency_ms"])
        total += len(plans)
        for p in plans:
            overall.update(p["groups"])
        for name, q in PERCENTILES.items():
            window = plans[int(max(0.0, q - WINDOW) * len(plans)):int(min(1.0, q + WINDOW) * len(plans))]
            near_n[name] += len(window)
            for p in window:
                near[name].update(p["groups"])
    print(f"\ngroups over {total} samples in {len(details)} runs "
          f"(share of all samples, and of those within {WINDOW:.0%} of each percentile):")
    width = max(map(len, overall))
    for group in sorted(overall):
        line = f"  {group:<{width}}  all {overall[group] / total:6.1%}"
        for name in PERCENTILES:
            line += f"   near {name} {near[name][group] / max(near_n[name], 1):6.1%}"
        print(line)


def spreads(
    details: list[dict[str, Any]], bounds: dict[str, dict[str, Any]]
) -> dict[str, list[float]]:
    values = {name: [d["end_to_end"][name] for d in details] for name in bounds}
    print(f"\n{'metric':<18} {'unit':>5} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  spread/bound")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds[name]["bound"]
        flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO NOISY")
        print(f"{name:<18} {bounds[name]['unit']:>5} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
              f"{spread:>7.1%} {bound:>6.0%}  {spread / bound:5.2f} {flag}")
    return values


def against(values: dict[str, list[float]], prior_path: str, bounds: dict[str, Any]) -> None:
    prior = json.loads(open(prior_path, encoding="utf-8").read())["values"]
    print(f"\nmedian shift against {prior_path} (positive = worse):")
    for name, vals in values.items():
        before, now = statistics.median(prior[name]), statistics.median(vals)
        worse = (now - before) / before
        if bounds[name]["better"] == "higher":
            worse = -worse
        verdict = "ok" if worse <= bounds[name]["bound"] else "WORSE THAN BOUND"
        print(f"  {name:<18} {before:>12.5g} -> {now:>12.5g}  {worse:+7.1%}  {verdict}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--save", help="write the per-run values to this JSON file")
    parser.add_argument("--against", help="compare medians with a file written by --save")
    parser.add_argument("--overhead", action="store_true", help="also run traced")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    details = [run_once(args.workload, s, seconds, 0) for s in _seeds(args.seeds)]
    values = spreads(details, bounds)
    group_shares(details)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "values": values}, fh)
    if args.against:
        against(values, args.against, bounds)
    if args.overhead:
        traced = [run_once(args.workload, s, seconds, 1) for s in _seeds(args.seeds)]
        print("\ntracing overhead, traced minus untraced (median over seeds):")
        for name in bounds:
            diffs = [t["end_to_end"][name] - u["end_to_end"][name] for t, u in zip(traced, details)]
            base = statistics.median(u["end_to_end"][name] for u in details)
            delta = statistics.median(diffs)
            print(f"  {name:<18} {delta:>+12.5g} {bounds[name]['unit']:<4} ({delta / base:+.1%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
