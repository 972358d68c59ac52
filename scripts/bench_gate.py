#!/usr/bin/env python
"""Paired planbench gate: is this checkout worse than a base checkout?

Usage, from the root of the checkout under test::

    python scripts/bench_gate.py BASE_DIR

``BASE_DIR`` is a checkout of the base revision that holds this
checkout's ``planbench/`` and ``BENCHMARK.json`` (CI copies them into a
worktree of the merge base), so both sides run the same benchmark code
and settings and differ only in the planner.  For every workload in
``BENCHMARK.json`` the gate runs :data:`PAIRS` pairs of ``planbench/run.py
--trace 0`` runs of :data:`RUN_SECONDS` each.  The two runs of a pair share
a seed, run back to back, and swap which side goes first every pair, so
the host's speed, which drifts in spells on shared machines, weighs on
both sides alike.

The gate fails when

- a run of this checkout is not ``correct: true`` with ``failed: 0``, or
- for some (workload, end-to-end metric), this checkout's median is
  worse than the base's by more than the metric's ``BENCHMARK.json``
  bound *and* this checkout loses most pairs.

Workloads, metrics, their directions and bounds all come from
``BENCHMARK.json``.  Exits 0 on a pass, 1 on a failure, and 2 when the
two checkouts do not hold the same benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: Pairs of runs per workload, and the length of each run in seconds.
PAIRS = 5
RUN_SECONDS = 15
#: A run that takes longer than this counts as crashed.
RUN_TIMEOUT_S = 600


def benchmark_files(root: Path) -> dict[str, bytes]:
    """``BENCHMARK.json`` and the planbench sources of a checkout."""
    paths = [root / "BENCHMARK.json", *sorted((root / "planbench").rglob("*.py"))]
    return {str(p.relative_to(root)): p.read_bytes() for p in paths if p.is_file()}


def run_once(root: Path, workload: str, seed: int) -> dict[str, Any]:
    """One untraced planbench run in ``root``: its JSON result line.

    A run that exits non-zero or prints no result comes back as an
    incorrect run with no metrics.
    """
    cmd = [sys.executable, "planbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"correct": False, "failed": None, "metrics": {},
                "error": f"no result within {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "failed": None, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def worse_by(base: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``base``, relative to ``base``.

    Positive is worse, whichever direction ``better`` says improves.
    """
    delta = change - base if better == "lower" else base - change
    if base == 0:
        return 0.0 if delta <= 0 else math.inf
    return delta / abs(base)


def verdict(
    spec: dict[str, Any], runs: dict[str, list[tuple[dict[str, Any], dict[str, Any]]]]
) -> tuple[list[str], list[str]]:
    """Judge paired results: ``runs[workload]`` holds ``(base, change)`` result lines.

    Returns one report line per (workload, metric) and one message per
    failure; an empty failure list is a pass.
    """
    table: list[str] = []
    failures: list[str] = []
    for workload, pairs in runs.items():
        for i, (_, change) in enumerate(pairs, 1):
            if change.get("correct") is not True or change.get("failed") != 0:
                failures.append(
                    f"{workload}: change run {i} is not correct with 0 failed "
                    f"(correct {change.get('correct')}, failed {change.get('failed')}"
                    + (f", {change['error']}" if "error" in change else "") + ")"
                )
        for metric in spec["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            values = [
                (base["metrics"][name]["value"], change["metrics"][name]["value"])
                for base, change in pairs
                if name in base.get("metrics", {}) and name in change.get("metrics", {})
            ]
            if not values:
                failures.append(f"{workload} {name}: no pair measured it")
                continue
            base_median = statistics.median(b for b, _ in values)
            change_median = statistics.median(c for _, c in values)
            worse = worse_by(base_median, change_median, better)
            lost = sum(worse_by(b, c, better) > 0 for b, c in values)
            failed = worse > bound and lost > len(values) / 2
            table.append(
                f"{workload:<16} {name:<17} {base_median:>10.4g} -> {change_median:<10.4g}"
                f" {worse:+7.1%} worse (bound {bound:.0%}), lost {lost}/{len(values)}"
                + ("  FAIL" if failed else "")
            )
            if failed:
                failures.append(
                    f"{workload} {name}: median {worse:+.1%} worse than the base, "
                    f"beyond its {bound:.0%} bound, and {lost} of {len(values)} pairs lost"
                )
    return table, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "base", type=Path,
        help="checkout of the base revision holding this checkout's planbench/ "
        "and BENCHMARK.json",
    )
    base = parser.parse_args(argv).base.resolve()
    if benchmark_files(base) != benchmark_files(ROOT):
        print(f"bench_gate: {base} does not hold this checkout's planbench/ and "
              "BENCHMARK.json; copy them there first", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    begin = time.monotonic()
    runs: dict[str, list[tuple[dict[str, Any], dict[str, Any]]]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = []
        for i in range(PAIRS):
            sides = ("base", "change") if i % 2 == 0 else ("change", "base")
            result = {}
            for side in sides:
                t0 = time.monotonic()
                result[side] = run_once(base if side == "base" else ROOT, workload, i + 1)
                print(f"{workload} pair {i + 1}/{PAIRS} {side:<6} "
                      f"{time.monotonic() - t0:5.1f} s  correct {result[side].get('correct')} "
                      f"failed {result[side].get('failed')}", flush=True)
            runs[workload].append((result["base"], result["change"]))
    table, failures = verdict(spec, runs)
    print("\nmedians, base -> change (positive = worse):")
    print("\n".join(table))
    print(f"\n{sum(map(len, runs.values()))} pairs in {time.monotonic() - begin:.0f} s")
    for failure in failures:
        print(f"FAIL {failure}")
    print("bench_gate: " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
