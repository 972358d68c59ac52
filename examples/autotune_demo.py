"""Auto-tune the pipeline schedule for a long-sequence workload.

Sweeps every tunable registered schedule x its admissible recomputation
strategies x the feasible micro-batch counts x each schedule's option
grid (interleaved chunk counts, ZB1P outstanding-W caps, HelixPipe
fold) for the paper's 7B / H20 / p=8 / 64k workload, ranks the feasible
plans by simulated throughput under the HBM cap, and shows the cost
cache at work three ways:

1. a parallel cold sweep (``workers=4``: candidates evaluate in a
   process pool, their records collected on join and written through
   to a sqlite store);
2. an in-memory warm sweep that re-simulates nothing;
3. a persisted cache: the sweep over a fresh cache reopened on the
   store performs zero cold evaluations (all disk hits).

The same sweep is available without a script:

    python -m repro tune --model 7B --gpu H20 -p 8 --seq-len 64k \\
        --workers 4 --cache sweep.sqlite

Run:  python examples/autotune_demo.py
"""

import os
import tempfile
import time

from repro.analysis import format_plan_table
from repro.experiments import Workload
from repro.tuner import CostCache, autotune

GIB = float(1 << 30)


def main() -> None:
    wl = Workload.paper("7B", "H20", 8, 65536)
    cap = wl.cluster.node.gpu.hbm_bytes
    print(
        f"Workload: {wl.model.name} GPT, seq {wl.seq_len // 1024}k, "
        f"p={wl.p}, micro-batch budget {wl.num_micro_batches}, "
        f"HBM cap {cap / GIB:.0f} GiB\n"
    )

    with tempfile.TemporaryDirectory() as tmpdir:
        path = os.path.join(tmpdir, "sweep.sqlite")

        # Cold sweep, evaluated in a pool of 4 worker processes; every
        # evaluation is written through to the store at ``path``.
        cache = CostCache.open(path)
        t0 = time.perf_counter()
        plans = autotune(wl, cache=cache, workers=4)
        cold = time.perf_counter() - t0

        print(format_plan_table(plans))
        best = plans[0]
        print(
            f"\nBest plan: {best.label} -- {best.iteration_time:.2f} s/iter, "
            f"{best.tokens_per_s:.0f} tokens/s, peak {best.peak_memory_bytes / GIB:.1f} GiB"
        )

        # Warm sweep: every candidate hits the in-memory cache.
        t0 = time.perf_counter()
        again = autotune(wl, cache=cache)
        warm = time.perf_counter() - t0
        assert again == plans, "cached sweep must reproduce the cold results"
        print(
            f"\nCold sweep (4 workers) {cold:.2f} s, cached sweep {warm * 1e3:.1f} ms "
            f"({cache.stats}, hit rate {cache.stats.hit_rate:.0%})"
        )
        cache.close()

        # Reopen the store in a fresh cache and sweep again: zero cold
        # evaluations, every lookup served off the disk store.
        reopened = CostCache.open(path)
        t0 = time.perf_counter()
        from_disk = autotune(wl, cache=reopened)
        disk = time.perf_counter() - t0
        assert from_disk == plans, "persisted sweep must reproduce the cold results"
        assert reopened.stats.misses == 0, "persisted sweep must be fully warm"
        print(f"Persisted sweep {disk * 1e3:.1f} ms ({reopened.stats})")
        reopened.close()


if __name__ == "__main__":
    main()
