"""HelixPipe reproduction: attention parallel pipeline parallelism.

Subpackages
-----------
cluster / costmodel / model / comm
    Simulated hardware and analytic cost substrates.
workloads
    Workload presets and shape parsing (one resolution path for the
    CLI, tuner and experiments) plus token-budget ``WorkloadGrid``
    planning axes.
schedules / core
    Schedule IR, verification passes, the schedule registry, baselines
    (1F1B, GPipe, ZB1P, AdaPipe) and the paper's contribution
    (attention parallel partition + FILO schedules).
tuner
    Auto-tuning planner: searches the registered schedule space for the
    fastest plan under a memory cap; ``tune_grid`` adds the workload
    grid itself as a search axis.
sim / runtime / memsim
    The three executors: discrete-event timing, functional numpy math,
    caching-allocator memory.
analysis / experiments
    Closed-form formulas, reporting, and the experiment registry with
    one registered spec per paper figure/table.

Registry quickstart
-------------------
Schedules are registered by name and built through one uniform
signature; every build runs the verification pass pipeline (SEND/RECV
tag matching, static deadlock-freedom, program order, stash balance):

>>> from repro.schedules import available_schedules, build_schedule, UnitCosts
>>> available_schedules()
['1f1b', 'adapipe', 'gpipe', 'helix', 'helix-naive', ...]
>>> sched = build_schedule("helix", (4, 8), UnitCosts(num_layers=4))

New schedules self-register with the decorator::

    from repro.schedules import register_schedule

    @register_schedule("my-sched", family="layerwise",
                       options={"include_embed": True, "include_head": True},
                       divisor=lambda p, opts: p)
    def build_my_sched(num_stages, num_micro_batches, costs, **options):
        ...

Tuner quickstart
----------------
:func:`repro.tuner.autotune` sweeps registered schedules x recompute
strategies x feasible micro-batch counts x each schedule's option grid,
evaluates each candidate with the discrete-event simulator behind a
memoizing cost cache, and returns ranked plans with per-candidate
infeasibility reasons.  Pruning skips every candidate that provably
cannot win, so a sweep runs serially on one core, and the cache
persists to a sqlite store, which every evaluation is written through:

>>> from repro.experiments import Workload
>>> from repro.tuner import CostCache, autotune
>>> from repro.analysis import format_plan_table
>>> cache = CostCache.open("sweep.sqlite")   # later runs reopen it warm
>>> plans = autotune(Workload.paper("7B", "H20", 8, 65536), cache=cache)
>>> print(format_plan_table(plans[:5]))

See ``examples/autotune_demo.py`` for a runnable walkthrough.

Command line
------------
Everything above is also reachable without a script through the
registry-driven CLI (:mod:`repro.cli`)::

    python -m repro list
    python -m repro describe helix -p 8
    python -m repro build helix --model 7B --gpu H20 -p 8 --seq-len 64k
    python -m repro simulate zb1p --model 7B --gpu H20 -p 8 --seq-len 64k
    python -m repro tune --model 7B --gpu H20 -p 8 --seq-len 64k \\
        --cache sweep.sqlite
    python -m repro tune --budget-tokens 1M --seq-lens 16k,32k,64k -p 4,8
    python -m repro experiment run fig8_throughput --smoke --json --out out/
"""

__version__ = "0.1.0"

__all__ = [
    "cluster",
    "comm",
    "costmodel",
    "model",
    "workloads",
    "schedules",
    "core",
    "tuner",
    "sim",
    "runtime",
    "memsim",
    "nn",
    "analysis",
    "experiments",
]
