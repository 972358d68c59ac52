"""Per-figure / per-table reproduction experiments.

Every figure module registers itself with the experiment registry
(:mod:`repro.experiments.registry`), which imports it on first lookup,
so the canonical entry point is

>>> from repro.experiments import run_experiment
>>> run_experiment("fig8_throughput", smoke=True).rows

or ``python -m repro experiment run fig8_throughput`` from the shell.
The per-module ``run()`` functions stay importable as submodules
(``from repro.experiments import fig8_throughput``).
"""

from repro.experiments.common import (
    METHODS,
    SEQ_LENS,
    Workload,
    iter_cells,
    run_all_methods,
    run_method,
)
from repro.experiments.diffing import (
    DiffEntry,
    DiffReport,
    Tolerance,
    diff_files,
    diff_results,
    verify_experiments,
)
from repro.experiments.registry import (
    ExperimentResult,
    ExperimentSpec,
    available_experiments,
    get_experiment,
    register_experiment,
    run_experiment,
)

__all__ = [
    "DiffEntry",
    "DiffReport",
    "Tolerance",
    "diff_files",
    "diff_results",
    "verify_experiments",
    "Workload",
    "METHODS",
    "SEQ_LENS",
    "run_method",
    "run_all_methods",
    "iter_cells",
    "ExperimentResult",
    "ExperimentSpec",
    "available_experiments",
    "get_experiment",
    "register_experiment",
    "run_experiment",
]
