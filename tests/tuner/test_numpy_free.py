"""The tuner must work on a numpy-free install.

``throughput_upper_bounds`` prices candidates through the scalar
:class:`~repro.costmodel.timing.TimingModel` alone, and ``zb-milp``
builds the closed form of its placement MILP without a solver.  These
tests pin both behaviours two ways: in-process, by hiding numpy from
``import`` while pricing bounds, and end-to-end, by running ``repro
tune --smoke``, ``repro serve --help``, a full ``autotune`` and
``lint_schedules`` in a subprocess whose meta-path blocks numpy *and*
scipy outright.  The same subprocess checks that the planning verbs
load no process-pool modules either.
"""

import builtins
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.common import Workload
from repro.tuner import CostCache, autotune
from repro.tuner.bounds import throughput_upper_bounds

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture
def no_numpy(monkeypatch):
    """Make ``import numpy`` fail for code under test.

    Modules that already hold a numpy reference keep it; only *new*
    imports are denied.
    """
    real_import = builtins.__import__

    def blocked(name, *args, **kwargs):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} hidden by no_numpy fixture")
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", blocked)


@pytest.fixture(scope="module")
def wl():
    return Workload.paper("1.3B", "H20", 2, 8192)


class TestScalarBounds:
    def test_empty_candidates_returns_empty_list(self, wl, no_numpy):
        assert throughput_upper_bounds(wl, []) == []


_SUBPROCESS_SCRIPT = r"""
import importlib.abc
import json
import sys


class Blocker(importlib.abc.MetaPathFinder):
    BLOCKED = ("numpy", "scipy")

    def find_spec(self, fullname, path, target=None):
        root = fullname.split(".", 1)[0]
        if root in self.BLOCKED:
            raise ImportError(f"{fullname} is not installed (blocked)")


sys.meta_path.insert(0, Blocker())

try:
    import numpy  # noqa: F401
except ImportError:
    pass
else:
    raise SystemExit("blocker failed: numpy imported")

# The planning verbs load no numpy user: not memsim, and no figure
# module (chunked_mlp imports memsim).
from repro.cli import main
from repro.experiments.registry import _BUILTIN_MODULES as FIGURE_MODULES

tune_exit = main(["tune", "--smoke"])
try:
    main(["serve", "--help"])
except SystemExit as exc:
    serve_help_exit = exc.code
numpy_users = sorted(
    m for m in ("repro.memsim", *FIGURE_MODULES) if m in sys.modules
)
# Nor any process-pool machinery: a sweep is one serial walk.
pool_modules = sorted(
    m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules
)

from repro.workloads import Workload
from repro.lint import lint_schedules
from repro.tuner import CostCache, autotune
from repro.tuner.autotune import _iter_grid
from repro.tuner.bounds import throughput_upper_bounds

wl = Workload.paper("1.3B", "H20", 2, 8192)
grid = [c for c, precluded in _iter_grid(wl, None, True, False) if precluded is None]
bounds = throughput_upper_bounds(wl, grid)
cache = CostCache()
plans = autotune(wl, cache=cache)
best = plans[0]
lint = lint_schedules(pp_sizes=(2,))
print(json.dumps({
    "tune_exit": tune_exit,
    "serve_help_exit": serve_help_exit,
    "numpy_users": numpy_users,
    "pool_modules": pool_modules,
    "bounds_type": type(bounds).__name__,
    "pruned": cache.stats.pruned,
    "best_label": best.label,
    "best_tokens_per_s": best.tokens_per_s,
    "lint_ok": lint.ok,
    "lint_errors": lint.total_errors,
}))
"""


class TestNumpyFreeEndToEnd:
    @pytest.fixture(scope="class")
    def probe(self):
        """One subprocess with numpy *and* scipy blocked at the meta-path:
        ``tune --smoke`` and ``serve --help`` through the CLI, a sweep
        over every registered schedule (zb-milp included -- its
        closed-form placement must not touch scipy) plus a lint run.
        """
        proc = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SCRIPT],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_planning_verbs_load_no_numpy_user(self, probe):
        assert probe["tune_exit"] == 0
        assert probe["serve_help_exit"] == 0
        assert probe["numpy_users"] == []

    def test_planning_verbs_load_no_process_pool(self, probe):
        assert probe["pool_modules"] == []

    def test_bounds_degrade_to_list_with_pruning_intact(self, probe):
        assert probe["bounds_type"] == "list"
        assert probe["pruned"] > 0

    def test_best_plan_matches_numpy_run(self, probe, wl):
        plans = autotune(wl, cache=CostCache())
        assert probe["best_label"] == plans[0].label
        assert probe["best_tokens_per_s"] == pytest.approx(
            plans[0].tokens_per_s
        )

    def test_lint_runs_clean_without_numpy(self, probe):
        assert probe["lint_ok"] is True
        assert probe["lint_errors"] == 0
