"""The traced benchmark launcher still finds every name it wraps.

``planbench/launcher.py::install`` replaces module globals and class
attributes of the planner stack by name, so renaming one breaks only
the traced benchmark run.  Installing it here makes such a rename fail
the test suite instead.  It runs in a subprocess because ``install``
rebinds those names for the whole interpreter.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_launcher_installs_on_the_current_tree():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = (
        "import sys; sys.path.insert(0, 'planbench'); "
        "import launcher; launcher.install(launcher.Recorder())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
