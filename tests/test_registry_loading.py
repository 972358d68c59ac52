"""Registries load their own built-in modules, whoever asks first.

The schedule, experiment and pass registries import their built-in
modules on the first lookup, and nothing else imports them for the
registry.  Every case here runs in a fresh interpreter, because what is
under test is a registry that nothing has looked up yet:

* importing a registry's package loads none of its built-in modules;
* registering a built-in name before the first lookup is refused at the
  registration, and later lookups still find the built-in;
* threads that make the first lookup at the same time all see the full
  registry;
* a pass registry lists its built-ins in the order of its built-in
  modules, even when one of them was imported before the first lookup.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.registry import available_experiments
from repro.schedules.analysis.framework import SCHEDULE_PASSES
from repro.schedules.registry import available_schedules

REPO = Path(__file__).resolve().parents[1]

_SCHEDULES = (
    "from repro.schedules.registry import available_schedules as names, "
    "get_schedule as get, register_schedule as register"
)
_EXPERIMENTS = (
    "from repro.experiments.registry import available_experiments as names, "
    "get_experiment as get, register_experiment as register"
)
_PASSES = (
    "from repro.schedules.analysis.framework import SCHEDULE_PASSES\n"
    "names, get, register = (SCHEDULE_PASSES.names, SCHEDULE_PASSES.get, "
    "SCHEDULE_PASSES.register)"
)

_IMPORT_PACKAGES = r"""
import json
import sys

import repro.experiments
import repro.schedules
from repro.experiments.registry import _BUILTIN_MODULES as FIGURES
from repro.schedules.registry import _BUILTIN_MODULES as BUILDERS

print(json.dumps(sorted(m for m in (*FIGURES, *BUILDERS) if m in sys.modules)))
"""

_REGISTER_BEFORE_LOOKUP = r"""
import json
{imports}


def clash():
    return []


try:
    register({name!r})(clash)
except ValueError as err:
    refused = str(err)
else:
    refused = None
print(json.dumps({{
    "refused": refused,
    "names": sorted(names()),
    "owner": getattr(get({name!r}), {attr!r}).__module__,
}}))
"""

_FIRST_LOOKUPS_AT_ONCE = r"""
import json
import sys
import threading

from repro.schedules.registry import available_schedules

THREADS = 8
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(THREADS)
seen = [None] * THREADS


def first_lookup(i):
    barrier.wait()
    seen[i] = available_schedules()


threads = [
    threading.Thread(target=first_lookup, args=(i,)) for i in range(THREADS)
]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=120)
assert not any(t.is_alive() for t in threads), "a first lookup hung"
print(json.dumps(seen))
"""


_PASS_ORDER_AFTER_EARLY_IMPORTS = r"""
import json

import repro.devtools.concurrency
import repro.schedules.analysis.memory
from repro.devtools.concurrency.framework import CODE_PASSES
from repro.schedules.analysis.framework import SCHEDULE_PASSES

print(json.dumps([SCHEDULE_PASSES.names(), CODE_PASSES.names()]))
"""


def _fresh_process(script: str):
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_packages_leave_their_plugins_to_the_registry():
    assert _fresh_process(_IMPORT_PACKAGES) == []


@pytest.mark.parametrize(
    "imports,name,attr,owner,every_name",
    [
        (_SCHEDULES, "helix", "builder", "repro.core.filo",
         available_schedules),
        (_SCHEDULES, "1f1b", "builder", "repro.schedules.one_f_one_b",
         available_schedules),
        (_EXPERIMENTS, "table1", "runner", "repro.experiments.table1",
         available_experiments),
        (_PASSES, "comm-order", "fn", "repro.schedules.analysis.commrace",
         SCHEDULE_PASSES.names),
    ],
    ids=["helix", "1f1b", "table1", "comm-order"],
)
def test_built_in_name_taken_before_the_first_lookup_is_refused(
    imports, name, attr, owner, every_name
):
    probe = _fresh_process(
        _REGISTER_BEFORE_LOOKUP.format(imports=imports, name=name, attr=attr)
    )
    assert probe["refused"] is not None, f"{name!r} was registered twice"
    assert "already registered" in probe["refused"]
    assert probe["owner"] == owner
    assert probe["names"] == sorted(every_name())


def test_pass_listings_follow_the_built_in_modules():
    schedule_passes, code_passes = _fresh_process(_PASS_ORDER_AFTER_EARLY_IMPORTS)
    assert schedule_passes == [
        "structure", "deadlock", "program-order", "stash-balance",
        "comm-order", "comm-hol", "peak-memory", "dead-code",
    ]
    assert code_passes == [
        "guarded-by", "lock-order", "blocking-under-lock", "thread-hygiene",
    ]


def test_concurrent_first_lookups_see_every_schedule():
    seen = _fresh_process(_FIRST_LOOKUPS_AT_ONCE)
    assert seen == [available_schedules()] * 8
