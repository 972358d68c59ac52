"""Mutation suite: each pass catches its seeded regression; clean tree is clean.

Each test takes a correct baseline source, seeds the one defect the
ISSUE names (dropped lock guard, inverted lock order, blocking call
under lock, untracked daemon thread) and asserts the *named* pass --
and only a pass of matching severity -- reports it, while the baseline
comes back clean.  The final class sweeps the repo's real threaded
packages and requires zero findings, which is the same gate CI's
``static-analysis`` job enforces.
"""

import os
import textwrap

import pytest

from repro.devtools.concurrency import CODE_PASSES, CodeIssue, lint_code
from repro.passkit import Severity

from tests.devtools.test_model import project

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def run(*sources: str):
    return CODE_PASSES.run(project(*sources))


def findings(report, pass_name):
    return [i for i in report.issues if i.pass_name == pass_name]


_CLEAN_GUARDED = """
    import threading

    class Service:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}  # guarded-by: _lock

        def add(self, key, value):
            with self._lock:
                self._items[key] = value

        def get(self, key):
            with self._lock:
                return self._items.get(key)
"""


class TestGuardedByMutation:
    def test_baseline_is_clean(self):
        assert run(_CLEAN_GUARDED).ok

    def test_dropped_lock_guard_is_caught(self):
        # Seeded defect: `add` loses its `with self._lock`.
        mutated = _CLEAN_GUARDED.replace(
            """\
        def add(self, key, value):
            with self._lock:
                self._items[key] = value
""",
            """\
        def add(self, key, value):
            self._items[key] = value
""",
        )
        assert mutated != _CLEAN_GUARDED
        report = run(mutated)
        errs = findings(report, "guarded-by")
        assert len(errs) == 1
        issue = errs[0]
        assert issue.severity is Severity.ERROR
        assert issue.symbol == "Service._items"
        assert "written" in issue.message
        assert issue.function.endswith("Service.add")

    def test_init_is_exempt(self):
        # Constructing the dict in __init__ is not a violation.
        report = run(_CLEAN_GUARDED)
        assert not findings(report, "guarded-by")

    def test_allowlisted_access_is_suppressed(self):
        mutated = _CLEAN_GUARDED.replace(
            "                return self._items.get(key)",
            "                return self._items.get(key)\n"
            "\n"
            "        def racy(self, key):\n"
            "            return self._items.get(key)"
            "  # lint-code: allow(guarded-by) -- benign racy read\n",
        )
        assert run(mutated).ok


_CLEAN_ORDER = """
    import threading

    class Pipeline:
        def __init__(self):
            self._a = threading.Lock()
            self._b = threading.Lock()

        def first(self):
            with self._a:
                with self._b:
                    pass

        def second(self):
            with self._a:
                with self._b:
                    pass
"""


class TestLockOrderMutation:
    def test_baseline_is_clean(self):
        assert run(_CLEAN_ORDER).ok

    def test_inverted_acquisitions_are_caught(self):
        # Seeded defect: `second` takes the two locks in the opposite
        # order -- the classic two-thread deadlock.
        mutated = _CLEAN_ORDER.replace(
            """\
        def second(self):
            with self._a:
                with self._b:
                    pass
""",
            """\
        def second(self):
            with self._b:
                with self._a:
                    pass
""",
        )
        assert mutated != _CLEAN_ORDER
        report = run(mutated)
        errs = findings(report, "lock-order")
        assert errs and all(i.severity is Severity.ERROR for i in errs)
        assert any("cycle" in i.message for i in errs)

    def test_cycle_through_call_chain_is_caught(self):
        report = run(
            """
            import threading

            class Pipeline:
                def __init__(self):
                    self._a = threading.Lock()
                    self._b = threading.Lock()

                def forward(self):
                    with self._a:
                        self._take_b()

                def _take_b(self):
                    with self._b:
                        pass

                def backward(self):
                    with self._b:
                        self._take_a()

                def _take_a(self):
                    with self._a:
                        pass
            """
        )
        errs = findings(report, "lock-order")
        assert any("cycle" in i.message for i in errs)

    def test_self_reacquire_plain_lock_is_error(self):
        report = run(
            """
            import threading

            class S:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """
        )
        errs = findings(report, "lock-order")
        assert any("re-acquired" in i.message for i in errs)

    def test_self_reacquire_rlock_is_fine(self):
        report = run(
            """
            import threading

            class S:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
            """
        )
        assert not findings(report, "lock-order")


_CLEAN_BLOCKING = """
    import subprocess
    import threading

    class Runner:
        def __init__(self):
            self._lock = threading.Lock()
            self._results = []  # guarded-by: _lock

        def run(self, cmd):
            out = subprocess.run(cmd)
            with self._lock:
                self._results.append(out)
"""


class TestBlockingUnderLockMutation:
    def test_baseline_is_clean(self):
        assert run(_CLEAN_BLOCKING).ok

    def test_blocking_call_under_lock_is_caught(self):
        # Seeded defect: the subprocess call moves inside the lock.
        mutated = _CLEAN_BLOCKING.replace(
            """\
        def run(self, cmd):
            out = subprocess.run(cmd)
            with self._lock:
                self._results.append(out)
""",
            """\
        def run(self, cmd):
            with self._lock:
                out = subprocess.run(cmd)
                self._results.append(out)
""",
        )
        assert mutated != _CLEAN_BLOCKING
        report = run(mutated)
        warns = findings(report, "blocking-under-lock")
        assert len(warns) == 1
        issue = warns[0]
        assert issue.severity is Severity.WARNING
        assert "subprocess" in issue.message
        assert issue.symbol == "Runner._lock"
        # WARNINGs do not fail plain lint but do fail --strict.
        assert report.ok
        report.strict = True
        assert not report.ok

    def test_allow_on_with_line_suppresses_whole_block(self):
        report = run(
            """
            import subprocess
            import threading

            class Runner:
                def __init__(self):
                    self._lock = threading.Lock()

                def run(self, cmd):
                    with self._lock:  # lint-code: allow(blocking-under-lock) -- deliberate
                        return subprocess.run(cmd)
            """
        )
        assert not findings(report, "blocking-under-lock")

    def test_blocking_through_call_chain_is_caught(self):
        report = run(
            """
            import sqlite3
            import threading

            class Store:
                def query(self, conn):
                    return conn.execute("SELECT 1")

            class Service:
                def __init__(self, store: Store):
                    self._lock = threading.Lock()
                    self._store = store

                def lookup(self, conn):
                    with self._lock:
                        return self._store.query(conn)
            """
        )
        warns = findings(report, "blocking-under-lock")
        assert any("sqlite" in i.message for i in warns)


_CLEAN_HYGIENE = """
    import threading

    class Sweeper:
        def __init__(self):
            self._threads = []

        def start(self):
            t = threading.Thread(target=self._work, daemon=True)
            self._threads.append(t)
            t.start()

        def _work(self):
            pass

        def close(self):
            for t in self._threads:
                t.join()
"""


class TestThreadHygieneMutation:
    def test_baseline_is_clean(self):
        assert run(_CLEAN_HYGIENE).ok

    def test_untracked_daemon_thread_is_caught(self):
        # Seeded defect: the spawn is no longer stored anywhere.
        mutated = _CLEAN_HYGIENE.replace(
            """\
        def start(self):
            t = threading.Thread(target=self._work, daemon=True)
            self._threads.append(t)
            t.start()
""",
            """\
        def start(self):
            t = threading.Thread(target=self._work, daemon=True)
            t.start()
""",
        )
        assert mutated != _CLEAN_HYGIENE
        report = run(mutated)
        errs = findings(report, "thread-hygiene")
        assert len(errs) == 1
        issue = errs[0]
        assert issue.severity is Severity.ERROR
        assert "daemon thread" in issue.message

    def test_untracked_non_daemon_is_warning(self):
        report = run(
            """
            import threading

            class S:
                def go(self):
                    t = threading.Thread(target=print)
                    t.start()
            """
        )
        issues = findings(report, "thread-hygiene")
        assert issues and issues[0].severity is Severity.WARNING

    def test_thread_local_without_close_is_flagged(self):
        report = run(
            """
            import threading

            class Store:
                def __init__(self):
                    self._local = threading.local()
            """
        )
        issues = findings(report, "thread-hygiene")
        assert issues and "close()" in issues[0].message

    def test_thread_local_with_close_is_clean(self):
        report = run(
            """
            import threading

            class Store:
                def __init__(self):
                    self._local = threading.local()

                def close(self):
                    pass
            """
        )
        assert not findings(report, "thread-hygiene")


class TestCleanTree:
    def test_repo_threaded_packages_have_zero_findings(self):
        """The acceptance gate: the real service/tuner sweep is clean."""
        report, _model = lint_code(root=_REPO_ROOT)
        assert report.issues == [], report.format()

    def test_sweep_covers_the_threaded_modules(self):
        report, model = lint_code(root=_REPO_ROOT)
        files = {os.path.basename(p) for p in report.subject["files"]}
        assert {"planner.py", "telemetry.py", "cache.py", "store.py"} <= files
        # The known lock hierarchy must be visible to the model.
        assert "PlannerService" in model.classes
        assert "CostCache" in model.classes
        assert model.classes["CostCache"].guarded["_data"] == "_lock"


class TestCodeIssue:
    def test_location_cells(self):
        """The table's location cell joins whichever of file and line exist."""
        full = CodeIssue("p", "m", file="a.py", line=3, function="a.S.f")
        assert full.cells() == ("a.py:3", "a.S.f")
        assert CodeIssue("p", "m", file="a.py").cells() == ("a.py", "-")
        assert CodeIssue("p", "m", line=3).cells() == ("-", "-")

    def test_text_orders_by_severity_then_location(self):
        report = CODE_PASSES.run(project("x = 1"), passes=[])
        report.issues = [
            CodeIssue("p", "msg-3", file="b.py", line=1),
            CodeIssue("p", "msg-2", file="a.py", line=9),
            CodeIssue("p", "msg-1", file="a.py", line=2),
            CodeIssue("p", "msg-4", severity=Severity.WARNING, file="a.py", line=1),
        ]
        text = report.format()
        order = [text.index(f"msg-{k}") for k in range(1, 5)]
        assert order == sorted(order)
        assert "a.py:2" in text and "b.py:1" in text


class TestLintCode:
    def test_report_counts_the_swept_files(self):
        report = run("x = 1")
        assert report.format().startswith("1 file(s): 0 error(s)")
        assert report.to_json_dict()["files"] == ["mod0.py"]

    def test_default_paths_resolve_against_root(self, tmp_path):
        with pytest.raises(ValueError, match="src.repro.service"):
            lint_code(root=tmp_path)
