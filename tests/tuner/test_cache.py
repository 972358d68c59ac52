"""CostCache persistence, fingerprinting and disk-vs-memory hit accounting."""

import json
import os
import shutil
import sqlite3
import subprocess
import sys
import warnings

import pytest

import repro
from repro.costmodel.memory import RecomputeStrategy
from repro.tuner import (
    CacheStats,
    CostCache,
    SqliteCostStore,
    costmodel_fingerprint,
)
from repro.tuner.autotune import Candidate, _candidate_key, _workload_text

#: The workload text of every test key (a fake workload identity).
_WTEXT = _workload_text(("model", "7B"), 1.0)


def _key(i):
    return _candidate_key(_WTEXT, Candidate("helix", RecomputeStrategy.NONE, i))


def _record(i):
    return {"error": None, "makespan": float(i), "peak_memory_bytes": 2.0 * i,
            "bubble_fraction": 0.1}


class TestPersistence:
    def test_round_trip_preserves_entries_and_keys(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        cache = CostCache.open(path)
        for i in range(5):
            cache.get_or_eval(_key(i), lambda i=i: _record(i))
        assert len(cache) == 5

        loaded = CostCache.open(path)
        assert len(loaded) == 5
        keys = [_key(i) for i in range(5)]
        # Keys round trip as the (workload, candidate) pairs asked for.
        assert loaded.fetch_many(keys) == set(keys)
        for i in range(5):
            assert loaded.peek(_key(i)) == _record(i)

    def test_fetched_entries_count_as_disk_hits(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        CostCache.open(path).get_or_eval(_key(0), lambda: _record(0))

        loaded = CostCache.open(path)
        assert loaded.fetch_many([_key(0), _key(1)]) == {_key(0)}
        assert loaded.stats.lookups == 0
        loaded.get_or_eval(_key(0), lambda: pytest.fail("must not re-evaluate"))
        assert loaded.stats.disk_hits == 1
        assert loaded.stats.hits == 0
        assert loaded.stats.misses == 0
        # An entry evaluated after the reopen is a plain memory hit.
        loaded.get_or_eval(_key(1), lambda: _record(1))
        loaded.get_or_eval(_key(1), lambda: pytest.fail("must not re-evaluate"))
        assert loaded.stats.hits == 1
        assert loaded.stats.misses == 1

    def test_json_file_is_refused_and_left_untouched(self, tmp_path):
        # A JSON cost cache as earlier versions wrote it.
        path = tmp_path / "notacache.json"
        path.write_text(json.dumps({
            "format": "repro-costcache", "version": 1,
            "costmodel": costmodel_fingerprint(),
            "entries": [[json.loads("".join(_key(0))), _record(0)]],
        }))
        before = path.read_bytes()
        with pytest.raises(ValueError, match="not a sqlite cost cache store") as err:
            CostCache.open(path)
        assert str(path) in str(err.value)
        assert "backend" not in str(err.value)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["notacache.json"]

    def test_open_creates_missing_parent_directories(self, tmp_path):
        path = tmp_path / "new" / "deep" / "cache.sqlite"
        CostCache.open(path).get_or_eval(_key(0), lambda: _record(0))
        assert SqliteCostStore(path).get_many([_key(0)]) == {_key(0): _record(0)}

    def test_len_without_a_store_counts_the_dict(self):
        cache = CostCache()
        for i in range(3):
            cache.get_or_eval(_key(i), lambda i=i: _record(i))
        assert len(cache) == 3
        assert cache.fetch_many([_key(0), _key(7)]) == {_key(0)}


class TestCostModelFingerprint:
    def test_deterministic_within_process(self):
        fp = costmodel_fingerprint()
        assert fp == costmodel_fingerprint()
        assert len(fp) == 16
        int(fp, 16)  # hex digest prefix

    def test_store_is_stamped(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        CostCache.open(path).close()
        conn = sqlite3.connect(path)
        try:
            (stamp,) = conn.execute(
                "SELECT value FROM meta WHERE key = 'costmodel'"
            ).fetchone()
        finally:
            conn.close()
        assert stamp == costmodel_fingerprint()

    @pytest.mark.parametrize("stale", [
        "UPDATE meta SET value = '0123456789abcdef' WHERE key = 'costmodel'",
        # Unstamped: a store from before stamping existed.
        "DELETE FROM meta WHERE key = 'costmodel'",
    ])
    def test_stale_store_warns_and_is_cleared(self, tmp_path, stale):
        path = tmp_path / "cache.sqlite"
        store = SqliteCostStore(path)
        store.put(_key(0), _record(0))
        store.close()
        conn = sqlite3.connect(path)
        conn.execute(stale)
        conn.commit()
        conn.close()

        with pytest.warns(UserWarning, match="fingerprint"):
            fresh = CostCache.open(path)
        assert len(fresh) == 0  # stale records are not served

    def test_editing_workloads_changes_the_fingerprint(self, tmp_path):
        """``Workload.costs``/``static_memory`` feed every cached record."""
        src = tmp_path / "src"
        shutil.copytree(
            os.path.dirname(repro.__file__),
            src / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )

        def fingerprint():
            env = dict(os.environ, PYTHONPATH=str(src))
            return subprocess.run(
                [sys.executable, "-B", "-c",
                 "from repro.tuner.cache import costmodel_fingerprint; "
                 "print(costmodel_fingerprint())"],
                env=env, cwd=tmp_path, capture_output=True, text=True,
                check=True,
            ).stdout.strip()

        before = fingerprint()
        workloads = src / "repro" / "workloads.py"
        text = workloads.read_bytes()
        assert text.endswith(b"\n")
        workloads.write_bytes(text[:-1] + b" ")  # one byte changed
        assert fingerprint() != before

    def test_matching_fingerprint_round_trips(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        SqliteCostStore(path).put(_key(0), _record(0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reopened = CostCache.open(path)
        assert reopened.fetch_many([_key(0)]) == {_key(0)}
        assert reopened.peek(_key(0)) == _record(0)


class TestStats:
    def test_totals_and_rate(self):
        s = CacheStats(hits=2, disk_hits=3, misses=5)
        assert s.total_hits == 5
        assert s.lookups == 10
        assert s.hit_rate == 0.5

    def test_str_mentions_disk_only_when_present(self):
        assert "disk" not in str(CacheStats(hits=1, misses=1))
        assert "2 from disk" in str(CacheStats(hits=1, disk_hits=2, misses=1))
