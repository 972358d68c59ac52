"""CostCache persistence, merging and disk-vs-memory hit accounting."""

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

import repro
from repro.tuner import CacheStats, CostCache, costmodel_fingerprint


def _key(i):
    return (("model", "7B"), 1.0, "helix", "none", i, ())


def _record(i):
    return {"error": None, "makespan": float(i), "peak_memory_bytes": 2.0 * i,
            "bubble_fraction": 0.1}


class TestPersistence:
    def test_round_trip_preserves_entries_and_keys(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = CostCache()
        for i in range(5):
            cache.get_or_eval(_key(i), lambda i=i: _record(i))
        assert cache.save(path) == 5

        loaded = CostCache.from_file(path)
        assert len(loaded) == 5
        for i in range(5):
            # Keys must round trip as tuples, not JSON lists.
            assert _key(i) in loaded
            assert loaded.peek(_key(i)) == _record(i)

    def test_loaded_entries_count_as_disk_hits(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = CostCache()
        cache.get_or_eval(_key(0), lambda: _record(0))
        cache.save(path)

        loaded = CostCache.from_file(path)
        assert loaded.stats.lookups == 0
        loaded.get_or_eval(_key(0), lambda: pytest.fail("must not re-evaluate"))
        assert loaded.stats.disk_hits == 1
        assert loaded.stats.hits == 0
        assert loaded.stats.misses == 0
        # An entry evaluated after the load is a plain memory hit.
        loaded.get_or_eval(_key(1), lambda: _record(1))
        loaded.get_or_eval(_key(1), lambda: pytest.fail("must not re-evaluate"))
        assert loaded.stats.hits == 1
        assert loaded.stats.misses == 1

    def test_load_merges_and_keeps_memory_entries(self, tmp_path):
        path = tmp_path / "cache.json"
        disk = CostCache()
        disk.adopt(_key(0), _record(0))
        disk.adopt(_key(1), _record(1))
        disk.save(path)

        cache = CostCache()
        cache.get_or_eval(_key(0), lambda: _record(0))
        assert cache.load(path) == 1  # key 0 already in memory
        cache.get_or_eval(_key(0), lambda: pytest.fail("cached"))
        cache.get_or_eval(_key(1), lambda: pytest.fail("cached"))
        assert cache.stats.hits == 1 and cache.stats.disk_hits == 1

    def test_non_store_file_rejected(self, tmp_path):
        path = tmp_path / "notacache.json"
        path.write_text(json.dumps({"something": "else"}))
        with pytest.raises(ValueError, match="not a cost cache store"):
            CostCache().load(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(
            json.dumps({"format": "repro-costcache", "version": 99, "entries": []})
        )
        with pytest.raises(ValueError, match="unsupported cost cache version"):
            CostCache().load(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CostCache().load(tmp_path / "nope.json")

    def test_save_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = CostCache()
        cache.adopt(_key(0), _record(0))
        cache.save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]

    def test_save_creates_missing_parent_directories(self, tmp_path):
        # Regression: this used to die inside mkstemp with a raw
        # FileNotFoundError for the temp file's directory.
        path = tmp_path / "new" / "deep" / "cache.json"
        cache = CostCache()
        cache.adopt(_key(0), _record(0))
        assert cache.save(path) == 1
        assert CostCache.from_file(path).peek(_key(0)) == _record(0)

    def test_save_honors_umask_without_mutating_it(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = CostCache()
        cache.adopt(_key(0), _record(0))
        old = os.umask(0o027)
        try:
            cache.save(path)
            # The saved file carries 0o666 minus the umask, and the
            # process umask itself was never flipped by the save (the
            # old implementation's os.umask(0) probe raced under
            # threads and leaked on mid-save exceptions).
            assert os.stat(path).st_mode & 0o777 == 0o640
            assert os.umask(0o027) == 0o027
        finally:
            os.umask(old)

    def test_concurrent_threaded_saves_do_not_corrupt(self, tmp_path):
        path = tmp_path / "cache.json"
        caches = []
        for t in range(8):
            cache = CostCache()
            for i in range(10):
                cache.adopt(_key(1000 * t + i), _record(i))
            caches.append(cache)
        barrier = threading.Barrier(8)
        errors = []

        def save(cache):
            try:
                barrier.wait()
                for _ in range(5):
                    cache.save(path)
            except BaseException as err:  # pragma: no cover
                errors.append(err)

        threads = [threading.Thread(target=save, args=(c,)) for c in caches]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # The last complete save won atomically: the file is one
        # writer's intact store, and no temp files were left behind.
        loaded = CostCache.from_file(path)
        assert len(loaded) == 10
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]


class TestCostModelFingerprint:
    def test_deterministic_within_process(self):
        fp = costmodel_fingerprint()
        assert fp == costmodel_fingerprint()
        assert len(fp) == 16
        int(fp, 16)  # hex digest prefix

    def test_store_is_stamped(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = CostCache()
        cache.adopt(_key(0), _record(0))
        cache.save(path)
        payload = json.loads(path.read_text())
        assert payload["costmodel"] == costmodel_fingerprint()

    def test_mismatched_fingerprint_warns_and_discards(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = CostCache()
        cache.adopt(_key(0), _record(0))
        cache.save(path)
        payload = json.loads(path.read_text())
        payload["costmodel"] = "0123456789abcdef"
        path.write_text(json.dumps(payload))

        fresh = CostCache()
        with pytest.warns(UserWarning, match="fingerprint"):
            assert fresh.load(path) == 0
        assert len(fresh) == 0  # stale records are not served

    def test_unstamped_legacy_store_is_stale(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = CostCache()
        cache.adopt(_key(0), _record(0))
        cache.save(path)
        payload = json.loads(path.read_text())
        del payload["costmodel"]
        path.write_text(json.dumps(payload))

        with pytest.warns(UserWarning, match="fingerprint"):
            assert CostCache().load(path) == 0

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
        path = tmp_path / "cache.json"
        cache = CostCache()
        cache.adopt(_key(0), _record(0))
        cache.save(path)
        assert CostCache.from_file(path).peek(_key(0)) == _record(0)


class TestMerge:
    def test_merge_adopts_missing_entries_only(self):
        a, b = CostCache(), CostCache()
        a.adopt(_key(0), _record(0))
        b.adopt(_key(0), {"error": "worker disagrees"})
        b.adopt(_key(1), _record(1))
        assert a.merge(b) == 1
        # Existing entries win on conflict.
        assert a.peek(_key(0)) == _record(0)
        assert a.peek(_key(1)) == _record(1)

    def test_merge_records_no_stats(self):
        a, b = CostCache(), CostCache()
        b.get_or_eval(_key(0), lambda: _record(0))
        a.merge(b)
        assert a.stats.lookups == 0

    def test_merge_carries_disk_origin_bookkeeping(self, tmp_path):
        # Regression: merge used to drop other's _disk_keys, so entries
        # that came off a persisted store were re-counted as memory hits
        # after a merge, skewing the disk/memory stats split.
        path = tmp_path / "cache.json"
        disk = CostCache()
        disk.adopt(_key(0), _record(0))
        disk.save(path)

        worker = CostCache.from_file(path)  # disk-origin entry
        worker.get_or_eval(_key(1), lambda: _record(1))  # memory entry

        main = CostCache()
        assert main.merge(worker) == 2
        main.get_or_eval(_key(0), lambda: pytest.fail("cached"))
        main.get_or_eval(_key(1), lambda: pytest.fail("cached"))
        assert main.stats.disk_hits == 1
        assert main.stats.hits == 1

    def test_merge_conflict_keeps_own_disk_bookkeeping(self, tmp_path):
        path = tmp_path / "cache.json"
        disk = CostCache()
        disk.adopt(_key(0), _record(0))
        disk.save(path)

        mine = CostCache.from_file(path)  # key 0 is disk-origin here
        other = CostCache()
        other.get_or_eval(_key(0), lambda: _record(0))  # memory-origin there
        mine.merge(other)
        mine.get_or_eval(_key(0), lambda: pytest.fail("cached"))
        assert mine.stats.disk_hits == 1 and mine.stats.hits == 0


class TestStats:
    def test_totals_and_rate(self):
        s = CacheStats(hits=2, disk_hits=3, misses=5)
        assert s.total_hits == 5
        assert s.lookups == 10
        assert s.hit_rate == 0.5

    def test_str_mentions_disk_only_when_present(self):
        assert "disk" not in str(CacheStats(hits=1, misses=1))
        assert "2 from disk" in str(CacheStats(hits=1, disk_hits=2, misses=1))

    def test_clear_resets_disk_bookkeeping(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = CostCache()
        cache.adopt(_key(0), _record(0))
        cache.save(path)
        loaded = CostCache.from_file(path)
        loaded.clear()
        assert len(loaded) == 0
        loaded.get_or_eval(_key(0), lambda: _record(0))
        assert loaded.stats.misses == 1 and loaded.stats.disk_hits == 0
