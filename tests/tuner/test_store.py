"""SqliteCostStore: lazy lookup, refusal, concurrent writers."""

import json
import multiprocessing
import sqlite3
import sys
import threading

import pytest

from repro.tuner import CostCache, SqliteCostStore, autotune, costmodel_fingerprint
from repro.workloads import Workload


def _key(i):
    return (("model", "7B"), 1.0, "helix", "none", i, (("fold", 2),))


def _record(i):
    return {"error": None, "makespan": float(i), "peak_memory_bytes": 2.0 * i,
            "bubble_fraction": 0.1}


def _is_sqlite_file(path):
    with open(path, "rb") as fh:
        return fh.read(16) == b"SQLite format 3\x00"


@pytest.mark.parametrize("name", [
    "sweep.json",
    "sweep",
    "sweep.sqlite",
    "sweep.SQLITE3",
    "plans.db",
    "dir.sqlite/sweep.json",
])
def test_open_makes_a_sqlite_store_whatever_the_suffix(tmp_path, name):
    path = tmp_path / name
    cache = CostCache.open(path)
    cache.get_or_eval(_key(0), lambda: _record(0))
    cache.close()
    assert _is_sqlite_file(path)
    assert CostCache.open(path).peek(_key(0)) == _record(0)


class TestStore:
    def test_round_trip_preserves_keys_and_records(self, tmp_path):
        path = tmp_path / "store.sqlite"
        store = SqliteCostStore(path)
        for i in range(5):
            store.put(_key(i), _record(i))
        assert len(store) == 5

        reopened = SqliteCostStore(path)
        for i in range(5):
            # Keys must round trip as nested tuples, not JSON lists.
            assert _key(i) in reopened
            assert reopened.get(_key(i)) == _record(i)
        assert _key(99) not in reopened
        assert reopened.get(_key(99)) is None

    def test_put_many_counts_what_it_wrote(self, tmp_path):
        store = SqliteCostStore(tmp_path / "store.sqlite")
        assert store.put_many(iter((_key(i), _record(i)) for i in range(10))) == 10
        entries = store.get_many(_key(i) for i in range(10))
        assert entries == {_key(i): _record(i) for i in range(10)}

    def test_get_many_returns_found_keys_only(self, tmp_path):
        store = SqliteCostStore(tmp_path / "store.sqlite")
        for i in range(3):
            store.put(_key(i), _record(i))
        found = store.get_many([_key(0), _key(2), _key(7)])
        assert found == {_key(0): _record(0), _key(2): _record(2)}
        assert store.get_many([_key(8), _key(9)]) == {}
        assert store.get_many([]) == {}

    def test_get_many_spans_query_chunks(self, tmp_path):
        store = SqliteCostStore(tmp_path / "store.sqlite")
        # More keys than one IN (...) query takes, half of them absent.
        store.put_many((_key(i), _record(i)) for i in range(0, 1300, 2))
        found = store.get_many(_key(i) for i in range(1300))
        assert found == {_key(i): _record(i) for i in range(0, 1300, 2)}

    def test_get_many_round_trips_like_get(self, tmp_path):
        path = tmp_path / "store.sqlite"
        SqliteCostStore(path).put_many((_key(i), _record(i)) for i in range(5))
        reopened = SqliteCostStore(path)
        keys = [_key(i) for i in range(5)]
        assert reopened.get_many(keys) == {key: reopened.get(key) for key in keys}

    def test_put_replaces(self, tmp_path):
        store = SqliteCostStore(tmp_path / "store.sqlite")
        store.put(_key(0), _record(0))
        store.put(_key(0), _record(7))
        assert len(store) == 1
        assert store.get(_key(0)) == _record(7)

    def test_create_makes_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "store.sqlite"
        SqliteCostStore(path).put(_key(0), _record(0))
        assert _is_sqlite_file(path)

    def test_non_sqlite_file_rejected_with_pointed_error(self, tmp_path):
        path = tmp_path / "actually.json"
        path.write_text(json.dumps({"format": "repro-costcache"}))
        with pytest.raises(ValueError, match="not a sqlite cost cache store"):
            SqliteCostStore(path)

    @pytest.mark.parametrize("kind", ["json", "foreign-sqlite"])
    def test_refused_open_closes_its_connections(
        self, tmp_path, monkeypatch, kind
    ):
        path = tmp_path / "refused"
        if kind == "json":
            path.write_text(json.dumps({"format": "repro-costcache"}))
        else:
            conn = sqlite3.connect(path)
            conn.execute("CREATE TABLE unrelated (x)")
            conn.commit()
            conn.close()
        opened = []
        connect = sqlite3.connect

        def recording_connect(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(sqlite3, "connect", recording_connect)
        with pytest.raises(ValueError):
            SqliteCostStore(path)
        assert opened
        for conn in opened:
            with pytest.raises(sqlite3.ProgrammingError, match="closed"):
                conn.execute("SELECT 1")

    def test_foreign_sqlite_database_rejected(self, tmp_path):
        path = tmp_path / "other.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE unrelated (x)")
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="not a cost cache store"):
            SqliteCostStore(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "store.sqlite"
        SqliteCostStore(path)
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value='99' WHERE key='version'")
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="unsupported sqlite cost cache"):
            SqliteCostStore(path)

    def test_fingerprint_mismatch_clears_and_restamps(self, tmp_path):
        path = tmp_path / "store.sqlite"
        store = SqliteCostStore(path)
        store.put(_key(0), _record(0))
        store.close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value='0123456789abcdef' WHERE key='costmodel'")
        conn.commit()
        conn.close()

        with pytest.warns(UserWarning, match="fingerprint"):
            reopened = SqliteCostStore(path)
        assert len(reopened) == 0  # stale records are not served
        assert reopened.fingerprint == costmodel_fingerprint()


class TestCacheIntegration:
    def test_attached_store_serves_lazy_disk_hits(self, tmp_path):
        path = tmp_path / "store.sqlite"
        SqliteCostStore(path).put(_key(0), _record(0))

        cache = CostCache.open(path)
        assert cache.stats.lookups == 0
        value = cache.get_or_eval(_key(0), lambda: pytest.fail("on disk"))
        assert value == _record(0)
        assert cache.stats.disk_hits == 1 and cache.stats.misses == 0
        # Second lookup is served from the hot layer, still a disk hit.
        cache.get_or_eval(_key(0), lambda: pytest.fail("cached"))
        assert cache.stats.disk_hits == 2

    def test_cold_evaluations_write_through(self, tmp_path):
        path = tmp_path / "store.sqlite"
        cache = CostCache.open(path)
        cache.get_or_eval(_key(0), lambda: _record(0))
        assert cache.stats.misses == 1
        # A second cache over the same store sees the entry without any
        # explicit save() -- that is what makes the store shareable.
        other = CostCache.open(path)
        other.get_or_eval(_key(0), lambda: pytest.fail("written through"))
        assert other.stats.disk_hits == 1

    def test_contains_and_peek_fall_through_to_store(self, tmp_path):
        path = tmp_path / "store.sqlite"
        SqliteCostStore(path).put(_key(0), _record(0))
        cache = CostCache.open(path)
        assert _key(0) in cache  # the parallel sweep path uses `in`
        assert cache.peek(_key(0)) == _record(0)
        assert cache.stats.lookups == 0  # neither call counts stats
        with pytest.raises(KeyError):
            cache.peek(_key(99))

    def test_fetch_many_loads_store_hits_as_disk_entries(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "store.sqlite"
        SqliteCostStore(path).put_many((_key(i), _record(i)) for i in range(3))
        cache = CostCache.open(path)
        cache.adopt(_key(5), _record(5))
        held = cache.fetch_many([_key(0), _key(2), _key(5), _key(9)])
        assert held == {_key(0), _key(2), _key(5)}
        assert cache.stats.lookups == 0
        calls = _count_calls(monkeypatch, "get", "__contains__")
        assert cache.get_or_eval(_key(0), lambda: pytest.fail("fetched")) == _record(0)
        assert calls == {} and cache.stats.disk_hits == 1

    def test_save_flushes_adopted_entries(self, tmp_path):
        path = tmp_path / "store.sqlite"
        cache = CostCache.open(path)
        cache.adopt(_key(0), _record(0))  # adopt() does not write through
        assert cache.save() == 1
        assert SqliteCostStore(path).get(_key(0)) == _record(0)

    def test_save_to_attached_store_writes_only_unstored_rows(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "store.sqlite"
        SqliteCostStore(path).put(_key(0), _record(0))
        cache = CostCache.open(path)
        cache.get_or_eval(_key(0), lambda: pytest.fail("on disk"))  # fetched
        cache.get_or_eval(_key(1), lambda: _record(1))  # written through
        written = []
        put_many = SqliteCostStore.put_many

        def counting_put_many(store, entries):
            entries = list(entries)
            written.extend(key for key, _ in entries)
            return put_many(store, iter(entries))

        monkeypatch.setattr(SqliteCostStore, "put_many", counting_put_many)
        assert cache.save() == 2
        assert written == []

        cache.adopt(_key(2), _record(2))  # adopt() does not write through

        def failing_put(store, key, record):
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(SqliteCostStore, "put", failing_put)
        with pytest.raises(sqlite3.OperationalError):
            cache.get_or_eval(_key(3), lambda: _record(3))
        assert cache.save() == 4
        assert sorted(written) == [_key(2), _key(3)]
        assert SqliteCostStore(path).get_many(_key(i) for i in range(4)) == {
            _key(i): _record(i) for i in range(4)
        }

    def test_save_flushes_entries_held_before_attach(self, tmp_path):
        cache = CostCache()
        for i in range(3):
            cache.adopt(_key(i), _record(i))
        path = tmp_path / "out.sqlite"
        cache.attach_store(SqliteCostStore(path))
        assert cache.save() == 3
        assert SqliteCostStore(path).get_many(_key(i) for i in range(3)) == {
            _key(i): _record(i) for i in range(3)
        }

    def test_len_counts_memory_and_store_without_double_counting(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "store.sqlite"
        SqliteCostStore(path).put(_key(0), _record(0))
        cache = CostCache()
        cache.adopt(_key(2), _record(2))  # held before the store was attached
        cache.attach_store(SqliteCostStore(path))
        cache.get_or_eval(_key(0), lambda: pytest.fail("on disk"))  # fetched
        cache.get_or_eval(_key(1), lambda: _record(1))  # written through
        cache.adopt(_key(3), _record(3))  # memory only
        cache.adopt(_key(4), _record(4))  # memory only
        assert len(cache) == 5

        # Written-through entries are in the store already: counting
        # them must not cost one store probe per evaluated record.
        for i in range(10, 30):
            cache.get_or_eval(_key(i), lambda i=i: _record(i))
        probes = _count_calls(monkeypatch, "__contains__")
        assert len(cache) == 25
        assert probes == {"__contains__": 3}  # the three adopted keys
        cache.save()  # flushes the memory-only entries into the store
        probes.clear()
        assert len(cache) == 25
        assert probes == {}

    def test_len_probes_nothing_after_write_through_only(
        self, tmp_path, monkeypatch
    ):
        cache = CostCache.open(tmp_path / "store.sqlite")
        for i in range(20):
            cache.get_or_eval(_key(i), lambda i=i: _record(i))
        probes = _count_calls(monkeypatch, "__contains__")
        assert len(cache) == 20
        assert probes == {}

    def test_len_counts_entries_held_before_the_store_was_attached(
        self, tmp_path
    ):
        path = tmp_path / "store.sqlite"
        SqliteCostStore(path).put_many((_key(i), _record(i)) for i in range(3))
        cache = CostCache()
        for i in range(2, 5):  # _key(2) is in the store too
            cache.get_or_eval(_key(i), lambda i=i: _record(i))
        cache.attach_store(SqliteCostStore(path))
        assert len(cache) == 5


def _count_calls(monkeypatch, *names):
    """Count calls to the named ``SqliteCostStore`` methods, by name."""
    calls: dict[str, int] = {}
    for name in names:
        original = getattr(SqliteCostStore, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(self, *args)

        monkeypatch.setattr(SqliteCostStore, name, counted)
    return calls


class TestAutotuneOverStore:
    """autotune reads the store once per sweep and answers as in memory."""

    @pytest.fixture(scope="class")
    def wl(self):
        return Workload.paper("7B", "H20", 4, 32768)

    @pytest.mark.parametrize("workers", [None, 2])
    def test_warm_rerun_makes_no_per_key_store_calls(
        self, tmp_path, monkeypatch, wl, workers
    ):
        path = tmp_path / "store.sqlite"
        autotune(wl, cache=CostCache.open(path))
        cache = CostCache.open(path)
        calls = _count_calls(monkeypatch, "__contains__", "get", "get_many")
        # Warm, so workers=2 dispatches nothing and starts no pool.
        warm = autotune(wl, cache=cache, workers=workers)
        assert calls == {"get_many": 1}
        assert cache.stats.misses == 0 and cache.stats.disk_hits > 0
        assert cache.stats.pruned > 0  # pruned rows took no store query

        fresh = CostCache()
        assert warm == autotune(wl, cache=fresh)
        assert cache.stats.pruned == fresh.stats.pruned

    def test_cached_records_are_never_pruned(self, tmp_path, wl):
        path = tmp_path / "store.sqlite"
        exhaustive = autotune(wl, cache=CostCache.open(path), prune=False)
        cache = CostCache.open(path)
        assert autotune(wl, cache=cache) == exhaustive
        assert cache.stats.pruned == 0 and cache.stats.misses == 0


def _writer(path, start, count):
    """One writer process: upsert ``count`` entries starting at ``start``."""
    store = SqliteCostStore(path)
    for i in range(start, start + count):
        store.put(_key(i), _record(i))
    store.close()


class TestConcurrentWriters:
    def test_multi_process_writers_lose_no_entries(self, tmp_path):
        """Several processes writing one store: every entry survives."""
        path = str(tmp_path / "shared.sqlite")
        SqliteCostStore(path)  # stamp once, before the writers race
        per_writer = 40
        ctx = multiprocessing.get_context("spawn")
        writers = [
            ctx.Process(target=_writer, args=(path, w * per_writer, per_writer))
            for w in range(4)
        ]
        for p in writers:
            p.start()
        for p in writers:
            p.join(timeout=120)
        assert all(p.exitcode == 0 for p in writers)

        store = SqliteCostStore(path)
        assert len(store) == 4 * per_writer
        for i in range(4 * per_writer):
            assert store.get(_key(i)) == _record(i)


class TestThreadedCache:
    def test_batched_reads_race_adopts_and_write_through(
        self, tmp_path, monkeypatch
    ):
        """More threads than cores mix fetch_many, adopt, write-through
        and len; afterwards len counts every entry once and probes the
        store for exactly the adopted keys."""
        path = tmp_path / "store.sqlite"
        SqliteCostStore(path).put_many((_key(i), _record(i)) for i in range(200))
        cache = CostCache.open(path)
        n_threads, rounds = 8, 20
        gate = threading.Barrier(n_threads)
        errors: list[BaseException] = []

        def worker(t):
            try:
                gate.wait(timeout=30)
                for i in range(rounds):
                    keys = [_key(k) for k in range(10 * t, 10 * t + 60)]
                    assert cache.fetch_many(keys) == set(keys)
                    cache.adopt(_key(1000 + rounds * t + i), _record(i))
                    n = 2000 + rounds * t + i
                    cache.get_or_eval(_key(n), lambda n=n: _record(n))
                    len(cache)
            except Exception as err:  # reported below
                errors.append(err)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(t,))
                for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.stats.misses == n_threads * rounds
        probes = _count_calls(monkeypatch, "__contains__")
        assert len(cache) == 200 + 2 * n_threads * rounds
        assert probes == {"__contains__": n_threads * rounds}
        cache.close()


class TestConnectionLifecycle:
    """close() semantics: every fd released, reuse-safe, leak-bounded."""

    def test_close_empties_the_registry(self, tmp_path):
        store = SqliteCostStore(tmp_path / "c.sqlite")
        store.put(_key(1), _record(1))
        assert store._all_conns
        store.close()
        assert store._all_conns == []

    def test_close_from_another_thread_closes_this_threads_conn(self, tmp_path):
        import threading

        store = SqliteCostStore(tmp_path / "c.sqlite")
        conn = store._conn  # main thread's cached connection
        t = threading.Thread(target=store.close)
        t.start()
        t.join()
        with pytest.raises(sqlite3.ProgrammingError):
            conn.execute("SELECT 1")

    def test_reuse_after_close_reconnects(self, tmp_path):
        store = SqliteCostStore(tmp_path / "c.sqlite")
        store.put(_key(1), _record(1))
        store.close()
        # The cached per-thread handle is stale (generation bumped):
        # the next use reconnects instead of failing on a closed conn.
        assert store.get(_key(1)) == _record(1)
        store.put(_key(2), _record(2))
        assert len(store) == 2

    def test_dead_owner_connections_are_pruned(self, tmp_path):
        import threading

        store = SqliteCostStore(tmp_path / "c.sqlite")

        def use():
            store.put(_key(3), _record(3))

        for _ in range(5):
            t = threading.Thread(target=use)
            t.start()
            t.join()
        # Registering a fresh connection prunes every dead owner's entry,
        # so the registry is bounded by live threads -- not thread churn.
        store.close()
        assert store.get(_key(3)) == _record(3)  # reconnect registers anew
        assert len(store._all_conns) == 1

    def test_cache_close_closes_the_store(self, tmp_path):
        cache = CostCache.open(tmp_path / "c.sqlite")
        cache.get_or_eval(_key(4), lambda: _record(4))
        assert cache.store._all_conns
        cache.close()
        assert cache.store._all_conns == []
