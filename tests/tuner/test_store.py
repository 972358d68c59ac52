"""SqliteCostStore: lazy lookup, refusal, concurrent writers."""

import json
import multiprocessing
import sqlite3
import sys
import threading

import pytest

from repro.costmodel.memory import RecomputeStrategy
from repro.schedules.registry import available_schedules, workload_cache_key
from repro.tuner import CostCache, SqliteCostStore, autotune, costmodel_fingerprint
from repro.tuner.autotune import Candidate, _candidate_key, _workload_text
from repro.workloads import Workload
from tests.tuner.test_autotune import grid_points

#: The workload text of every test key (a fake workload identity).
_WTEXT = _workload_text(("model", "7B"), 1.0)


def _key(i):
    cand = Candidate("helix", RecomputeStrategy.NONE, i, (("fold", 2),))
    return _candidate_key(_WTEXT, cand)


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
    reopened = CostCache.open(path)
    assert reopened.fetch_many([_key(0)]) == {_key(0)}
    assert reopened.peek(_key(0)) == _record(0)


class TestStore:
    def test_round_trip_preserves_keys_and_records(self, tmp_path):
        path = tmp_path / "store.sqlite"
        store = SqliteCostStore(path)
        for i in range(5):
            store.put(_key(i), _record(i))
        assert len(store) == 5

        reopened = SqliteCostStore(path)
        for i in range(5):
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
        conn = sqlite3.connect(path)
        try:
            (stamp,) = conn.execute(
                "SELECT value FROM meta WHERE key = 'costmodel'"
            ).fetchone()
        finally:
            conn.close()
        assert stamp == costmodel_fingerprint()


#: Workloads whose grid candidates pin the stored key text.
_PINNED_WORKLOADS = [
    ("7B", "H20", 8, 65536),
    ("3B", "A800", 16, 131072),
    ("13B", "H20", 4, 32768),
    ("1.3B", "A800", 2, 16384),
]


class TestKeyText:
    """A key is (workload text, candidate text); the store keeps them joined."""

    def test_stored_text_is_the_candidates_canonical_json(self):
        schedules = set()
        for preset in _PINNED_WORKLOADS:
            wl = Workload.paper(*preset)
            wkey = workload_cache_key(wl)
            hbm = wl.cluster.node.gpu.hbm_bytes
            for cap in (hbm, 0.5 * (1 << 30), 12345.678, 0):
                wtext = _workload_text(wkey, cap)
                for cand in grid_points(wl, schedules=available_schedules()):
                    workload, candidate = _candidate_key(wtext, cand)
                    assert workload is wtext
                    assert workload + candidate == json.dumps(
                        (wkey, float(cap), cand.schedule, cand.recompute.value,
                         cand.num_micro_batches, cand.options),
                        separators=(",", ":"),
                    )
                    schedules.add(cand.schedule)
        assert schedules == set(available_schedules())

    def test_a_warm_sweep_encodes_its_workload_once(self, tmp_path, monkeypatch):
        wl = Workload.paper("7B", "H20", 4, 32768)
        path = tmp_path / "store.sqlite"
        autotune(wl, cache=CostCache.open(path))
        asked = []
        get_many = SqliteCostStore.get_many

        def recorded(self, keys):
            keys = list(keys)
            asked.extend(keys)
            return get_many(self, keys)

        monkeypatch.setattr(SqliteCostStore, "get_many", recorded)
        cache = CostCache.open(path)
        autotune(wl, cache=cache)
        assert cache.stats.misses == 0 and cache.stats.pruned > 0
        assert len(asked) == len(grid_points(wl))
        workload = asked[0][0]
        assert workload == _sweep_text(wl)
        assert all(w is workload for w, _ in asked)

    def test_the_store_refuses_a_nested_tuple_key(self, tmp_path):
        store = SqliteCostStore(tmp_path / "store.sqlite")
        nested = (("model", "7B"), 1.0, "helix", "none", 8, (("fold", 2),))
        with pytest.raises(ValueError):
            store.put(nested, _record(0))
        with pytest.raises(ValueError):
            store.put_many(iter([(nested, _record(0))]))
        with pytest.raises(ValueError):
            store.get(nested)
        with pytest.raises(ValueError):
            store.get_many([nested])
        with pytest.raises(ValueError):
            nested in store
        # A pair whose halves are not both strings has no text either.
        with pytest.raises(TypeError):
            store.put((nested[0], "x"), _record(0))
        assert len(store) == 0


class TestCacheIntegration:
    def test_fetched_store_records_are_disk_hits(self, tmp_path):
        path = tmp_path / "store.sqlite"
        SqliteCostStore(path).put(_key(0), _record(0))

        cache = CostCache.open(path)
        assert cache.fetch_many([_key(0)]) == {_key(0)}
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
        # A second cache over the same store sees the entry at once --
        # that is what makes the store shareable.
        other = CostCache.open(path)
        assert other.fetch_many([_key(0)]) == {_key(0)}
        other.get_or_eval(_key(0), lambda: pytest.fail("written through"))
        assert other.stats.disk_hits == 1

    def test_cold_record_is_stored_before_it_is_held(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "store.sqlite"
        cache = CostCache.open(path)
        put = SqliteCostStore.put

        def observing_put(store, key, record):
            with pytest.raises(KeyError):
                cache.peek(key)  # not held until the put returns
            put(store, key, record)

        monkeypatch.setattr(SqliteCostStore, "put", observing_put)
        assert cache.get_or_eval(_key(0), lambda: _record(0)) == _record(0)
        assert SqliteCostStore(path).get(_key(0)) == _record(0)
        assert cache.peek(_key(0)) == _record(0)

    def test_failed_put_leaves_the_key_unheld(self, tmp_path, monkeypatch):
        path = tmp_path / "store.sqlite"
        cache = CostCache.open(path)
        put = SqliteCostStore.put

        def failing_put(store, key, record):
            raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(SqliteCostStore, "put", failing_put)
        with pytest.raises(sqlite3.OperationalError):
            cache.get_or_eval(_key(3), lambda: _record(3))
        assert cache.fetch_many([_key(3)]) == set()
        with pytest.raises(KeyError):
            cache.peek(_key(3))

        # The next lookup evaluates the key again and writes it.
        monkeypatch.setattr(SqliteCostStore, "put", put)
        evaluated = []
        record = cache.get_or_eval(
            _key(3), lambda: evaluated.append(_key(3)) or _record(3)
        )
        assert record == _record(3) and evaluated == [_key(3)]
        assert cache.stats.misses == 1
        assert SqliteCostStore(path).get(_key(3)) == _record(3)

    def test_get_or_eval_and_peek_make_no_store_read(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "store.sqlite"
        SqliteCostStore(path).put_many((_key(i), _record(i)) for i in range(2))
        cache = CostCache.open(path)
        cache.fetch_many([_key(0)])
        calls = _count_calls(
            monkeypatch, "get", "get_many", "__contains__", "__len__",
            "put", "put_many",
        )
        assert cache.get_or_eval(_key(0), lambda: pytest.fail("fetched")) == _record(0)
        assert cache.peek(_key(0)) == _record(0)
        # Stored but never fetched: peek does not read the store...
        with pytest.raises(KeyError):
            cache.peek(_key(1))
        assert calls == {}
        # ...and get_or_eval evaluates it again and writes it through.
        assert cache.get_or_eval(_key(1), lambda: _record(1)) == _record(1)
        assert calls == {"put": 1}
        assert cache.stats.disk_hits == 1 and cache.stats.misses == 1

    def test_contains_falls_through_to_store(self, tmp_path):
        path = tmp_path / "store.sqlite"
        SqliteCostStore(path).put(_key(0), _record(0))
        cache = CostCache.open(path)
        assert _key(0) in cache
        assert _key(99) not in cache
        assert cache.stats.lookups == 0

    def test_fetch_many_loads_store_hits_as_disk_entries(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "store.sqlite"
        SqliteCostStore(path).put_many((_key(i), _record(i)) for i in range(3))
        cache = CostCache.open(path)
        cache.get_or_eval(_key(5), lambda: _record(5))  # held in memory
        held = cache.fetch_many([_key(0), _key(2), _key(5), _key(9)])
        assert held == {_key(0), _key(2), _key(5)}
        assert cache.stats.lookups == 1  # the one cold evaluation
        calls = _count_calls(monkeypatch, "get", "__contains__")
        assert cache.get_or_eval(_key(0), lambda: pytest.fail("fetched")) == _record(0)
        assert calls == {} and cache.stats.disk_hits == 1

    def test_len_counts_the_store_without_probes(self, tmp_path, monkeypatch):
        path = tmp_path / "store.sqlite"
        SqliteCostStore(path).put_many((_key(i), _record(i)) for i in range(3))
        cache = CostCache.open(path)
        cache.fetch_many([_key(0)])  # fetched
        for i in range(2, 30):  # _key(2) is stored but was never fetched
            cache.get_or_eval(_key(i), lambda i=i: _record(i))
        probes = _count_calls(monkeypatch, "__contains__", "get", "__len__")
        # Every held record is in the store, once: len is its count.
        assert len(cache) == 30
        assert probes == {"__len__": 1}

    def test_len_probes_nothing_after_write_through_only(
        self, tmp_path, monkeypatch
    ):
        cache = CostCache.open(tmp_path / "store.sqlite")
        for i in range(20):
            cache.get_or_eval(_key(i), lambda i=i: _record(i))
        probes = _count_calls(monkeypatch, "__contains__")
        assert len(cache) == 20
        assert probes == {}


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

    def test_warm_rerun_makes_no_per_key_store_calls(
        self, tmp_path, monkeypatch, wl
    ):
        path = tmp_path / "store.sqlite"
        autotune(wl, cache=CostCache.open(path))
        cache = CostCache.open(path)
        calls = _count_calls(monkeypatch, "__contains__", "get", "get_many")
        warm = autotune(wl, cache=cache)
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


def _sweep_text(wl):
    """The workload text of ``wl``'s sweep at the HBM cap."""
    return _workload_text(workload_cache_key(wl), wl.cluster.node.gpu.hbm_bytes)


def _persist(wl, cache, path):
    """Write the records ``cache`` holds for ``wl``'s grid to a fresh store."""
    wtext = _sweep_text(wl)
    held = cache.fetch_many(_candidate_key(wtext, cand) for cand in grid_points(wl))
    SqliteCostStore(path).put_many((key, cache.peek(key)) for key in held)


class TestPersistedSweep:
    @pytest.fixture(scope="class")
    def wl(self):
        """The paper's 7B / H20 / p=8 / 64k acceptance workload."""
        return Workload.paper("7B", "H20", 8, 65536)

    @pytest.fixture(scope="class")
    def serial(self, wl):
        cache = CostCache()
        plans = autotune(wl, cache=cache)
        return plans, cache

    def test_second_sweep_from_disk_is_all_hits(self, wl, serial, tmp_path):
        serial_plans, serial_cache = serial
        path = tmp_path / "sweep.sqlite"
        _persist(wl, serial_cache, path)

        reloaded = CostCache.open(path)
        plans = autotune(wl, cache=reloaded)
        assert plans == serial_plans
        assert reloaded.stats.misses == 0, "persisted sweep must be fully warm"
        assert reloaded.stats.disk_hits == reloaded.stats.lookups

    def test_cold_sweep_stores_exactly_the_simulated_candidates(
        self, wl, serial, tmp_path
    ):
        """Each simulated candidate is written through under its own
        candidate key; pruned candidates leave nothing in the store."""
        serial_plans, _ = serial
        cache = CostCache.open(tmp_path / "sweep.sqlite")
        assert autotune(wl, cache=cache) == serial_plans
        wtext = _sweep_text(wl)
        simulated = {
            _candidate_key(wtext, r.candidate)
            for r in serial_plans
            if not (r.reason or "").startswith("pruned")
        }
        everything = [_candidate_key(wtext, cand) for cand in grid_points(wl)]
        store = SqliteCostStore(tmp_path / "sweep.sqlite")
        assert set(store.get_many(everything)) == simulated
        assert len(store) == cache.stats.misses == len(simulated)
        assert cache.stats.total_hits == 0

    def test_partly_persisted_sweep_evaluates_only_the_rest(
        self, wl, serial, tmp_path
    ):
        """A store holding half the sweep's records: the sweep reads
        those off the disk and evaluates exactly the other half."""
        serial_plans, serial_cache = serial
        wtext = _sweep_text(wl)
        simulated = [
            _candidate_key(wtext, r.candidate)
            for r in serial_plans
            if not (r.reason or "").startswith("pruned")
        ]
        kept = simulated[::2]
        path = tmp_path / "sweep.sqlite"
        SqliteCostStore(path).put_many((key, serial_cache.peek(key)) for key in kept)

        reloaded = CostCache.open(path)
        assert autotune(wl, cache=reloaded) == serial_plans
        assert reloaded.stats.disk_hits == len(kept)
        assert reloaded.stats.misses == len(simulated) - len(kept)
        assert len(reloaded) == len(simulated)

    def test_sweep_in_another_process_warms_this_one(self, wl, serial, tmp_path):
        """Processes share a store: candidate keys computed in a fresh
        interpreter (its own hash seed) are the keys this one reads."""
        serial_plans, _ = serial
        path = str(tmp_path / "shared.sqlite")
        proc = multiprocessing.get_context("spawn").Process(
            target=_sweeper, args=(path,)
        )
        proc.start()
        proc.join(timeout=120)
        assert proc.exitcode == 0

        reloaded = CostCache.open(path)
        assert autotune(wl, cache=reloaded) == serial_plans
        assert reloaded.stats.misses == 0
        assert reloaded.stats.disk_hits == reloaded.stats.lookups > 0


def _sweeper(path):
    """One sweeping process: a cold acceptance-grid sweep into ``path``."""
    cache = CostCache.open(path)
    autotune(Workload.paper("7B", "H20", 8, 65536), cache=cache)
    cache.close()


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
    def test_batched_reads_race_write_through(self, tmp_path, monkeypatch):
        """More threads than cores mix fetch_many, write-through and
        len; afterwards len counts every entry once without a probe."""
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
        probes = _count_calls(monkeypatch, "__contains__", "__len__")
        assert len(cache) == 200 + n_threads * rounds
        assert probes == {"__len__": 1}
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
