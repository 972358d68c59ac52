"""``repro cache info``, ``tune --cache`` and ``repro serve`` over sqlite stores."""

import json
import re
import sqlite3

import pytest

from repro.cli import main
from repro.costmodel.memory import RecomputeStrategy
from repro.tuner import SqliteCostStore, costmodel_fingerprint
from repro.tuner.autotune import Candidate, _candidate_key, _workload_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _seed(path, n=3):
    store = SqliteCostStore(path)
    wtext = _workload_text(("model", "7B"), 1.0)
    store.put_many(
        (_candidate_key(wtext, Candidate("helix", RecomputeStrategy.NONE, i)),
         {"error": None, "makespan": float(i),
          "peak_memory_bytes": 2.0 * i, "bubble_fraction": 0.1})
        for i in range(n)
    )
    store.close()


def _json_cache(path):
    """A JSON cost cache as earlier versions wrote it."""
    path.write_text(json.dumps({
        "format": "repro-costcache",
        "version": 1,
        "costmodel": costmodel_fingerprint(),
        "entries": [[[["model", "7B"], 1.0, "helix", "none", 0, []],
                     {"error": None, "makespan": 0.0}]],
    }))
    return path.read_bytes()


class TestCacheInfo:
    def test_sqlite_store(self, capsys, tmp_path):
        path = tmp_path / "plans.sqlite"
        _seed(path)
        code, out, _ = run(capsys, "cache", "info", str(path))
        assert code == 0
        assert "backend:     sqlite" in out and "entries:     3" in out
        assert "fingerprint: current" in out

    def test_stale_store_exits_nonzero(self, capsys, tmp_path):
        path = tmp_path / "plans.sqlite"
        _seed(path)
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value='0123456789abcdef' WHERE key='costmodel'"
        )
        conn.commit()
        conn.close()
        # Info is read-only: it reports staleness without the
        # clear-and-restamp that opening the store would perform.
        code, out, _ = run(capsys, "cache", "info", str(path))
        assert code == 1
        assert "STALE" in out
        conn = sqlite3.connect(path)
        assert conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0] == 3
        conn.close()

    def test_missing_store_is_a_clean_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "cache", "info", str(tmp_path / "no.sqlite"))
        assert code == 1
        assert "error:" in err

    def test_json_file_is_refused(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        before = _json_cache(path)
        code, _, err = run(capsys, "cache", "info", str(path))
        assert code == 1
        assert "not a sqlite cost cache store" in err
        assert path.read_bytes() == before


class TestTuneCache:
    def test_sqlite_cache_round_trip_serves_warm(self, capsys, tmp_path):
        path = str(tmp_path / "sweep.sqlite")
        code, out, _ = run(capsys, "tune", "--smoke", "--cache", path)
        assert code == 0
        assert f"cache: attached sqlite store {path} (0 entries)" in out

        code, out, _ = run(capsys, "tune", "--smoke", "--cache", path)
        assert code == 0
        # The warm sweep re-evaluates nothing: all disk hits, no misses.
        assert "/ 0 misses" in out
        assert "from disk" in out

    def test_saved_count_is_what_cache_info_counts(self, capsys, tmp_path):
        """Evaluations are written through: no save at exit adds rows."""
        path = str(tmp_path / "sweep.sqlite")
        code, out, _ = run(capsys, "tune", "--smoke", "--cache", path)
        assert code == 0
        (saved,) = re.findall(r"^cache: saved (\d+) entries to ", out, re.M)
        assert int(saved) > 0
        code, out, _ = run(capsys, "cache", "info", path)
        assert code == 0 and f"entries:     {saved}\n" in out

    def test_any_suffix_is_a_sqlite_store(self, capsys, tmp_path):
        path = str(tmp_path / "sweep.cache")
        code, out, _ = run(capsys, "tune", "--smoke", "--cache", path)
        assert code == 0
        assert "attached sqlite store" in out


@pytest.mark.parametrize("verb", [
    ("tune", "--smoke"),
    ("serve", "--port", "0"),
])
def test_json_cache_is_refused_and_left_untouched(capsys, tmp_path, verb):
    """A JSON cache is refused before any sweep or bind, byte for byte."""
    path = tmp_path / "sweep.json"
    before = _json_cache(path)
    code, out, err = run(capsys, *verb, "--cache", str(path))
    assert code == 1
    assert f"error: {str(path)!r} is not a sqlite cost cache store" in err
    assert "backend" not in err
    assert "listening" not in out
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.json"]


@pytest.mark.parametrize("argv", [
    ("tune", "--smoke", "--backend", "json"),
    ("serve", "--backend", "sqlite"),
    ("cache", "info", "plans.sqlite", "--backend", "sqlite"),
    ("cache", "migrate", "sweep.json", "plans.sqlite"),
])
def test_backend_options_and_migrate_are_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


class TestServeParser:
    def test_serve_is_registered_with_defaults(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["serve"])
        assert args.fn.__name__ == "_cmd_serve"
        assert (args.host, args.port) == ("127.0.0.1", 8642)
        assert args.cache is None

    def test_serve_flags_parse(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(
            ["serve", "--host", "0.0.0.0", "--port", "0",
             "--cache", "plans.sqlite"]
        )
        assert (args.host, args.port, args.cache) == ("0.0.0.0", 0, "plans.sqlite")
