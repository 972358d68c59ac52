"""The paired planbench gate's verdict, on synthetic run results."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_gate", ROOT / "scripts" / "bench_gate.py"
)
bench_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_gate)

SPEC = {
    "end_to_end": [
        {"name": "plans_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "plan_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    ]
}


def _result(correct=True, failed=0, **values):
    return {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": "-"} for k, v in values.items()},
    }


def _pairs(base, change):
    """Five pairs from per-metric value lists ``{name: [v1, ..., v5]}``."""
    return [
        (_result(**{k: v[i] for k, v in base.items()}),
         _result(**{k: v[i] for k, v in change.items()}))
        for i in range(5)
    ]


STEADY = {"plans_per_s": [100.0] * 5, "plan_ms_p50": [10.0] * 5}


def _verdict(runs):
    return bench_gate.verdict(SPEC, runs)[1]


def test_identical_sides_pass():
    table, failures = bench_gate.verdict(SPEC, {"cold-plan": _pairs(STEADY, STEADY)})
    assert failures == []
    assert len(table) == 2


@pytest.mark.parametrize(
    "name, values",
    [
        ("plans_per_s", [70.0] * 5),  # higher is better: 30% fewer
        ("plan_ms_p50", [13.0] * 5),  # lower is better: 30% slower
    ],
)
def test_worse_than_bound_and_losing_most_pairs_fails(name, values):
    failures = _verdict({"warm-serve": _pairs(STEADY, dict(STEADY, **{name: values}))})
    assert len(failures) == 1
    assert "warm-serve" in failures[0] and name in failures[0]


@pytest.mark.parametrize(
    "name, values",
    [("plans_per_s", [130.0] * 5), ("plan_ms_p50", [7.0] * 5)],
)
def test_improvements_pass_in_both_directions(name, values):
    assert _verdict({"cold-plan": _pairs(STEADY, dict(STEADY, **{name: values}))}) == []


def test_worse_within_bound_passes():
    slower = dict(STEADY, plan_ms_p50=[12.0] * 5)  # 20% < 25%
    assert _verdict({"cold-plan": _pairs(STEADY, slower)}) == []


def test_worse_median_that_wins_most_pairs_passes():
    # The host slowed down during pair 3: the change's median is 50%
    # worse, but it beat the base in four of the five pairs.
    base = dict(STEADY, plan_ms_p50=[1.0, 1.0, 100.0, 200.0, 200.0])
    change = dict(STEADY, plan_ms_p50=[0.5, 0.5, 150.0, 150.0, 150.0])
    table, failures = bench_gate.verdict(SPEC, {"cold-plan": _pairs(base, change)})
    assert failures == []
    assert any("plan_ms_p50" in line and "+50.0%" in line and "lost 1/5" in line
               for line in table)


@pytest.mark.parametrize(
    "bad",
    [
        {"correct": False},
        {"failed": 2},
        {"correct": False, "failed": None, "metrics": {}, "error": "exit 1: boom"},
    ],
)
def test_incorrect_or_failed_change_run_fails(bad):
    runs = _pairs(STEADY, STEADY)
    base, change = runs[2]
    runs[2] = (base, dict(change, **bad))
    failures = _verdict({"sweep-and-serve": runs})
    assert any("sweep-and-serve: change run 3" in f for f in failures)


def test_incorrect_base_run_does_not_fail_the_change():
    runs = _pairs(STEADY, STEADY)
    base, change = runs[0]
    runs[0] = (dict(base, correct=False, failed=3), change)
    assert _verdict({"cold-plan": runs}) == []


def test_worse_by_is_signed_by_direction():
    assert bench_gate.worse_by(100.0, 80.0, "higher") == pytest.approx(0.2)
    assert bench_gate.worse_by(100.0, 80.0, "lower") == pytest.approx(-0.2)
    assert bench_gate.worse_by(0.0, 0.0, "lower") == 0.0
    assert bench_gate.worse_by(0.0, 1.0, "lower") == float("inf")


def test_benchmark_json_carries_what_the_gate_reads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]]
    for metric in spec["end_to_end"]:
        assert metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] < 1


def test_metric_no_pair_measured_fails():
    runs = [(_result(), _result()) for _ in range(5)]  # no metrics at all
    failures = _verdict({"cold-plan": runs})
    assert any("cold-plan plans_per_s: no pair measured it" in f for f in failures)
    assert any("cold-plan plan_ms_p50: no pair measured it" in f for f in failures)


def _copy_benchmark(dest):
    for rel, data in bench_gate.benchmark_files(ROOT).items():
        (dest / rel).parent.mkdir(parents=True, exist_ok=True)
        (dest / rel).write_bytes(data)


def _fake_runs(monkeypatch, slower_change=1.0):
    """Replace planbench runs with synthetic results; return the call log."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    calls = []

    def run_once(root, workload, seed):
        calls.append((root, workload, seed))
        scale = slower_change if root == bench_gate.ROOT else 1.0
        values = {
            m["name"]: 10.0 * (scale if m["better"] == "lower" else 1.0 / scale)
            for m in spec["end_to_end"]
        }
        return _result(**values)

    monkeypatch.setattr(bench_gate, "run_once", run_once)
    return spec, calls


def test_main_refuses_a_base_without_the_same_benchmark(tmp_path, monkeypatch, capsys):
    _, calls = _fake_runs(monkeypatch)
    assert bench_gate.main([str(tmp_path)]) == 2
    assert calls == []
    assert "does not hold this checkout's planbench/" in capsys.readouterr().err


def test_main_alternates_sides_and_shares_seeds(tmp_path, monkeypatch, capsys):
    _copy_benchmark(tmp_path)
    spec, calls = _fake_runs(monkeypatch)
    assert bench_gate.main([str(tmp_path)]) == 0
    assert "bench_gate: passed" in capsys.readouterr().out
    base, change = tmp_path.resolve(), bench_gate.ROOT
    expected = []
    for workload in (w["name"] for w in spec["workloads"]):
        for i in range(bench_gate.PAIRS):
            first, second = (base, change) if i % 2 == 0 else (change, base)
            expected += [(first, workload, i + 1), (second, workload, i + 1)]
    assert calls == expected


def test_main_exits_1_when_the_change_regresses(tmp_path, monkeypatch, capsys):
    _copy_benchmark(tmp_path)
    spec, _ = _fake_runs(monkeypatch, slower_change=2.0)
    assert bench_gate.main([str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "bench_gate: FAILED" in out
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            assert f"FAIL {workload} {metric['name']}: median" in out
