"""repro.query: the one request parser behind tune, /v1/plan and /v1/sweep."""

import re
from typing import NamedTuple

import pytest

from repro.cli import main
from repro.query import TUNE_GRID_FIELDS, parse_sweep_request
from repro.service import PlannerService
from repro.workloads import WorkloadGrid


class Row(NamedTuple):
    """One bad input as each front end takes it (None where a front end
    has no such field), tune's exit code (2 for a malformed flag, 1 for
    a refused request) and the one message every front end gives."""

    id: str
    plan: dict | None
    sweep: dict
    tune: list[str]
    exit_code: int
    message: str


_HUGE = 10**30
ROWS = [
    Row(
        "micro_batch",
        {"micro_batch": _HUGE},
        {"micro_batch": _HUGE},
        ["--micro-batch", str(_HUGE)],
        1,
        f"micro batch of sequence length 65536 x micro-batch size {_HUGE} "
        "is above the maximum of 16777216 tokens",
    ),
    Row(
        "pipeline_size",
        {"p": 10**9},
        {"pipeline_sizes": [10**9]},
        ["-p", str(10**9)],
        1,
        "micro-batch budget 2000000000 is above the maximum of 256",
    ),
    Row(
        "seq_len",
        {"seq_len": _HUGE},
        {"seq_lens": [_HUGE]},
        ["--seq-len", str(_HUGE)],
        1,
        f"micro batch of sequence length {_HUGE} x micro-batch size 1 "
        "is above the maximum of 16777216 tokens",
    ),
    Row(
        "budget_tokens",
        None,
        {"budget_tokens": 1, "pipeline_sizes": [4]},
        ["--budget-tokens", "1", "-p", "4"],
        1,
        "token budget 1 < one micro batch of 65536 tokens",
    ),
    Row(
        "schedules-comma",
        {"schedules": ","},
        {"schedules": ","},
        ["--schedules", ","],
        1,
        "'schedules' must be a non-empty list of names, got ','",
    ),
    Row(
        "schedules-empty",
        {"schedules": ""},
        {"schedules": ""},
        ["--smoke", "--schedules", ""],
        1,
        "'schedules' must be a non-empty list of names, got ''",
    ),
    Row(
        "schedules-repeated",
        {"schedules": ["1f1b", "1f1b"]},
        {"schedules": ["1f1b", "1f1b"]},
        ["--schedules", "1f1b,1f1b"],
        1,
        "'schedules' lists '1f1b' twice",
    ),
    Row(
        "pipeline_sizes-repeated",
        None,
        {"pipeline_sizes": [2, 2]},
        ["-p", "2,2"],
        2,
        "'pipeline_sizes' lists 2 twice",
    ),
]


def _refusal(front_end: str, row: Row, tmp_path, capsys) -> str:
    """Send ``row`` to ``front_end``; the message it refuses with."""
    if front_end == "tune":
        store_dir = tmp_path / "new-dir"
        try:
            code = main(["tune", *row.tune, "--cache", str(store_dir / "s.sqlite")])
        except SystemExit as exc:
            code = exc.code
        assert code == row.exit_code
        assert not store_dir.exists()
        err = capsys.readouterr().err.strip().splitlines()
        # Drop "error:" and, for a malformed flag, argparse's usage lines
        # and "argument X:".
        return re.sub(r"^.*?error: (argument \S+: )?", "", err[-1])
    service = PlannerService()
    with pytest.raises(ValueError) as refused:
        if front_end == "plan":
            service.plan(row.plan)
        else:
            service.start_sweep(row.sweep)
    assert service.sweeps() == []
    assert service.telemetry.as_dict()["plans"] == 0
    return str(refused.value)


@pytest.mark.parametrize("row,front_end", [
    pytest.param(row, front_end, id=f"{row.id}-{front_end}")
    for row in ROWS
    for front_end in ("plan", "sweep", "tune")
    if front_end != "plan" or row.plan is not None
])
def test_the_front_ends_refuse_alike(capsys, tmp_path, row, front_end):
    assert _refusal(front_end, row, tmp_path, capsys) == row.message


class TestSweepQuery:
    def test_defaults_are_the_plan_defaults(self):
        assert parse_sweep_request({}).grid == WorkloadGrid(
            model="7B", gpu="H20", seq_lens=(65536,), pipeline_sizes=(8,),
            micro_batch=1, budget_tokens=None,
        )

    def test_tune_grid_takes_the_plan_cap_and_pruning(self):
        sweep = parse_sweep_request(
            {"memory_cap_gib": 1, "prune": False}, TUNE_GRID_FIELDS
        )
        assert (sweep.memory_cap_bytes(), sweep.prune) == (float(1 << 30), False)
        assert parse_sweep_request({}).memory_cap_bytes() is None
        with pytest.raises(ValueError, match="unknown sweep request field"):
            parse_sweep_request({"memory_cap_gib": 1})

    def test_a_grid_with_a_feasible_point_keeps_its_infeasible_rows(self):
        sweep = parse_sweep_request(
            {"seq_lens": ["8k", 10**30], "pipeline_sizes": [2, 200]}
        )
        reasons = [point.reason for point in sweep.grid.points()]
        assert reasons[0] is None
        assert "micro-batch budget 400" in reasons[1]
        assert all("16777216 tokens" in r for r in reasons[2:])

    @pytest.mark.parametrize("feasible", [True, False])
    def test_a_grid_is_checked_axis_by_axis(self, monkeypatch, feasible):
        """9 million points are judged without enumerating them."""
        enumerated = []
        iter_points = WorkloadGrid.iter_points

        def counting(grid):
            for point in iter_points(grid):
                enumerated.append(point)
                yield point

        monkeypatch.setattr(WorkloadGrid, "iter_points", counting)
        # Every pipeline size but the last is above the 2p budget cap.
        sizes = list(range(129, 3128)) + ([8] if feasible else [3128])
        body = {"seq_lens": list(range(1, 3001)), "pipeline_sizes": sizes}
        if feasible:
            assert len(parse_sweep_request(body).grid) == 9_000_000
            assert enumerated == []
        else:
            with pytest.raises(ValueError, match="micro-batch budget 258"):
                parse_sweep_request(body)
            assert len(enumerated) == 1
