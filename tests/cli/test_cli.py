"""``python -m repro`` CLI: list/describe/build/simulate/tune smoke tests."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import _build_parser, main
from repro.schedules.registry import available_schedules


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestList:
    def test_lists_every_registered_schedule(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        for name in available_schedules():
            assert name in out

    def test_module_entry_point(self):
        """`python -m repro list` must keep working (CI runs it)."""
        # The subprocess needs the src layout on its path even when the
        # suite runs un-installed via pyproject's pythonpath setting.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "helix" in proc.stdout


    def test_bench_is_not_a_verb(self, capsys):
        """The in-process benchmark verb is gone; planbench measures the planner."""
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestDescribe:
    def test_describe_shows_schema_and_grid(self, capsys):
        code, out, _ = run(capsys, "describe", "helix", "-p", "8")
        assert code == 0
        assert "fold = 2" in out
        assert "fold in [1, 2]" in out
        assert "micro-batch divisor (p=8): 16" in out

    def test_unknown_schedule_fails_cleanly(self, capsys):
        code, _, err = run(capsys, "describe", "pipedream")
        assert code == 1
        assert "unknown schedule" in err

    def test_debug_flag_propagates_exceptions(self, capsys):
        with pytest.raises(KeyError, match="unknown schedule"):
            main(["--debug", "describe", "pipedream"])


class TestBuildSimulate:
    def test_build_reports_shape(self, capsys):
        code, out, _ = run(
            capsys, "build", "helix", "--model", "7B", "--gpu", "H20",
            "-p", "4", "--seq-len", "32k",
        )
        assert code == 0
        assert "p=4, m=8" in out
        assert "verification passes clean" in out

    def test_build_with_option_override(self, capsys):
        code, out, _ = run(
            capsys, "build", "helix", "-p", "4", "--seq-len", "32k",
            "-o", "fold=1",
        )
        assert code == 0
        assert "fold=1" in out

    def test_build_rounds_budget_with_option_overrides(self, capsys):
        """-o fold=4 raises the divisor past the default budget; the
        default budget must follow the override instead of failing."""
        code, out, _ = run(
            capsys, "build", "helix", "-p", "4", "--seq-len", "32k",
            "-o", "fold=4",
        )
        assert code == 0
        assert "m=16" in out  # fold * p, the minimum feasible count

    def test_unknown_schedule_error_is_unquoted(self, capsys):
        code, _, err = run(capsys, "build", "bogus", "-p", "4", "--seq-len", "32k")
        assert code == 1
        assert 'error: "' not in err

    def test_build_infeasible_shape_fails_cleanly(self, capsys):
        code, _, err = run(
            capsys, "build", "helix", "-p", "4", "--seq-len", "32k",
            "-m", "6",  # not a multiple of fold * p
        )
        assert code == 1
        assert "error:" in err

    def test_simulate_prints_metrics(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "zb1p", "-p", "4", "--seq-len", "32k",
        )
        assert code == 0
        assert "iteration time" in out
        assert "tokens/s" in out
        assert "peak memory" in out

    def test_seq_len_suffix_matches_plain(self, capsys):
        code_k, out_k, _ = run(capsys, "simulate", "1f1b", "-p", "4", "--seq-len", "32k")
        code_n, out_n, _ = run(capsys, "simulate", "1f1b", "-p", "4", "--seq-len", "32768")
        assert code_k == code_n == 0
        assert out_k == out_n


@pytest.mark.parametrize("argv,option", [
    (("lint", "-m", "0"), "-m/--num-micro-batches"),
    (("lint", "-m", "-2"), "-m/--num-micro-batches"),
    (("lint", "-p", "0"), "-p/--pipeline-size"),
    (("tune", "--smoke", "-p", "0"), "-p/--pipeline-size"),
    (("describe", "helix", "-p", "0"), "-p/--pipeline-size"),
    (("describe", "helix", "-p", "-2"), "-p/--pipeline-size"),
    (("build", "1f1b", "-p", "0"), "-p/--pipeline-size"),
    (("simulate", "1f1b", "-p", "0"), "-p/--pipeline-size"),
    (("tune", "--smoke", "--workers", "0"), "--workers"),
    (("tune", "--smoke", "--workers", "-5"), "--workers"),
    (("serve", "--workers", "0"), "--workers"),
    (("serve", "--workers", "-5"), "--workers"),
])
def test_sizes_and_counts_must_be_positive(capsys, argv, option):
    """A zero or negative size is a usage error, not an empty lint pass,
    a silent default or a late runtime failure.  Only parsed: a value
    the parser let through must not start a sweep, a pool or a server."""
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(list(argv))
    assert exc.value.code == 2
    assert f"error: argument {option}" in capsys.readouterr().err


class TestTune:
    def test_smoke_sweep(self, capsys):
        code, out, _ = run(capsys, "tune", "--smoke")
        assert code == 0
        assert "best plan:" in out
        assert "rank" in out and "tokens_per_s" in out

    def test_persistent_cache_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "cache.sqlite")
        code, out, _ = run(capsys, "tune", "--smoke", "--cache", path)
        assert code == 0
        assert "saved" in out
        code, out, _ = run(capsys, "tune", "--smoke", "--cache", path)
        assert code == 0
        assert "attached sqlite store" in out
        assert out.index("cache: attached") < out.index("workload:")
        assert "0 misses" in out, "second sweep must be fully warm"

    def test_cache_in_missing_directory_is_created(self, capsys, tmp_path):
        path = tmp_path / "new-dir" / "sweep.sqlite"
        code, out, _ = run(capsys, "tune", "--smoke", "--cache", str(path))
        assert code == 0
        assert f"cache: saved 1 entries to {path}" in out
        assert path.exists()

    def test_workers_flag(self, capsys):
        code, out, _ = run(capsys, "tune", "--smoke", "--workers", "2")
        assert code == 0
        assert "best plan:" in out

    def test_top_limits_table(self, capsys):
        code, out, _ = run(capsys, "tune", "--smoke", "--top", "1")
        assert code == 0
        assert "more row(s)" in out

    def test_impossible_cap_exits_nonzero(self, capsys):
        code, out, _ = run(
            capsys, "tune", "--smoke", "--memory-cap-gib", "0.001",
        )
        assert code == 1
        assert "no feasible plan" in out

    def test_zero_cap_is_a_real_cap(self, capsys):
        """--memory-cap-gib 0 must not fall back to the full HBM size."""
        code, out, _ = run(capsys, "tune", "--smoke", "--memory-cap-gib", "0")
        assert code == 1
        assert "no feasible plan" in out

    @pytest.mark.parametrize("argv,option", [
        (("tune", "--smoke", "--memory-cap-gib", "nan"), "--memory-cap-gib"),
        (("tune", "--smoke", "--memory-cap-gib", "inf"), "--memory-cap-gib"),
        (("tune", "--smoke", "--memory-cap-gib", "-1"), "--memory-cap-gib"),
        (("tune", "--smoke", "--memory-cap-gib", "1e300"), "--memory-cap-gib"),
        (("tune", "--smoke", "--top", "-1"), "--top"),
        (("tune", "--smoke", "--top", "0"), "--top"),
        (("tune", "--smoke", "--micro-batch", "0"), "--micro-batch"),
        (("tune", "--smoke", "-m", "0"), "-m/--num-micro-batches"),
        (("tune", "--smoke", "-m", "-4"), "-m/--num-micro-batches"),
    ])
    def test_values_the_plan_endpoint_rejects_are_usage_errors(
        self, capsys, argv, option
    ):
        """tune takes a cap and counts only as ``POST /v1/plan`` does."""
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert f"error: argument {option}: expected" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("tune", "--smoke", "-m", "257"),
        ("tune", "--smoke", "-p", "129"),
        ("build", "1f1b", "-p", "129"),
        ("simulate", "1f1b", "-m", "257"),
        # The default budget of 256 rounds up to helix's 4-fold divisor.
        ("build", "helix", "-p", "128", "-o", "fold=4"),
    ])
    def test_micro_batch_budget_above_the_cap_is_refused(self, capsys, argv):
        """-m, the 2 x p default or its rounding above MAX_MICRO_BATCHES
        builds and sweeps nothing."""
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert "error: micro-batch budget" in err
        assert "is above the maximum of 256" in err
        assert "workload:" not in out and "best plan" not in out

    @pytest.mark.parametrize("argv", [
        ("tune", "-p", "4", "--seq-len", str(10**400)),
        ("tune", "--smoke", "--seq-len", "16385k"),
        ("tune", "--smoke", "--seq-len", "8k", "--micro-batch", str(10**160)),
        ("build", "1f1b", "-p", "4", "--seq-len", str(10**400)),
        ("simulate", "1f1b", "-p", "4", "--seq-len", "16385k"),
    ])
    def test_micro_batch_above_the_token_cap_is_refused(self, capsys, argv):
        """A sequence past the cost model's float range used to end in
        an OverflowError traceback."""
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert "error: micro batch of sequence length" in err
        assert "is above the maximum of 16777216 tokens" in err
        assert "workload:" not in out and "best plan" not in out

    @pytest.mark.parametrize("argv", [
        ("--smoke", "-m", "257"),
        ("--smoke", "-m", "4", "--seq-lens", "16k,32k"),
        ("--smoke", "--schedules", "pipedream"),
        ("-p", "4", "--seq-len", str(10**400)),
    ])
    def test_refused_sweep_creates_no_store(self, capsys, tmp_path, argv):
        """The request is checked before --cache opens, and so creates,
        the store: a refused tune leaves no file and no directory."""
        store_dir = tmp_path / "new-dir"
        code, out, err = run(
            capsys, "tune", *argv, "--cache", str(store_dir / "new.sqlite")
        )
        assert code == 1
        assert "error:" in err
        assert "cache: attached" not in out
        assert not store_dir.exists()

    def test_mistyped_option_value_fails_cleanly(self, capsys):
        """-o max_outstanding=none parses as the string 'none'; the
        resulting builder TypeError must exit cleanly, not traceback."""
        code, _, err = run(
            capsys, "build", "zb1p", "-p", "4", "--seq-len", "32k",
            "-o", "max_outstanding=none",
        )
        assert code == 1
        assert "error:" in err


class TestTuneGrid:
    GRID = (
        "tune", "--model", "1.3B", "--budget-tokens", "512k",
        "--seq-lens", "16k,32k", "-p", "2", "--schedules", "1f1b,helix",
        "--no-options",
    )

    def test_grid_sweep_ranks_across_points(self, capsys):
        code, out, _ = run(capsys, *self.GRID)
        assert code == 0
        assert "workload grid:" in out
        assert "best plan:" in out
        assert "workload points" in out
        # Both sequence lengths appear in the ranked table.
        assert "16k" in out and "32k" in out

    def test_multiple_pipeline_sizes_trigger_grid_mode(self, capsys):
        code, out, _ = run(
            capsys, "tune", "--model", "1.3B", "--seq-len", "16k",
            "-p", "2,4", "--schedules", "1f1b", "--no-options",
        )
        assert code == 0
        assert "workload grid:" in out

    def test_single_point_keeps_classic_mode(self, capsys):
        code, out, _ = run(capsys, "tune", "--smoke")
        assert code == 0
        assert "workload grid:" not in out
        assert "workload:" in out

    def test_micro_batch_budget_flag_rejected_in_grid_mode(self, capsys):
        code, _, err = run(capsys, *self.GRID, "-m", "8")
        assert code == 1
        assert "incompatible with a workload grid" in err

    def test_grid_cache_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "grid-cache.sqlite")
        code, out, _ = run(capsys, *self.GRID, "--cache", path)
        assert code == 0
        assert "saved" in out
        code, out, _ = run(capsys, *self.GRID, "--cache", path)
        assert code == 0
        assert "0 misses" in out, "second grid sweep must be fully warm"


class TestExperiment:
    def test_list_names_every_registered_experiment(self, capsys):
        from repro.experiments.registry import available_experiments

        code, out, _ = run(capsys, "experiment", "list")
        assert code == 0
        for name in available_experiments():
            assert name in out

    def test_describe_shows_schema_and_smoke(self, capsys):
        code, out, _ = run(capsys, "experiment", "describe", "fig8_throughput")
        assert code == 0
        assert "pp_sizes = (2, 4, 8)" in out
        assert "smoke overrides" in out

    def test_run_prints_table(self, capsys):
        code, out, _ = run(capsys, "experiment", "run", "table2", "--smoke")
        assert code == 0
        assert "3 rows" in out
        assert "HelixPipe" in out

    def test_run_every_registered_experiment_smoke(self, capsys):
        """Acceptance: `experiment run <name>` works for every spec."""
        from repro.experiments.registry import available_experiments

        for name in available_experiments():
            code, out, _ = run(capsys, "experiment", "run", name, "--smoke")
            assert code == 0, name
            assert "rows" in out, name

    def test_run_json_is_parseable(self, capsys):
        import json

        code, out, _ = run(
            capsys, "experiment", "run", "table1", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["experiment"] == "table1"
        assert payload["rows"]

    def test_run_writes_artifacts(self, capsys, tmp_path):
        out_dir = str(tmp_path / "artifacts")
        code, out, _ = run(
            capsys, "experiment", "run", "fig8_throughput", "--smoke",
            "--json", "--csv", "--out", out_dir,
        )
        assert code == 0
        import json
        import os

        files = sorted(os.listdir(out_dir))
        assert files == ["fig8_throughput.csv", "fig8_throughput.json"]
        payload = json.loads(open(os.path.join(out_dir, files[1])).read())
        assert payload["params"]["models"] == ["1.3B"]
        csv_text = open(os.path.join(out_dir, files[0])).read()
        assert csv_text.splitlines()[0].startswith("model,gpu,seq_len")

    def test_bare_out_writes_both_artifacts(self, capsys, tmp_path):
        out_dir = str(tmp_path / "artifacts")
        code, _, _ = run(
            capsys, "experiment", "run", "table2", "--smoke", "--out", out_dir,
        )
        assert code == 0
        import os

        assert sorted(os.listdir(out_dir)) == ["table2.csv", "table2.json"]

    def test_csv_flag_restricts_out_artifacts(self, capsys, tmp_path):
        out_dir = str(tmp_path / "artifacts")
        code, _, _ = run(
            capsys, "experiment", "run", "table2", "--smoke", "--csv",
            "--out", out_dir,
        )
        assert code == 0
        import os

        assert os.listdir(out_dir) == ["table2.csv"]

    def test_json_and_csv_to_stdout_rejected(self, capsys):
        code, _, err = run(
            capsys, "experiment", "run", "table2", "--smoke", "--json", "--csv",
        )
        assert code == 1
        assert "--out" in err

    def test_render_rejected_alongside_stdout_payload(self, capsys):
        code, _, err = run(
            capsys, "experiment", "run", "fig2_fig7_schedules",
            "--json", "--render",
        )
        assert code == 1
        assert "corrupt" in err

    def test_param_override(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "run", "table2", "--smoke", "-P", "p=4",
        )
        assert code == 0

    def test_unknown_experiment_fails_cleanly(self, capsys):
        code, _, err = run(capsys, "experiment", "run", "fig99")
        assert code == 1
        assert "unknown experiment" in err

    def test_unknown_param_fails_cleanly(self, capsys):
        code, _, err = run(
            capsys, "experiment", "run", "table2", "-P", "banana=1",
        )
        assert code == 1
        assert "unknown parameter" in err

    def test_render_only_where_supported(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "run", "fig2_fig7_schedules", "--render",
        )
        assert code == 0
        assert "P0 |" in out
        code, _, err = run(capsys, "experiment", "run", "table1", "--render")
        assert code == 1
        assert "no renderer" in err


class TestExperimentDiff:
    def _artifact(self, tmp_path, name, perturb=None):
        from repro.experiments.registry import run_experiment

        result = run_experiment("table2", smoke=True)
        if perturb:
            import json

            payload = json.loads(result.to_json())
            perturb(payload)
            path = tmp_path / name
            path.write_text(json.dumps(payload))
            return str(path)
        path = tmp_path / name
        path.write_text(result.to_json())
        return str(path)

    def test_identical_artifacts_diff_clean(self, capsys, tmp_path):
        a = self._artifact(tmp_path, "a.json")
        b = self._artifact(tmp_path, "b.json")
        code, out, _ = run(capsys, "experiment", "diff", a, b)
        assert code == 0
        assert "no drift" in out

    def test_drift_exits_nonzero_and_names_cells(self, capsys, tmp_path):
        a = self._artifact(tmp_path, "a.json")

        def bump(payload):
            payload["rows"][0]["makespan"] *= 1.5

        b = self._artifact(tmp_path, "b.json", perturb=bump)
        code, out, _ = run(capsys, "experiment", "diff", a, b)
        assert code == 1
        assert "DRIFT" in out and "makespan" in out

    def test_tolerance_flags_absorb_drift(self, capsys, tmp_path):
        a = self._artifact(tmp_path, "a.json")

        def bump(payload):
            payload["rows"][0]["makespan"] *= 1.5

        b = self._artifact(tmp_path, "b.json", perturb=bump)
        code, out, _ = run(
            capsys, "experiment", "diff", a, b, "--rtol", "0.6",
        )
        assert code == 0

    def test_json_output_is_machine_readable(self, capsys, tmp_path):
        import json

        a = self._artifact(tmp_path, "a.json")
        code, out, _ = run(capsys, "experiment", "diff", a, a, "--json")
        assert code == 0
        assert json.loads(out)["clean"] is True

    def test_missing_file_fails_cleanly(self, capsys, tmp_path):
        a = self._artifact(tmp_path, "a.json")
        code, _, err = run(
            capsys, "experiment", "diff", a, str(tmp_path / "nope.json"),
        )
        assert code == 1
        assert "error" in err


class TestExperimentVerify:
    def test_update_then_verify_round_trip(self, capsys, tmp_path):
        golden = str(tmp_path / "golden")
        code, out, _ = run(
            capsys, "experiment", "verify", "--smoke", "--update",
            "--golden", golden, "--only", "table2,fig3_breakdown",
        )
        assert code == 0
        assert out.count("updated") == 2
        code, out, _ = run(
            capsys, "experiment", "verify", "--smoke",
            "--golden", golden, "--only", "table2,fig3_breakdown",
        )
        assert code == 0
        assert "2/2 experiment(s) clean" in out

    def test_drift_fails_with_report_file(self, capsys, tmp_path):
        import json

        golden = tmp_path / "golden"
        run(
            capsys, "experiment", "verify", "--smoke", "--update",
            "--golden", str(golden), "--only", "table2",
        )
        path = golden / "table2.json"
        payload = json.loads(path.read_text())
        payload["rows"][0]["makespan"] += 5.0
        path.write_text(json.dumps(payload))
        report = tmp_path / "report.txt"
        code, out, _ = run(
            capsys, "experiment", "verify", "--smoke",
            "--golden", str(golden), "--only", "table2",
            "--report", str(report),
        )
        assert code == 1
        assert "DRIFT" in out
        assert "makespan" in report.read_text()

    def test_missing_golden_dir_suggests_update(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "experiment", "verify", "--smoke",
            "--golden", str(tmp_path / "nowhere"),
        )
        assert code == 1
        assert "--update" in err

    def test_missing_default_golden_dir_points_at_repo_root(
        self, capsys, tmp_path, monkeypatch
    ):
        """From outside the repo the default dir is absent; the error
        must steer to the committed baselines, not to --update (which
        would create a stray tree that bypasses them)."""
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "experiment", "verify", "--smoke")
        assert code == 1
        assert "repository root" in err
        assert "--update" not in err

    def test_update_refused_outside_repo_root(
        self, capsys, tmp_path, monkeypatch
    ):
        """--update with the default golden dir from the wrong cwd must
        not create a stray tree that bypasses the committed baselines."""
        monkeypatch.chdir(tmp_path)
        code, _, err = run(
            capsys, "experiment", "verify", "--smoke", "--update",
        )
        assert code == 1
        assert "repository root" in err
        assert not (tmp_path / "tests").exists()

    def test_malformed_artifact_fails_cleanly(self, capsys, tmp_path):
        good = tmp_path / "good.json"
        from repro.experiments.registry import run_experiment

        good.write_text(run_experiment("table2", smoke=True).to_json())
        bad = tmp_path / "bad.json"
        bad.write_text('{"experiment": "table2", "rows": [1, 2]}')
        code, _, err = run(
            capsys, "experiment", "diff", str(good), str(bad),
        )
        assert code == 1
        assert "not an experiment artifact" in err

    def test_verify_against_committed_goldens(self, capsys):
        """The CLI default golden dir resolves relative to the repo
        root; run one cheap spec against the committed tree."""
        golden = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            "tests", "golden",
        )
        code, out, _ = run(
            capsys, "experiment", "verify", "--smoke",
            "--golden", golden, "--only", "table2",
        )
        assert code == 0
        assert "1/1 experiment(s) clean" in out


class TestLintCode:
    _REPO = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

    def test_default_sweep_is_clean_and_exits_zero(self, capsys, monkeypatch):
        monkeypatch.chdir(self._REPO)
        code, out, _ = run(capsys, "lint-code", "--strict")
        assert code == 0
        assert "0 error(s)" in out

    def test_list_passes(self, capsys):
        code, out, _ = run(capsys, "lint-code", "--list-passes")
        assert code == 0
        listed = [line.split()[0] for line in out.splitlines()[2:]]
        assert listed == [
            "guarded-by", "lock-order", "blocking-under-lock", "thread-hygiene",
        ]

    def test_violation_fails_with_json_report(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import threading\n"
            "\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._items = {}  # guarded-by: _lock\n"
            "\n"
            "    def add(self, k, v):\n"
            "        self._items[k] = v\n"
        )
        code, out, _ = run(
            capsys, "lint-code", "--paths", str(bad), "--json"
        )
        assert code == 1
        import json

        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["issues"][0]["pass"] == "guarded-by"

    def test_out_writes_report_file(self, capsys, tmp_path):
        target = tmp_path / "code-lint.json"
        code, _, _ = run(
            capsys, "lint-code",
            "--paths", os.path.join(self._REPO, "src", "repro", "service"),
            "--json", "--out", str(target),
        )
        assert code == 0
        import json

        assert json.loads(target.read_text())["ok"] is True

    def test_pass_subset_selection(self, capsys):
        code, out, _ = run(
            capsys, "lint-code",
            "--paths", os.path.join(self._REPO, "src", "repro", "tuner"),
            "--passes", "lock-order",
        )
        assert code == 0
        assert "lock-order" in out or "0 error(s)" in out

    def test_missing_path_fails_instead_of_linting_nothing(self, capsys, tmp_path):
        missing = str(tmp_path / "nonexistent")
        code, out, err = run(capsys, "lint-code", "--strict", "--paths", missing)
        assert code == 1
        assert err.startswith("error: ") and missing in err
        assert "0 file(s)" not in out

    def test_default_paths_outside_the_repo_root_fail(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "lint-code", "--strict")
        assert code == 1
        assert os.path.join(str(tmp_path), "src", "repro", "service") in err
        assert "0 file(s)" not in out

    def test_sweep_without_python_files_fails(self, capsys, tmp_path):
        (tmp_path / "notes.txt").write_text("no code here\n")
        code, _, err = run(capsys, "lint-code", "--paths", str(tmp_path))
        assert code == 1
        assert "no .py file" in err and str(tmp_path) in err
