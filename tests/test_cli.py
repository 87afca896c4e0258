import csv
import dataclasses
import json
import os
import re
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from poolsim import cli, engine
from poolsim.cli import (
    ConfigError,
    ExperimentSpec,
    build_parser,
    main,
    parse_config,
    run_experiment,
)
from poolsim.classify import ratio_floats
from poolsim.metrics import WorkerDied, replication_seed, run_grid
from poolsim.pipeline import simulate_rounds

GOLDEN_COLUMNS_M2 = [
    "alphaH", "alphaList", "gamma", "rounds", "replication", "seed",
    "pH", "p1", "p2", "cQ", "rM", "rO", "rU", "rS",
    "growthDirect", "growthDecomp",
    "rewardRateH_direct", "rewardRateH_decomp",
    "rewardRate1_direct", "rewardRate1_decomp",
    "rewardRate2_direct", "rewardRate2_decomp",
]


def read_summary(out_dir, drop_wall_clock=True):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        data = json.load(fh)
    if drop_wall_clock:
        data.pop("wall_clock_seconds", None)
    return data


class TestParseConfig:
    def test_valid_three_pool_setup(self):
        spec = parse_config(overrides={"alphas": [0.6, 0.3, 0.1], "gamma": 10.0})
        assert spec.alphas == (0.6, 0.3, 0.1)
        assert spec.mode == "single" and spec.gamma == 10.0

    def test_valid_majority_honest_setup(self):
        spec = parse_config(overrides={"alphas": [0.7, 0.2, 0.1]})
        assert spec.alphas == (0.7, 0.2, 0.1)

    def test_alpha_sum_above_one_rejected(self):
        with pytest.raises(ConfigError, match="alphas"):
            parse_config(overrides={"alphas": [0.8, 0.3, 0.1]})

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError, match=r"alphas\[1\]"):
            parse_config(overrides={"alphas": [0.8, -0.1, 0.1]})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(overrides={"alphas": [0.6, 0.4], "turbo": True})

    def test_grid_leaving_negative_power_rejected(self):
        with pytest.raises(ConfigError, match="grid"):
            parse_config(overrides={"alphas": [0.6, 0.3, 0.1], "mode": "sweep", "grid": [0.95]})

    def test_missing_alphas_rejected(self):
        with pytest.raises(ConfigError, match="alphas"):
            parse_config(overrides={"mode": "single"})

    def test_file_plus_override(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"alphas": [0.6, 0.4], "rounds": 500, "seed": 9}))
        spec = parse_config(str(path), overrides={"rounds": 750})
        assert spec.rounds == 750 and spec.seed == 9

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/config.json")

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{alphas: nope")
        with pytest.raises(ConfigError, match="JSON"):
            parse_config(str(path))

    def test_json_array_file_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[0.6, 0.4]")
        with pytest.raises(ConfigError, match="must hold a JSON object"):
            parse_config(str(path))

    # The pool count is SimConfig's rule; the CLI checks only that alphas is a list.
    @pytest.mark.parametrize("alphas,message", [
        ([0.9], "alphas: need the honest pool plus at least one dishonest pool"),
        (0.5, "alphas: expected a list of pool powers, honest pool first"),
    ], ids=["one-pool", "scalar"])
    def test_alphas_must_list_two_pools(self, alphas, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(overrides={"alphas": alphas})

    @pytest.mark.parametrize("key,value,message", [
        ("mode", "fast", "mode: expected one of"),
        ("emit_rounds", "yes", "emit_rounds: expected a boolean, got 'yes'"),
        ("out_dir", "", "out_dir: expected a non-empty string, got ''"),
    ])
    def test_bad_run_field_rejected(self, key, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            parse_config(overrides={"alphas": [0.6, 0.4], key: value})

    def test_sweep_mode_gets_default_grid(self):
        spec = parse_config(overrides={"alphas": [0.6, 0.27, 0.13], "mode": "sweep"})
        assert spec.grid == (0.55, 0.60, 0.65, 0.70, 0.75, 0.80)

    @pytest.mark.parametrize(
        "grid", [["x"], 0.5, [0.5, None], "0.5", [True, 0.6]],
        ids=["string-point", "scalar", "null-point", "string", "bool-point"],
    )
    def test_malformed_grid_in_config_file(self, tmp_path, capsys, grid):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"alphas": [0.6, 0.3, 0.1], "mode": "sweep", "grid": grid}))
        with pytest.raises(ConfigError, match="grid"):
            parse_config(str(path))
        assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "config error: grid" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["0.4", False, None])
    def test_non_numeric_alpha_rejected(self, alpha):
        with pytest.raises(ConfigError, match=r"alphas\[1\]: expected a number"):
            parse_config(overrides={"alphas": [0.6, alpha]})

    @pytest.mark.parametrize("key", ["gamma", "mean_block_time"])
    def test_non_numeric_rate_rejected(self, key):
        # Both fields take any number, so the message must not say "expected int".
        with pytest.raises(ConfigError, match=f"^{key}: expected a number, got 'fast'$"):
            parse_config(overrides={"alphas": [0.6, 0.4], key: "fast"})

    def test_every_flag_is_a_spec_field(self):
        flags = set(vars(build_parser().parse_args([]))) - {"config"}
        assert flags == {f.name for f in dataclasses.fields(ExperimentSpec)}

    def test_bool_not_accepted_as_int(self):
        with pytest.raises(ConfigError, match="rounds"):
            parse_config(overrides={"alphas": [0.6, 0.4], "rounds": True})


class TestRunExperiment:
    def spec(self, tmp_path, **kwargs):
        defaults = dict(
            mode="single",
            alphas=(0.6, 0.3, 0.1),
            rounds=400,
            replications=2,
            seed=77,
            workers=1,
            out_dir=str(tmp_path / "out"),
        )
        defaults.update(kwargs)
        return ExperimentSpec(**defaults)

    def test_single_mode_writes_outputs(self, tmp_path):
        spec = self.spec(tmp_path)
        assert run_experiment(spec) == 0
        out = spec.out_dir
        assert os.path.exists(os.path.join(out, "summary.json"))
        with open(os.path.join(out, "gridpoint.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == GOLDEN_COLUMNS_M2
        assert len(rows) == 1 + 2  # header + one row per replication

    def test_summary_structure(self, tmp_path):
        spec = self.spec(tmp_path)
        run_experiment(spec)
        data = read_summary(spec.out_dir)
        assert data["schema"] == "poolsim-summary-v1"
        assert data["mode"] == "single"
        assert len(data["grid"]) == 1
        merged = data["grid"][0]["merged"]
        assert merged["rounds"] == 800
        assert len(merged["win_fraction"]) == 3
        assert data["threshold"] is None

    def test_sweep_row_accounting(self, tmp_path):
        spec = self.spec(tmp_path, mode="sweep", grid=(0.55, 0.65, 0.75), replications=2, rounds=200)
        assert run_experiment(spec) == 0
        with open(os.path.join(spec.out_dir, "gridpoint.csv")) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 3 * 2

    def test_threshold_mode_emits_crossing(self, tmp_path):
        spec = self.spec(
            tmp_path, mode="threshold", grid=(0.42, 0.50, 0.58), replications=3, rounds=800
        )
        assert run_experiment(spec) == 0
        data = read_summary(spec.out_dir)
        assert data["threshold"] is not None
        assert 0.42 < data["threshold"]["alpha_star"] < 0.58
        lo, hi = data["threshold"]["ci95"]
        assert lo < hi
        with open(os.path.join(spec.out_dir, "gridpoint.csv")) as fh:
            header = next(csv.reader(fh))
        assert header == GOLDEN_COLUMNS_M2 + ["alphaStar", "alphaStarLo95", "alphaStarHi95"]

    def test_threshold_with_one_crossing_reports_no_interval(self, tmp_path):
        # An interval needs two crossings; one replication gives one.
        spec = self.spec(
            tmp_path, mode="threshold", grid=(0.4, 0.5, 0.6, 0.7, 0.8), replications=1, rounds=2000, seed=1
        )
        assert run_experiment(spec) == 0
        threshold = read_summary(spec.out_dir)["threshold"]
        assert len(threshold["crossings"]) == 1 and threshold["ci95"] is None
        with open(os.path.join(spec.out_dir, "gridpoint.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(row["alphaStarLo95"] == row["alphaStarHi95"] == "" for row in rows)

    def test_threshold_without_crossing_fails_cleanly(self, tmp_path):
        spec = self.spec(
            tmp_path, mode="threshold", grid=(0.70, 0.80), replications=2, rounds=200
        )
        assert run_experiment(spec) == 3

    def test_emit_rounds_trace(self, tmp_path):
        spec = self.spec(tmp_path, emit_rounds=True, rounds=50, replications=2)
        assert run_experiment(spec) == 0
        with open(os.path.join(spec.out_dir, "rounds.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:5] == ["gridIndex", "alphaH", "replication", "round", "winner"]
        assert len(rows) == 1 + 50  # replication 0 only

    def test_trace_cap_splits_over_the_grid(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_TRACE_ROWS", 60)
        spec = self.spec(tmp_path, mode="sweep", grid=(0.55, 0.6, 0.65), emit_rounds=True, rounds=100)
        assert run_experiment(spec) == 0
        with open(os.path.join(spec.out_dir, "rounds.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["gridIndex"] for row in rows] == ["0"] * 20 + ["1"] * 20 + ["2"] * 20
        assert [row["round"] for row in rows] == [str(k) for k in range(1, 21)] * 3

    def test_trace_rows_equal_the_record_values(self, tmp_path, monkeypatch):
        # Five pools at lead threshold 3 cross a lane block; the cap falls inside the second block.
        monkeypatch.setattr(cli, "MAX_TRACE_ROWS", engine.BLOCK_ROUNDS + 2000)
        spec = self.spec(tmp_path, alphas=(0.4, 0.2, 0.15, 0.15, 0.1), lead_threshold=3, rounds=40_000,
                         replications=1, emit_rounds=True)
        assert run_experiment(spec) == 0
        with open(os.path.join(spec.out_dir, "rounds.csv")) as fh:
            rows = list(csv.reader(fh))[1:]
        _, records = simulate_rounds(spec.base_config(), 40_000, seed=replication_seed(77, 0, 0), collect=True)
        assert len(rows) == engine.BLOCK_ROUNDS + 2000 < len(records)
        for row, rec in zip(rows, records):
            out = rec.outcome
            assert row[:4] == ["0", "0.4", "0", str(rec.index)]
            assert row[4:10] == [str(out.winner), str(out.length[0]), str(out.released), str(out.reserved),
                                 repr(rec.duration), str(rec.classification.uncle_count)]
            assert row[10:15] == [repr(x) for x in ratio_floats(*rec.ratios)]
            assert row[15:] == [repr(p.total_units / 32) for p in rec.rewards.per_pool]

    def test_deterministic_across_worker_counts(self, tmp_path):
        spec1 = self.spec(tmp_path, out_dir=str(tmp_path / "w1"), workers=1, emit_rounds=True,
                          mode="sweep", grid=(0.55, 0.65), rounds=300, replications=2)
        spec2 = self.spec(tmp_path, out_dir=str(tmp_path / "w2"), workers=2, emit_rounds=True,
                          mode="sweep", grid=(0.55, 0.65), rounds=300, replications=2)
        assert run_experiment(spec1) == 0
        assert run_experiment(spec2) == 0
        assert read_summary(spec1.out_dir) == read_summary(spec2.out_dir)
        for name in ("gridpoint.csv", "rounds.csv"):
            assert (tmp_path / "w1" / name).read_text() == (tmp_path / "w2" / name).read_text()

    def test_seed_column_reproduces_its_row(self, tmp_path):
        # Grid point g, replication r runs on SeedSequence(seed, spawn_key=(g, r));
        # the seed column is that sequence's first 64-bit state word.
        spec = self.spec(tmp_path, mode="sweep", grid=(0.55, 0.65), rounds=300, replications=2, workers=2)
        assert run_experiment(spec) == 0
        with open(os.path.join(spec.out_dir, "gridpoint.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for k, row in enumerate(rows):
            g, r = divmod(k, 2)
            assert int(row["replication"]) == r
            seed = np.random.SeedSequence(77, spawn_key=(g, r))
            assert int(row["seed"]) == seed.generate_state(1, np.uint64)[0]
            bank, _ = simulate_rounds(spec.point_configs()[g], 300, seed=seed)
            assert [row["pH"], row["p1"], row["p2"]] == [repr(p) for p in bank.win_fractions()]

    def test_grid_float_dust_clamped_to_zero(self, tmp_path):
        # 1 - 0.8 - 0.2 leaves pool 1 with -5.55e-17; it runs with power 0.
        spec = self.spec(tmp_path, mode="sweep", alphas=(0.5, 0.3, 0.2), grid=(0.5, 0.8),
                         rounds=50, replications=1)
        assert run_experiment(spec) == 0
        data = read_summary(spec.out_dir)
        assert data["grid"][1]["alphas"] == [0.8, 0.0, 0.2]

    def test_rejected_point_config_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        # Every per-point config is built before any replication runs.
        def no_replications(*args, **kwargs):
            raise AssertionError("replications started")

        monkeypatch.setattr(cli, "_run_replications", no_replications)
        spec = self.spec(tmp_path, alphas=(0.0, 0.0))
        assert run_experiment(spec) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("replications", 0), ("rounds", 0), ("seed", -1), ("workers", 0),
    ])
    def test_run_bounds_hold_for_a_directly_built_spec(self, tmp_path, capsys, field, value):
        # A spec built directly skips parse_config. Unchecked, replications=0
        # fails in reduce() of an empty list and rounds=0 in the pipeline,
        # each as exit 3 with a traceback.
        spec = self.spec(tmp_path, alphas=(0.6, 0.4), **{field: value})
        assert run_experiment(spec) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {field}: must be >=") and "Traceback" not in err, err
        assert not os.path.exists(spec.out_dir)

    def test_release_min_is_a_config_error_for_a_directly_built_spec(self, tmp_path, capsys):
        spec = self.spec(tmp_path, release_policy="release-min")
        assert run_experiment(spec) == 2
        assert capsys.readouterr().err.startswith("config error: release_policy: CLI runs are eager")
        assert not os.path.exists(spec.out_dir)

    @pytest.mark.parametrize("error", [
        ValueError("bad draw"), BrokenProcessPool("worker died"),
        WorkerDied("run_grid worker 1 ended without a result (exit status 3)"),
    ])
    def test_failure_after_start_is_a_runtime_error(self, tmp_path, monkeypatch, capsys, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "closed_blocks", failing)
        assert run_experiment(self.spec(tmp_path)) == 3
        assert "runtime error" in capsys.readouterr().err

    def test_worker_that_dies_exits_3(self, tmp_path, monkeypatch, capsys):
        # Only the forked child dies; this process runs its own share.
        parent, simulate = os.getpid(), cli.closed_blocks

        def dies_in_a_child(*args, **kwargs):
            return simulate(*args, **kwargs) if os.getpid() == parent else os._exit(3)

        monkeypatch.setattr(cli, "closed_blocks", dies_in_a_child)
        assert run_experiment(self.spec(tmp_path, workers=2)) == 3
        assert "WorkerDied: run_grid worker 1 ended without a result (exit status 3)" in capsys.readouterr().err

    def test_default_workers_are_the_cpus_this_process_may_use(self, tmp_path, monkeypatch):
        asked = []

        def recording_run_grid(*args):
            asked.append(args[-1])
            return run_grid(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(cli, "run_grid", recording_run_grid)
        assert run_experiment(self.spec(tmp_path, workers=None)) == 0
        assert asked == [1]

    def test_unwritable_output_dir(self):
        spec = ExperimentSpec(
            mode="single", alphas=(0.6, 0.4), rounds=10, replications=1,
            seed=1, workers=1, out_dir="/proc/poolsim-cannot-write",
        )
        assert run_experiment(spec) == 3


class TestMain:
    def test_happy_path(self, tmp_path, capsys):
        code = main([
            "--mode", "single", "--alphas", "0.6,0.4", "--rounds", "100",
            "--replications", "1", "--seed", "3", "--out", str(tmp_path / "o"),
            "--workers", "1",
        ])
        assert code == 0

    def test_config_error_exit_code(self, capsys):
        code = main(["--alphas", "0.9,0.3"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_zero_power_alphas_exit_code(self, tmp_path, capsys):
        code = main(["--alphas", "0,0", "--workers", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "positive mining power" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--gamma", "nan"), ("--mean-block-time", "nan"), ("--mean-block-time", "inf"),
    ])
    def test_nan_or_infinite_rates_exit_code(self, tmp_path, capsys, flag, value):
        code = main(["--alphas", "0.6,0.4", flag, value, "--rounds", "10",
                     "--workers", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--gamma", "0", "gamma must be positive"),
        ("--mean-block-time", "-1", "mean block time must be positive"),
        ("--lead-threshold", "0", "lead threshold must be a positive integer"),
        ("--alphas", "0.6,1.2", r"alphas\[1\]: must be a number in \[0, 1\]"),
    ])
    def test_simulator_bounds_exit_code(self, tmp_path, capsys, flag, value, message):
        argv = ["--alphas", "0.6,0.4", "--rounds", "10", "--workers", "1", "--out", str(tmp_path / "o")]
        code = main(argv + [flag, value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and re.search(message, err), err

    @pytest.mark.parametrize("mode,message", [
        ("sweep", "sweep mode needs at least 1 grid point"),
        ("threshold", "threshold mode needs at least 2 grid points"),
    ])
    def test_empty_grid_names_the_mode_minimum(self, tmp_path, capsys, mode, message):
        # A sweep runs on one grid point; only the threshold search needs two.
        code = main(["--mode", mode, "--alphas", "0.6,0.3,0.1", "--grid=", "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"config error: grid: {message}" in capsys.readouterr().err

    def test_grid_in_single_mode_rejected(self, tmp_path, capsys):
        # Single mode runs the base config alone, so a grid there used to be
        # dropped silently while summary.json recorded the base point.
        argv = ["--alphas", "0.6,0.3,0.1", "--rounds", "10", "--workers", "1", "--out", str(tmp_path / "o")]
        assert main(argv + ["--mode", "single", "--grid", "0.3,0.4"]) == 2
        assert "config error: grid" in capsys.readouterr().err
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"alphas": [0.6, 0.3, 0.1], "grid": [0.3, 0.4]}))  # mode defaults to single
        assert main(["--config", str(path), *argv]) == 2
        assert "config error: grid" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_release_min_rejected(self, tmp_path, capsys):
        # Eager rounds end at a lead of exactly lead_threshold, where
        # release-min releases the whole chain; the flag used to do nothing.
        code = main(["--mode", "single", "--alphas", "0.6,0.3,0.1", "--rounds", "100",
                     "--release-policy", "release-min", "--workers", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error: release_policy" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_alphas_exit_code(self, capsys):
        assert main([]) == 2

    def test_parser_rejects_bad_float_list(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--alphas", "a,b"])
