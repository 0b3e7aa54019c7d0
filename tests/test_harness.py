"""Harness and CLI tests: config parsing, CSV outputs, summary
consistency, reproducibility, and exit codes."""

import csv
import dataclasses
import datetime
import itertools
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest
import yaml
from helpers import run_cli

from gpts import bandit, bridge, environments as envs, gp, harness, report
from gpts.errors import ConfigError, DataError, InvalidArgumentError, NumericalError


def small_config(tmp_path, **overrides):
    raw = harness.default_config_dict()
    raw["T"] = 5
    raw["u"] = 20
    raw["seeds"] = [0, 1]
    raw["policies"] = [
        {"kind": "gp_ts"},
        {"kind": "fixed_arm", "arm_index": 5},
        {"kind": "uniform_random"},
    ]
    raw["output_dir"] = str(tmp_path / "runs")
    raw.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path, raw


def mock_bridge(**settings):
    """Overrides that run the mock trainer with these bridge settings."""
    trainer = [sys.executable, "-m", "gpts.cli", "mock-trainer"]
    return {"environment": {"kind": "bridge", "bridge": {"command": trainer, **settings}}}


def readme_gp_rows():
    """(keys, defaults) of each row of README's config table in the gp section."""
    rows, section = [], None
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        if line.startswith("| "):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            section = cells[0] or section
            if section == "`gp`":
                rows.append((re.findall(r"`(\w+)`", cells[1]), re.findall(r"`([^`]+)`", cells[2])))
    return rows


class TestLoadConfig:
    def test_readme_gp_keys_construct_the_record(self):
        # the gp section is GpHyperparams' keywords, with lengthscale for lengthscales
        rows = readme_gp_rows()
        fields = {f.name for f in dataclasses.fields(gp.GpHyperparams)}
        assert {key for keys, _ in rows for key in keys} == fields - {"lengthscales"} | {"lengthscale"}
        for keys, defaults in rows:
            for key, default in zip(keys, defaults, strict=True):
                theta = harness._gp_init_from_config({key: yaml.safe_load(default)}, 2)
                assert theta == bandit.default_gp_hyperparams(2)

    def test_default_config_round_trips(self, tmp_path):
        path, raw = small_config(tmp_path)
        cfg = harness.load_config(path)
        assert cfg.T == 5 and cfg.u == 20
        assert cfg.seeds == [0, 1]
        assert [d.name for d in cfg.arm_dims] == ["rho"]
        assert cfg.environment["kind"] == "synthetic"

    def test_load_builds_no_distance_table(self, tmp_path, monkeypatch):
        # the first GP-TS selection builds it, inside a timed decision
        monkeypatch.setattr(gp, "_SPACE_RECORDS", weakref.WeakKeyDictionary())
        harness.load_config(small_config(tmp_path)[0])
        assert not gp._SPACE_RECORDS

    def test_missing_key_is_config_error(self, tmp_path):
        path, raw = small_config(tmp_path)
        del raw["T"]
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError):
            harness.load_config(path)

    def test_unknown_policy_kind_rejected(self, tmp_path):
        path, _ = small_config(tmp_path, policies=[{"kind": "epsilon_greedy"}])
        with pytest.raises(ConfigError, match="policy kind"):
            harness.load_config(path)

    def test_fixed_arm_without_index_rejected(self, tmp_path):
        path, _ = small_config(tmp_path, policies=[{"kind": "fixed_arm"}])
        with pytest.raises(ConfigError, match="arm_index"):
            harness.load_config(path)

    def test_default_policies_load_in_run_order(self, tmp_path):
        # the fixed_arm "all" entry is one spec per arm of the 9-arm grid
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(harness.default_config_dict()))
        policies = harness.load_config(path).policies
        assert policies == [
            bandit.PolicySpec(bandit.GP_TS),
            *(bandit.PolicySpec(bandit.FIXED_ARM, i) for i in range(9)),
            bandit.PolicySpec(bandit.UNIFORM_RANDOM),
        ]
        assert [p.label() for p in policies] == [
            "gp_ts", *(f"fixed_arm_{i}" for i in range(9)), "uniform_random"
        ]

    def test_unknown_environment_rejected(self, tmp_path):
        path, _ = small_config(tmp_path, environment={"kind": "casino"})
        with pytest.raises(ConfigError, match="environment kind"):
            harness.load_config(path)

    def test_non_mapping_yaml_rejected(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="not a mapping"):
            harness.load_config(path)

    def test_nonpositive_budget_rejected(self, tmp_path):
        path, _ = small_config(tmp_path, T=0)
        with pytest.raises(ConfigError, match="at least 1"):
            harness.load_config(path)


class TestRunExperiment:
    def test_writes_run_and_summary_csvs(self, tmp_path):
        path, raw = small_config(tmp_path)
        cfg = harness.load_config(path)
        result = harness.run_experiment(cfg)
        out = Path(raw["output_dir"])
        assert not result["failures"]
        # 3 policies x 2 seeds
        assert len(result["runs"]) == 6
        assert sorted(p.name for p in out.glob("run_*.csv")) == sorted(
            f"run_{label}_seed{s}.csv"
            for label in ("gp_ts", "fixed_arm_5", "uniform_random")
            for s in (0, 1)
        )
        assert (out / "summary.csv").exists()

    def test_run_csv_contents(self, tmp_path):
        path, raw = small_config(tmp_path, policies=[{"kind": "fixed_arm", "arm_index": 5}])
        cfg = harness.load_config(path)
        harness.run_experiment(cfg)
        rows = list(
            csv.DictReader((Path(raw["output_dir"]) / "run_fixed_arm_5_seed0.csv").open())
        )
        assert [int(r["interaction"]) for r in rows] == [0, 1, 2, 3, 4, 5]
        assert rows[0]["arm_rho"] == ""  # initial-loss row carries no arm
        assert all(r["arm_rho"] == "0.3" for r in rows[1:])
        # telescoping: cumulative reward equals initial minus current loss
        init = float(rows[0]["val_loss"])
        for r in rows[1:]:
            assert float(r["cumulative_reward"]) == pytest.approx(
                init - float(r["val_loss"]), rel=1e-9
            )

    def test_gp_snapshot_columns_present_for_gp_ts(self, tmp_path):
        path, raw = small_config(tmp_path, policies=[{"kind": "gp_ts"}], seeds=[0])
        cfg = harness.load_config(path)
        harness.run_experiment(cfg)
        rows = list(csv.DictReader((Path(raw["output_dir"]) / "run_gp_ts_seed0.csv").open()))
        for r in rows[1:]:
            assert r["gp_lengthscales"].startswith("[")
            float(r["gp_output_scale"])
            float(r["gp_noise_variance"])

    def test_summary_recomputable_from_run_csvs(self, tmp_path):
        path, raw = small_config(tmp_path)
        cfg = harness.load_config(path)
        harness.run_experiment(cfg)
        out = Path(raw["output_dir"])
        losses = {}  # (policy, seed) -> interaction -> loss
        for p in out.glob("run_*.csv"):
            rows = list(csv.DictReader(p.open()))
            key = (rows[0]["policy"], rows[0]["seed"])
            losses[key] = {int(r["interaction"]): float(r["val_loss"]) for r in rows}
        for row in csv.DictReader((out / "summary.csv").open()):
            vals = [
                losses[k][int(row["interaction"])]
                for k in losses
                if k[0] == row["policy"]
            ]
            assert int(row["n"]) == len(vals)
            mean = sum(vals) / len(vals)
            sd = (sum((v - mean) ** 2 for v in vals) / len(vals)) ** 0.5
            assert abs(float(row["mean_val_loss"]) - mean) <= 1e-12
            assert abs(float(row["sd_val_loss"]) - sd) <= 1e-12

    def test_summary_of_losses_whose_squares_overflow(self, tmp_path):
        # losses near 1e200: the squared deviations from the mean overflow
        # as Python floats, the population sd does not
        path, raw = small_config(
            tmp_path, T=3, policies=[{"kind": "uniform_random"}],
            environment={"kind": "synthetic", "synthetic": {"initial_loss": 1e200}})
        code, _, err = run_cli(["run", "--config", str(path)])
        assert (code, err) == (0, "")
        out = Path(raw["output_dir"])
        curves = [[float(r["val_loss"]) for r in csv.DictReader(p.open())]
                  for p in sorted(out.glob("run_*.csv"))]
        rows = list(csv.DictReader((out / "summary.csv").open()))
        assert [int(r["interaction"]) for r in rows] == [0, 1, 2, 3]
        # the reference scales by an exact power of two: Python 3.10's
        # pstdev overflows on the losses themselves
        scale = 2.0**600
        for row, vals in zip(rows, zip(*curves)):
            sd = statistics.pstdev([v / scale for v in vals]) * scale
            assert float(row["sd_val_loss"]) == pytest.approx(sd, rel=1e-15)
        assert float(rows[1]["sd_val_loss"]) > 1e154

    def test_rerun_is_byte_identical(self, tmp_path):
        path, raw = small_config(tmp_path)
        cfg = harness.load_config(path)
        out = Path(raw["output_dir"])
        harness.run_experiment(cfg)
        first = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        harness.run_experiment(cfg)
        second = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        assert first == second

    def test_fixed_arm_all_expands(self, tmp_path):
        path, raw = small_config(
            tmp_path, policies=[{"kind": "fixed_arm", "arm_index": "all"}], seeds=[0]
        )
        cfg = harness.load_config(path)
        result = harness.run_experiment(cfg)
        assert len(result["runs"]) == 9  # one per arm of the 9-arm grid

    def test_replay_environment_passthrough(self, tmp_path):
        space = envs.make_grid([dict(lower=0.0, upper=0.5, step=0.05, name="rho")])
        env = envs.SyntheticPretrainEnv(envs.SyntheticPretrainSpec(), seed=10_000)
        pc = bandit.PolicySpec(bandit.FIXED_ARM, 2)
        hist = bandit.run_policy(space, pc, env, T=5, u=20)
        log = tmp_path / "log.csv"
        envs.write_replay_csv(log, hist, space)

        path, raw = small_config(
            tmp_path,
            policies=[{"kind": "fixed_arm", "arm_index": 2}],
            seeds=[0],
            environment={"kind": "replay", "replay": {"path": str(log)}},
        )
        cfg = harness.load_config(path)
        harness.run_experiment(cfg)
        rows = list(
            csv.DictReader((Path(raw["output_dir"]) / "run_fixed_arm_2_seed0.csv").open())
        )
        assert [float(r["val_loss"]) for r in rows[1:]] == hist.losses()[1:]

    def test_replay_missing_entry_recorded_as_failure(self, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text("arm_index,interaction,val_loss\n-1,0,10.0\n")
        path, _ = small_config(
            tmp_path,
            policies=[{"kind": "fixed_arm", "arm_index": 2}],
            seeds=[0],
            environment={"kind": "replay", "replay": {"path": str(log)}},
        )
        cfg = harness.load_config(path)
        result = harness.run_experiment(cfg)
        assert result["failures"]

    def test_replay_gap_keeps_partial_history(self, tmp_path):
        # arm 2 has no entry at interaction 3; arm 3 is logged throughout
        rows = ["arm_index,interaction,val_loss", "-1,0,10.0"]
        rows += [f"2,{t},{10.0 - t}" for t in (1, 2, 4, 5)]
        rows += [f"3,{t},{10.0 - 0.5 * t}" for t in range(1, 6)]
        log = tmp_path / "log.csv"
        log.write_text("\n".join(rows) + "\n")
        path, raw = small_config(
            tmp_path,
            policies=[{"kind": "fixed_arm", "arm_index": 2}, {"kind": "fixed_arm", "arm_index": 3}],
            seeds=[0, 1],
            environment={"kind": "replay", "replay": {"path": str(log)}},
        )
        result = harness.run_experiment(harness.load_config(path))
        error = "interaction 3: replay table has no entry for arm 2 at interaction 3"
        assert [(f["policy"], f["seed"], f["error"]) for f in result["failures"]] == [
            ("fixed_arm_2", 0, error),
            ("fixed_arm_2", 1, error),
        ]
        assert len(result["runs"]) == 4
        out = Path(raw["output_dir"])
        partial = list(csv.DictReader((out / "run_fixed_arm_2_seed0.csv").open()))
        assert [r["val_loss"] for r in partial] == ["10.0", "9.0", "8.0"]
        full = list(csv.DictReader((out / "run_fixed_arm_3_seed1.csv").open()))
        assert len(full) == 1 + 5
        summary = list(csv.DictReader((out / "summary.csv").open()))
        assert {(row["policy"], row["n"]) for row in summary} == {("fixed_arm_3", "2")}

    def test_environment_closed_when_run_raises(self, tmp_path, monkeypatch):
        class SpyEnv:
            closed = False

            def init(self):
                return 10.0

            def step(self, arm, u):
                raise InvalidArgumentError("step rejected")

            def close(self):
                self.closed = True

        spy = SpyEnv()
        monkeypatch.setattr(harness, "_make_environment", lambda *args: spy)
        path, _ = small_config(tmp_path, policies=[{"kind": "uniform_random"}], seeds=[0])
        with pytest.raises(InvalidArgumentError, match="step rejected"):
            harness.run_experiment(harness.load_config(path))
        assert spy.closed

    def test_diverged_run_leaves_sibling_runs_intact(self, tmp_path, monkeypatch):
        class NanAtThree:
            def __init__(self, env):
                self.env = env
                self.steps = 0

            def init(self):
                return self.env.init()

            def step(self, arm, u):
                self.steps += 1
                loss = self.env.step(arm, u)
                return float("nan") if self.steps == 3 else loss

        make = harness._make_environment
        made = itertools.count()

        def make_env(*args):
            # seed 0 of each policy diverges, seed 1 runs to the end
            env = make(*args)
            return NanAtThree(env) if next(made) % 2 == 0 else env

        monkeypatch.setattr(harness, "_make_environment", make_env)
        path, raw = small_config(
            tmp_path, policies=[{"kind": "gp_ts"}, {"kind": "uniform_random"}], seeds=[0, 1]
        )
        result = harness.run_experiment(harness.load_config(path))
        assert [(f["policy"], f["seed"], f["error"]) for f in result["failures"]] == [
            (label, 0, "interaction 3: diverged (validation loss nan)")
            for label in ("gp_ts", "uniform_random")
        ]
        assert len(result["runs"]) == 4
        out = Path(raw["output_dir"])
        for label in ("gp_ts", "uniform_random"):
            # the initial-loss row plus one row per recorded interaction
            partial = (out / f"run_{label}_seed0.csv").read_text()
            assert len(partial.splitlines()) == 1 + 3 and "nan" not in partial
            rows = list(csv.DictReader((out / f"run_{label}_seed1.csv").open()))
            assert len(rows) == 1 + 5
        summary = list(csv.DictReader((out / "summary.csv").open()))
        assert {row["n"] for row in summary} == {"1"}

    def test_numerical_failure_ends_only_its_run(self, tmp_path, monkeypatch):
        # GP-TS seed 0 cannot sample its posterior at interaction 3
        current = {"seed": None, "samples": 0}
        make, sample = harness._make_environment, gp.PosteriorGp.sample_joint

        def make_env(env_cfg, space, env_seed):
            current.update(seed=env_seed - harness.DEFAULT_ENV_SEED_OFFSET, samples=0)
            return make(env_cfg, space, env_seed)

        def sample_joint(post, queries, rng):
            current["samples"] += 1
            if current["seed"] == 0 and current["samples"] == 3:
                raise NumericalError("posterior covariance could not be factorized for sampling")
            return sample(post, queries, rng)

        monkeypatch.setattr(harness, "_make_environment", make_env)
        monkeypatch.setattr(gp.PosteriorGp, "sample_joint", sample_joint)
        path, raw = small_config(
            tmp_path, policies=[{"kind": "gp_ts"}, {"kind": "uniform_random"}], seeds=[0, 1]
        )
        error = "interaction 3: numerical: posterior covariance could not be factorized for sampling"
        result = harness.run_experiment(harness.load_config(path))
        assert [(f["policy"], f["seed"], f["error"]) for f in result["failures"]] == [
            ("gp_ts", 0, error)
        ]
        assert len(result["runs"]) == 4
        out = Path(raw["output_dir"])
        partial = list(csv.DictReader((out / "run_gp_ts_seed0.csv").open()))
        assert [r["interaction"] for r in partial] == ["0", "1", "2"]
        for label, seed in [("gp_ts", 1), ("uniform_random", 0), ("uniform_random", 1)]:
            rows = list(csv.DictReader((out / f"run_{label}_seed{seed}.csv").open()))
            assert len(rows) == 1 + 5
        summary = list(csv.DictReader((out / "summary.csv").open()))
        assert {(row["policy"], row["n"]) for row in summary} == {
            ("gp_ts", "1"),
            ("uniform_random", "2"),
        }

        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 3
        assert f"FAILED gp_ts seed 0: {error}" in err


def hand_history(gp_trace=()):
    # every value and every loss drop is exact in binary, so the text is portable
    return bandit.History(
        initial_loss=10.0,
        arms=[(0.25, 0.5), (0.75, 0.5), (0.25, 0.5)],
        losses_after=[9.5, 9.25, 9.75],
        gp_trace=list(gp_trace),
    )


class TestCsvText:
    """The exact text of the run CSV and the replay CSV written from a
    hand-built History."""

    SPACE = envs.ArmSpace(
        dims=(envs.GridDim(0.0, 1.0, 0.25, "a"), envs.GridDim(0.0, 1.0, 0.25, "b")),
        values=((0.25, 0.75), (0.5,)),
    )
    HEADER = (
        "seed,policy,interaction,arm_a,arm_b,val_loss,reward,cumulative_reward,"
        "gp_lengthscales,gp_output_scale,gp_noise_variance,gp_mean_constant\n"
    )

    def test_baseline_run_has_blank_gp_columns(self, tmp_path):
        path = tmp_path / "run.csv"
        report.write_run_csv(path, 7, "uniform_random", hand_history(), self.SPACE)
        assert path.read_text() == self.HEADER + (
            "7,uniform_random,0,,,10.0,,0.0,,,,\n"
            "7,uniform_random,1,0.25,0.5,9.5,0.5,0.5,,,,\n"
            "7,uniform_random,2,0.75,0.5,9.25,0.25,0.75,,,,\n"
            "7,uniform_random,3,0.25,0.5,9.75,-0.5,0.25,,,,\n"
        )

    def test_gp_ts_run_has_one_snapshot_per_row(self, tmp_path):
        def theta(ls, scale):
            return gp.GpHyperparams((ls, 0.5), gp.MATERN52, scale, 0.0625, -0.125)

        hist = hand_history([theta(0.1, 1.0), theta(0.2, 1.5), theta(0.3, 2.0)])
        path = tmp_path / "run.csv"
        report.write_run_csv(path, 0, "gp_ts", hist, self.SPACE)
        assert path.read_text() == self.HEADER + (
            "0,gp_ts,0,,,10.0,,0.0,,,,\n"
            '0,gp_ts,1,0.25,0.5,9.5,0.5,0.5,"[0.1, 0.5]",1.0,0.0625,-0.125\n'
            '0,gp_ts,2,0.75,0.5,9.25,0.25,0.75,"[0.2, 0.5]",1.5,0.0625,-0.125\n'
            '0,gp_ts,3,0.25,0.5,9.75,-0.5,0.25,"[0.3, 0.5]",2.0,0.0625,-0.125\n'
        )

    def test_replay_csv(self, tmp_path):
        path = tmp_path / "log.csv"
        envs.write_replay_csv(path, hand_history(), self.SPACE)
        assert path.read_bytes() == (
            b"arm_index,interaction,val_loss\r\n"
            b"-1,0,10.0\r\n"
            b"0,1,9.5\r\n"
            b"1,2,9.25\r\n"
            b"0,3,9.75\r\n"
        )
        # the keys ReplayEnv looks up at interactions 1..3
        assert envs.load_replay_csv(path).table == {(0, 1): 9.5, (1, 2): 9.25, (0, 3): 9.75}


class TestSummarize:
    def test_report_over_generated_runs(self, tmp_path):
        path, raw = small_config(tmp_path)
        cfg = harness.load_config(path)
        harness.run_experiment(cfg)
        report = harness.summarize(raw["output_dir"])
        assert set(report["policies"]) == {"gp_ts", "fixed_arm_5", "uniform_random"}
        assert report["best_policy"] in report["policies"]
        assert report["telescoping_violations"] == []
        for stats in report["policies"].values():
            assert stats["runs"] == 2
            assert abs(sum(stats["arm_frequencies"].values()) - 1.0) < 1e-9

    def test_detects_telescoping_violation(self, tmp_path):
        path, raw = small_config(tmp_path, policies=[{"kind": "fixed_arm", "arm_index": 5}])
        cfg = harness.load_config(path)
        harness.run_experiment(cfg)
        out = Path(raw["output_dir"])
        target = out / "run_fixed_arm_5_seed0.csv"
        lines = target.read_text().splitlines()
        parts = lines[2].split(",")
        parts[5] = repr(float(parts[5]) + 1.0)  # corrupt one reward
        lines[2] = ",".join(parts)
        target.write_text("\n".join(lines) + "\n")
        report = harness.summarize(out)
        assert report["telescoping_violations"]

    def test_nan_in_run_csv_is_telescoping_violation(self, tmp_path):
        # losses 10, 9, nan, 8: every reward and running sum after the NaN is NaN
        (tmp_path / "run_fixed_arm_1_seed0.csv").write_text(
            "seed,policy,interaction,arm_rho,val_loss,reward,cumulative_reward,"
            "gp_lengthscales,gp_output_scale,gp_noise_variance,gp_mean_constant\n"
            "0,fixed_arm_1,0,,10.0,,0.0,,,,\n"
            "0,fixed_arm_1,1,0.1,9.0,1.0,1.0,,,,\n"
            "0,fixed_arm_1,2,0.1,nan,nan,nan,,,,\n"
            "0,fixed_arm_1,3,0.1,8.0,nan,nan,,,,\n"
        )
        violations = harness.summarize(tmp_path)["telescoping_violations"]
        assert [v.get("interaction") for v in violations] == [None, 2]

    def test_empty_directory_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="no run CSVs"):
            harness.summarize(tmp_path)

    def test_format_report_runs(self, tmp_path):
        path, raw = small_config(tmp_path, policies=[{"kind": "uniform_random"}])
        cfg = harness.load_config(path)
        harness.run_experiment(cfg)
        text = report.format_report(harness.summarize(raw["output_dir"]))
        assert "uniform_random" in text
        assert "telescoping identity verified" in text


class TestCli:
    def test_run_and_summarize_succeed(self, tmp_path):
        path, raw = small_config(tmp_path, policies=[{"kind": "uniform_random"}], seeds=[0])
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 0, err
        code, out, err = run_cli(["summarize", "--dir", raw["output_dir"]])
        assert code == 0, err
        assert "uniform_random" in out

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("arm_space: []\n")
        code, _, _ = run_cli(["run", "--config", str(path)])
        assert code == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        code, _, _ = run_cli(["run", "--config", str(tmp_path / "nope.yaml")])
        assert code == 2

    @pytest.mark.parametrize(
        "environment",
        [
            {"kind": "bridge", "bridge": {}},
            {"kind": "bridge", "bridge": {"transport": "udp:1"}},
            {"kind": "synthetic", "synthetic": {"no_such_field": 1.0}},
            {"kind": "synthetic", "synthetic": {"optimum": ["0.3"]}},
        ],
    )
    def test_bad_environment_exits_2(self, tmp_path, environment):
        path, _ = small_config(
            tmp_path, policies=[{"kind": "uniform_random"}], seeds=[0], environment=environment
        )
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 2, err

    @pytest.mark.parametrize("timeout_s", [math.inf, -1.0, math.nan, 1e10])
    def test_bad_bridge_timeout_exits_2(self, tmp_path, timeout_s):
        # each lies outside [0, threading.TIMEOUT_MAX], the waits select() can make
        trainer = [sys.executable, "-m", "gpts.cli", "mock-trainer"]
        environment = {"kind": "bridge", "bridge": {"command": trainer, "timeout_s": timeout_s}}
        path, raw = small_config(
            tmp_path, policies=[{"kind": "uniform_random"}], seeds=[0], environment=environment
        )
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 2, err
        assert "config error:" in err and "timeout_s" in err
        assert not list(Path(raw["output_dir"]).glob("*.csv"))

    @pytest.mark.parametrize("transport", ["tcp:99999", "tcp:-5", "tcp:x"])
    def test_mock_trainer_bad_port_exits_2(self, transport):
        code, _, err = run_cli(["mock-trainer", "--transport", transport])
        assert code == 2, err
        assert "config error:" in err and "[0, 65535]" in err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"arm_space": [{"name": "rho", "lower": 0.0, "upper": 0.05, "step": 0.05}]},
            {"gp": {"lengthscale": -0.1}},
            {"gp": {"kernel": "cubic"}},
            {"fit": {"restarts": 2.5}},
            {"arm_space": [{"name": "rho", "lower": 0.0, "upper": 0.5, "step": 0.1}] * 2},
            {"gp": {"mean_constant": "0.0"}},  # a number is not read from a string
            # values rounded to 12 decimals: 87 arms of 6 distinct values, 44
            # arms of 5, and one arm at the excluded lower endpoint
            {"arm_space": [{"name": "rho", "lower": 1e17, "upper": 1e17 + 100, "step": 1.0}]},
            {"arm_space": [{"name": "rho", "lower": 0.1, "upper": 0.1 + 44.5e-13, "step": 1e-13}]},
            {
                "arm_space": [{"name": "rho", "lower": 0.1, "upper": 0.1 + 5e-13, "step": 4e-13}],
                "policies": [{"kind": "uniform_random"}],  # fixed_arm 5 is off a 1-arm grid
            },
        ],
    )
    def test_invalid_config_value_exits_2(self, tmp_path, overrides):
        path, _ = small_config(tmp_path, seeds=[0], **overrides)
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 2, err
        assert "config error: invalid experiment config" in err

    @pytest.mark.parametrize(
        "overrides",
        [
            {
                "environment": {
                    "kind": "synthetic",
                    "synthetic": {"optimum": [0.3, 0.3], "width": [0.08, 0.08]},
                }
            },
            {
                "arm_space": [
                    {"name": "a", "lower": 0.0, "upper": 0.5, "step": 0.1},
                    {"name": "b", "lower": 0.0, "upper": 0.5, "step": 0.1},
                ],
                "environment": {"kind": "test_function", "test_function": {}},
            },
        ],
        ids=["synthetic_2d_on_1d_grid", "test_function_on_2d_grid"],
    )
    def test_environment_not_matching_grid_exits_2(self, tmp_path, overrides):
        path, raw = small_config(tmp_path, seeds=[0], **overrides)
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 2, err
        assert f"config error: invalid {overrides['environment']['kind']} environment" in err
        assert not list(Path(raw["output_dir"]).glob("*.csv"))

    def test_output_directory_that_cannot_be_made_exits_2(self, tmp_path):
        path, _ = small_config(tmp_path, policies=[{"kind": "uniform_random"}], seeds=[0])
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        code, _, err = run_cli(["run", "--config", str(path), "--out", str(blocker / "sub")])
        assert code == 2, err
        assert "config error: cannot create output directory" in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_run_csv_that_cannot_be_written_exits_2(self, tmp_path):
        path, raw = small_config(tmp_path, policies=[{"kind": "uniform_random"}], seeds=[0, 1])
        blocker = Path(raw["output_dir"]) / "run_uniform_random_seed0.csv"
        blocker.mkdir(parents=True)
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 2, err
        assert f"config error: cannot write {blocker}" in err
        assert list(tmp_path.rglob("*.csv")) == [blocker]  # no further run, no summary

    def test_summary_csv_that_cannot_be_written_exits_2(self, tmp_path):
        path, raw = small_config(tmp_path, policies=[{"kind": "uniform_random"}], seeds=[0])
        blocker = Path(raw["output_dir"]) / "summary.csv"
        blocker.mkdir(parents=True)
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 2, err
        assert f"config error: cannot write {blocker}" in err
        # the run finished before the summary keeps its CSV
        assert (blocker.parent / "run_uniform_random_seed0.csv").is_file()

    @pytest.mark.parametrize("kind", ["synthetic", "test_function"])
    def test_arm_far_from_the_optimum_runs(self, tmp_path, kind):
        # ((2e200 - 0.3) / 0.08) ** 2 overflows a float: the arm's
        # efficiency, or the test function's wells, are 0 there
        path, raw = small_config(
            tmp_path, seeds=[0], environment={"kind": kind},
            arm_space=[{"name": "rho", "lower": 1.0e200, "upper": 3.0e200, "step": 1.0e200}],
            policies=[{"kind": "gp_ts"}, {"kind": "fixed_arm", "arm_index": 0}],
        )
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 0, err
        rows = list(csv.DictReader((Path(raw["output_dir"]) / "run_gp_ts_seed0.csv").open()))
        assert {row["arm_rho"] for row in rows[1:]} == {"2e+200"}
        assert len(rows) == 1 + raw["T"]

    def test_gp_ts_on_arms_whose_distance_overflows_runs(self, tmp_path):
        # the arms are so far apart in lengthscale units that the squared
        # scaled distance overflows to inf: the Matern-5/2 covariance is 0
        path, raw = small_config(
            tmp_path, seeds=[0], T=10, environment={"kind": "test_function"},
            arm_space=[{"name": "rho", "lower": 0.0, "upper": 3.0e200, "step": 1.0e200}],
            policies=[{"kind": "gp_ts"}],
        )
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 0, err
        rows = list(csv.DictReader((Path(raw["output_dir"]) / "run_gp_ts_seed0.csv").open()))
        assert len(rows) == 1 + 10

    def test_gp_ts_at_a_large_output_scale_runs(self, tmp_path):
        # the prior's first sampling rung, 1e-12 * 1e11, is above 1e-2
        path, raw = small_config(
            tmp_path, seeds=[0], environment={"kind": "test_function"},
            policies=[{"kind": "gp_ts"}], gp={"output_scale": 1.0e11},
        )
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 0, err
        rows = list(csv.DictReader((Path(raw["output_dir"]) / "run_gp_ts_seed0.csv").open()))
        assert len(rows) == 1 + raw["T"]

    @pytest.mark.parametrize("output_scale,exit_code", [(1.0e300, 0), (1.0e302, 0), (1.0e303, 2)])
    def test_output_scale_is_bounded_below_matern_overflow(self, tmp_path, output_scale,
                                                             exit_code):
        # arms far apart in lengthscale units meet the Matern-5/2 clamp,
        # where the kernel's factor times 1e303 overflows to inf
        path, raw = small_config(
            tmp_path, seeds=[0], environment={"kind": "test_function"},
            arm_space=[{"name": "rho", "lower": 0.0, "upper": 3.0e200, "step": 1.0e200}],
            policies=[{"kind": "gp_ts"}], gp={"output_scale": output_scale},
        )
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == exit_code, err
        run_csv = Path(raw["output_dir"]) / "run_gp_ts_seed0.csv"
        if exit_code == 2:
            assert "output_scale" in err and not run_csv.exists()
        else:
            assert len(list(csv.DictReader(run_csv.open()))) == 1 + raw["T"]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"policies": [{"kind": "fixed_arm", "arm_index": 99}]},
            {"policies": [{"kind": "fixed_arm", "arm_index": -1}]},
            {"T": 2.7},
            {"u": 20.5},
            {"seeds": [0.5]},
            {"env_seed_offset": 1.5},
            {"seeds": [0, -1]},
            {"fit": {"seed": -1}},
            {"env_seed_offset": -5, "seeds": [5, 4]},
            {"policies": [{"kind": "gp_ts", "arm_index": 3}]},
            {"policies": [{"kind": "uniform_random", "arm_index": "all"}]},
            {"policies": [{"kind": "fixed_arm", "arm_index": "ALL"}]},
            {"policies": [{"kind": "fixed_arm", "arm_index": 2.0}]},
            # a budget that cannot search
            {"fit": {"restarts": 0}},
            {"fit": {"max_evals": 0}},
            {"fit": {"restarts": -3, "max_evals": -5}},
        ],
    )
    def test_out_of_range_or_truncated_value_exits_2(self, tmp_path, overrides):
        path, _ = small_config(tmp_path, **{"seeds": [0], **overrides})
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 2, err
        assert "config error:" in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"T": True},
            {"u": True},
            {"seeds": [True]},
            {"env_seed_offset": True},
            {"policies": [{"kind": "fixed_arm", "arm_index": True}]},
            {"fit": {"restarts": True}},
            {"fit": {"max_evals": True}},
            {"fit": {"seed": True}},
        ],
    )
    def test_boolean_for_integer_exits_2(self, tmp_path, overrides):
        # operator.index takes True as 1; a config's integers must not
        path, _ = small_config(tmp_path, **{"seeds": [0], **overrides})
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 2, err
        assert "config error:" in err and "got True" in err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"gp": {"mean_constant": True}},
            {"gp": {"output_scale": True}},
            {"gp": {"lengthscale": True}},
            {"gp": {"noise_variance": True}},
            {"arm_space": [{"name": "rho", "lower": False, "upper": 0.5, "step": 0.05}]},
            {"environment": {"kind": "test_function", "test_function": {"noise_sd": True}}},
            {"environment": {"kind": "synthetic", "synthetic": {"rate": True}}},
            {"environment": {"kind": "synthetic", "synthetic": {"optimum": [True]}}},
        ],
    )
    def test_boolean_for_float_exits_2(self, tmp_path, overrides):
        # Python compares a bool as 0 or 1; a config must not take it as a number
        path, raw = small_config(tmp_path, **{"seeds": [0], **overrides})
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 2, err
        assert "config error:" in err and ("True" in err or "False" in err)
        assert not list(Path(raw["output_dir"]).glob("*.csv"))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"gp": {"output_scale": math.inf}},
            {"gp": {"noise_variance": math.inf}},
            {"gp": {"lengthscale": math.inf}},
            {"environment": {"kind": "synthetic", "synthetic": {"initial_loss": math.inf}}},
            {"environment": {"kind": "synthetic", "synthetic": {"floor": -math.inf}}},
            {"environment": {"kind": "synthetic", "synthetic": {"noise_sd": math.inf}}},
            {"environment": {"kind": "synthetic", "synthetic": {"noise_sd": math.nan}}},
            {"environment": {"kind": "synthetic", "synthetic": {"width": [math.inf]}}},
            {"environment": {"kind": "test_function", "test_function": {"noise_sd": math.inf}}},
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, overrides):
        path, raw = small_config(tmp_path, **{"seeds": [0], **overrides})
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 2, err
        assert "config error:" in err and "finite" in err
        assert not list(Path(raw["output_dir"]).glob("*.csv"))

    @pytest.mark.parametrize(
        "dim",
        [
            {"lower": 0.0, "upper": math.inf, "step": 0.1},
            {"lower": -math.inf, "upper": 0.5, "step": 0.1},
            {"lower": 0.0, "upper": 1.0, "step": 1e-9},
        ],
        ids=["infinite_upper", "infinite_lower", "tiny_step"],
    )
    def test_unbounded_grid_exits_2(self, tmp_path, dim):
        # such a grid used to be built value by value without end; in a
        # child process with a timeout a hang fails instead of stalling
        path, raw = small_config(tmp_path, seeds=[0], arm_space=[{"name": "rho", **dim}])
        proc = subprocess.run(
            [sys.executable, "-m", "gpts.cli", "run", "--config", str(path)],
            capture_output=True, text=True, timeout=20,
        )
        assert proc.returncode == 2, proc.stderr
        assert "config error:" in proc.stderr and "Traceback" not in proc.stderr
        assert not list(Path(raw["output_dir"]).glob("*.csv"))

    @pytest.mark.parametrize(
        "overrides,args",
        [
            ({"seeds": [0, 0]}, []),
            ({"policies": [{"kind": "fixed_arm", "arm_index": "all"},
                           {"kind": "fixed_arm", "arm_index": 3}]}, []),
            ({}, ["--seed-override", "0,0"]),
        ],
        ids=["seeds", "policies", "seed_override"],
    )
    def test_repeated_policy_seed_pair_exits_2(self, tmp_path, overrides, args):
        # the pair's run CSV would be written twice and counted twice in the summary
        path, raw = small_config(tmp_path, **{"seeds": [0], **overrides})
        code, _, err = run_cli(["run", "--config", str(path), *args])
        assert code == 2, err
        assert "config error:" in err and "distinct" in err
        assert not list(Path(raw["output_dir"]).glob("*.csv"))

    def test_bridge_with_transport_and_command_exits_2(self, tmp_path, monkeypatch):
        # one would be dropped silently; neither may be spawned or connected
        connects = []
        monkeypatch.setattr(bridge, "bridge_connect", lambda *a, **k: connects.append(a))
        trainer = [sys.executable, "-m", "gpts.cli", "mock-trainer"]
        path, raw = small_config(tmp_path, seeds=[0], **mock_bridge(transport=trainer))
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 2, err
        assert "config error:" in err and "transport and command" in err
        assert connects == []
        assert not list(Path(raw["output_dir"]).glob("*.csv"))

    def test_bridge_config_json_cannot_encode_exits_2(self, tmp_path, monkeypatch):
        # YAML reads 2024-01-01 as a date, which JSON has no type for; the
        # config is checked before a trainer is spawned
        spawns = []
        monkeypatch.setattr(bridge.subprocess, "Popen", lambda *a, **k: spawns.append(a))
        overrides = mock_bridge(config={"started": datetime.date(2024, 1, 1)})
        path, raw = small_config(tmp_path, seeds=[0], **overrides)
        assert "started: 2024-01-01" in path.read_text()
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 2, err
        assert "config error:" in err and "JSON" in err
        assert spawns == []
        assert not list(Path(raw["output_dir"]).glob("*.csv"))

    @pytest.mark.parametrize(
        "overrides,key",
        [
            ({"env_seed_ofset": 3}, "env_seed_ofset"),
            ({"gp": {"lengthscales": 0.5}}, "lengthscales"),
            ({"fit": {"restart": 9}}, "restart"),
            ({"policies": [{"kind": "uniform_random", "sed": 3}]}, "sed"),
            ({"arm_space": [{"lower": 0.0, "upper": 0.5, "step": 0.05, "stpe": 1}]}, "stpe"),
            ({"environment": {"kind": "test_function", "test_function": {"noise": 0.2}}}, "noise"),
            (mock_bridge(timeout=5), "timeout"),
            (mock_bridge(timeout_s="5"), "timeout_s"),
            ({"environment": {"kind": "replay", "replay": {"path": "x", "paht": "x"}}}, "paht"),
        ],
        ids=["top_level", "gp", "fit", "policy", "arm_space", "test_function", "bridge",
             "bridge_timeout_string", "replay"],
    )
    def test_unknown_or_mistyped_key_exits_2(self, tmp_path, overrides, key):
        # a typo that fell back to a default could waste an hours-long run;
        # the replay log need not exist, as the key is rejected before it is read
        path, raw = small_config(tmp_path, **{"seeds": [0], **overrides})
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 2, err
        assert "config error:" in err and key in err
        assert not list(Path(raw["output_dir"]).glob("*.csv"))

    def test_print_default_config_text(self):
        code, out, _ = run_cli(["print-default-config"])
        assert code == 0
        assert out == DEFAULT_CONFIG_TEXT

    def test_summarize_policy_without_interactions(self, tmp_path):
        # what a run that fails at interaction 1 leaves: the initial row only
        (tmp_path / "run_gp_ts_seed0.csv").write_text(
            "seed,policy,interaction,arm_rho,val_loss,reward,cumulative_reward,"
            "gp_lengthscales,gp_output_scale,gp_noise_variance,gp_mean_constant\n"
            "0,gp_ts,0,,10.0,,0.0,,,,\n"
        )
        code, out, err = run_cli(["summarize", "--dir", str(tmp_path)])
        assert code == 0, err
        assert f"{'gp_ts':<26}    1  n/a   n/a" in out.splitlines()

    def test_summarize_row_with_extra_fields_exits_3(self, tmp_path):
        (tmp_path / "run_gp_ts_seed0.csv").write_text(
            "seed,policy,interaction,arm_rho,val_loss,reward,cumulative_reward,"
            "gp_lengthscales,gp_output_scale,gp_noise_variance,gp_mean_constant\n"
            "0,gp_ts,0,,10.0,,0.0,,,,\n"
            "0,gp_ts,1,0.1,9.0,1.0,1.0,,,,,9\n"
        )
        code, _, err = run_cli(["summarize", "--dir", str(tmp_path)])
        assert code == 3, err
        assert "data error:" in err and "run_gp_ts_seed0.csv: line 3: expected 11 fields, got 12" in err

    @pytest.mark.parametrize(
        "arm,message",
        [(b"\xff", "cannot decode run CSV"),
         (b"1" * 200_000, "line 3: field larger than field limit")],
        ids=["not_utf8", "field_over_limit"],
    )
    def test_summarize_unreadable_field_exits_3(self, tmp_path, arm, message):
        path = tmp_path / "run_gp_ts_seed0.csv"
        path.write_bytes(
            b"seed,policy,interaction,arm_rho,val_loss,reward,cumulative_reward,"
            b"gp_lengthscales,gp_output_scale,gp_noise_variance,gp_mean_constant\n"
            b"0,gp_ts,0,,10.0,,0.0,,,,\n"
            b"0,gp_ts,1," + arm + b",9.0,1.0,1.0,,,,\n"
        )
        code, _, err = run_cli(["summarize", "--dir", str(tmp_path)])
        assert code == 3, err
        assert "data error:" in err and message in err and str(path) in err

    def test_summarize_empty_dir_exits_3(self, tmp_path):
        code, _, _ = run_cli(["summarize", "--dir", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize(
        "rows",
        ["-1,0,10.0\n", "-1,0,10.0\n2,1,5.0\n-1,0,99.0\n", "-1,0,10.0\n2,1,9.0\n2,1,5.0\n"],
        ids=["missing_entry", "duplicate_initial_loss", "duplicate_entry"],
    )
    def test_replay_data_failure_exits_3(self, tmp_path, rows):
        log = tmp_path / "log.csv"
        log.write_text("arm_index,interaction,val_loss\n" + rows)
        path, _ = small_config(
            tmp_path,
            policies=[{"kind": "fixed_arm", "arm_index": 2}],
            seeds=[0],
            environment={"kind": "replay", "replay": {"path": str(log)}},
        )
        code, _, _ = run_cli(["run", "--config", str(path)])
        assert code == 3

    @pytest.mark.parametrize("row,fields", [("0,1", 2), ("0,1,5.0,7", 4)], ids=["short", "long"])
    def test_replay_row_with_wrong_field_count_exits_3(self, tmp_path, row, fields):
        log = tmp_path / "log.csv"
        log.write_text(f"arm_index,interaction,val_loss\n-1,0,10.0\n{row}\n")
        path, _ = small_config(
            tmp_path,
            policies=[{"kind": "fixed_arm", "arm_index": 0}],
            seeds=[0],
            environment={"kind": "replay", "replay": {"path": str(log)}},
        )
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 3, err
        assert f"{log}: line 3: expected 3 fields, got {fields}" in err

    def test_diverged_initial_loss_exits_3(self, tmp_path, monkeypatch):
        class NanInit:
            def init(self):
                return float("nan")

        monkeypatch.setattr(harness, "_make_environment", lambda *args: NanInit())
        path, _ = small_config(tmp_path, policies=[{"kind": "uniform_random"}], seeds=[0])
        code, _, err = run_cli(["run", "--config", str(path)])
        assert code == 3
        assert "FAILED uniform_random seed 0: init: diverged (validation loss nan)" in err

    def test_seed_override(self, tmp_path):
        path, raw = small_config(tmp_path, policies=[{"kind": "uniform_random"}])
        code, _, err = run_cli(["run", "--config", str(path), "--seed-override", "7"])
        assert code == 0, err
        out = Path(raw["output_dir"])
        assert [p.name for p in out.glob("run_*.csv")] == ["run_uniform_random_seed7.csv"]

    @pytest.mark.parametrize("override", ["0,-1", " , "])
    def test_negative_or_empty_seed_override_exits_2(self, tmp_path, override):
        path, raw = small_config(tmp_path, policies=[{"kind": "uniform_random"}])
        code, _, err = run_cli(["run", "--config", str(path), "--seed-override", override])
        assert code == 2, err
        assert "config error:" in err
        assert not Path(raw["output_dir"]).exists()

    def test_print_default_config_is_loadable(self, tmp_path):
        code, out, _ = run_cli(["print-default-config"])
        assert code == 0
        path = tmp_path / "default.yaml"
        path.write_text(out)
        cfg = harness.load_config(path)
        assert cfg.T == 100

    def test_module_invocation_works(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gpts.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "mock-trainer" in proc.stdout

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["train"],
            ["run"],
            ["summarize"],
            ["run", "--conf", "config.yaml"],  # no abbreviated options
            ["print-default-config", "extra"],
            # a value starting with "-" reads as an option, so the seed list is missing
            ["run", "--config", "config.yaml", "--seed-override", "-1,2"],
        ],
        ids=["no_command", "unknown_command", "no_config", "no_dir", "abbreviation",
             "extra_argument", "dash_seed_override"],
    )
    def test_usage_error_exits_2(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: gpts") and "error:" in err

    def test_interrupt_exits_1_and_closes_the_trainer(self, tmp_path):
        # Ctrl-C while gpts waits on its trainer, which blocks on its stdin
        pending, started, ended = (str(tmp_path / name) for name in ("pending", "started", "ended"))
        trainer = tmp_path / "trainer.py"
        trainer.write_text(
            "import os, pathlib, sys\n"
            f"pathlib.Path({pending!r}).write_text(str(os.getpid()))\n"
            f"os.replace({pending!r}, {started!r})  # complete once it exists\n"
            "sys.stdin.read()\n"
            f"pathlib.Path({ended!r}).touch()\n"
        )
        path, raw = small_config(
            tmp_path, policies=[{"kind": "uniform_random"}], seeds=[0],
            environment={"kind": "bridge", "bridge": {"command": [sys.executable, str(trainer)]}},
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "gpts.cli", "run", "--config", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            # Python raises KeyboardInterrupt on SIGINT only where SIGINT is not
            # ignored, and a shell starts background jobs with it ignored
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        try:
            deadline = time.monotonic() + 60
            while not os.path.exists(started) and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert os.path.exists(started), proc.stderr.read() if proc.poll() is not None else ""
            interrupted = time.monotonic()
            os.kill(proc.pid, signal.SIGINT)
            _, stderr = proc.communicate(timeout=20)
            elapsed = time.monotonic() - interrupted
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 1, stderr
        assert stderr.endswith("\nAborted!\n") and "Traceback" not in stderr
        assert elapsed < 5.0
        # the trainer read to the end of its stdin and exited, and gpts reaped it
        assert os.path.exists(ended)
        with pytest.raises(ProcessLookupError):
            os.kill(int(Path(started).read_text()), 0)
        # the interrupted run and summary.csv are not written
        assert not list(Path(raw["output_dir"]).glob("*.csv"))

    @pytest.mark.parametrize("command", ["print-default-config", "summarize", "run"])
    def test_closed_stdout_exits_1_without_traceback(self, tmp_path, command):
        # as in `gpts summarize | head -0`: the reader left before the write
        path, raw = small_config(tmp_path, policies=[{"kind": "uniform_random"}], seeds=[0])
        if command == "summarize":
            assert run_cli(["run", "--config", str(path)])[0] == 0
        argv = {"summarize": ["--dir", raw["output_dir"]], "run": ["--config", str(path)]}
        # a pipe block-buffers stdout unless PYTHONUNBUFFERED is set
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "gpts.cli", command, *argv.get(command, [])],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60, env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


DEFAULT_CONFIG_TEXT = """\
arm_space:
- name: rho
  lower: 0.0
  upper: 0.5
  step: 0.05
policies:
- kind: gp_ts
- kind: fixed_arm
  arm_index: all
- kind: uniform_random
environment:
  kind: synthetic
  synthetic:
    initial_loss: 10.0
    floor: 1.5
    optimum:
    - 0.3
    width:
    - 0.08
    rate: 0.3
    noise_sd: 0.05
T: 100
u: 100
seeds:
- 0
- 1
- 2
- 3
- 4
env_seed_offset: 10000
output_dir: runs
gp:
  lengthscale: 0.1
  output_scale: 1.0
  noise_variance: 0.01
  mean_constant: 0.0
fit:
  restarts: 2
  max_evals: 60

"""

# A trainer that records the Init line it receives in the file named by its
# argument, acks it, and waits for its stdin to close.
INIT_RECORDER = """\
import sys
open(sys.argv[1], "w").write(sys.stdin.readline())
print('{"type": "init_ack", "v": 1, "initial_val_loss": 10.0}', flush=True)
sys.stdin.read()
"""


@pytest.mark.parametrize(
    "config,sent",
    [
        ({"synthetic": {"rate": 0.2}, "b": 1}, '{"synthetic": {"rate": 0.2}, "b": 1, "seed": 7}'),
        ({"b": 1, "seed": 5, "a": 2}, '{"b": 1, "seed": 5, "a": 2}'),
        # JSON has no NaN, but Python's encoder writes one, as it always has
        ({"x": math.nan}, '{"x": NaN, "seed": 7}'),
    ],
    ids=["seed_appended", "seed_given", "nan"],
)
def test_bridge_init_line(tmp_path, config, sent):
    # the user's keys in their order, then the run's seed unless the config gives one
    line = tmp_path / "init.txt"
    settings = {
        "command": [sys.executable, "-c", INIT_RECORDER, str(line)],
        "config": config,
        "timeout_s": 30.0,
    }
    space = envs.make_grid([dict(lower=0.0, upper=0.5, step=0.05, name="rho")])
    env = harness._make_environment({"kind": "bridge", "bridge": settings}, space, 7)
    try:
        assert env.init() == 10.0
    finally:
        env.close()
    assert line.read_text() == (
        '{"type": "init", "v": 1, "arm_names": ["rho"], "config": ' + sent + "}\n"
    )
