"""Experiment runner: multi-seed policy comparisons with CSV logging.

A YAML config declares the arm grid, the policies to compare, the
environment, the interaction/update budget, and the seeds. Each
(policy, seed) pair becomes one run CSV; a summary CSV holds the
per-interaction mean and standard deviation of the validation loss
across seeds per policy. Floats are written in shortest round-trip
form, so rerunning an identical config yields byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from . import bandit, bridge, environments, gp
from .errors import (
    BridgeError,
    ConfigError,
    DataError,
    EnvironmentFailure,
    NumericalError,
)

__all__ = [
    "ExperimentConfig",
    "load_config",
    "default_config_dict",
    "run_experiment",
    "summarize",
    "RUN_CSV_PREFIX",
    "SUMMARY_CSV_NAME",
]

RUN_CSV_PREFIX = "run_"
SUMMARY_CSV_NAME = "summary.csv"

# Offset separating environment seeds from policy seeds by default.
DEFAULT_ENV_SEED_OFFSET = 10_000


@dataclass(frozen=True)
class PolicySpec:
    kind: str
    arm_index: int | str | None = None  # int, or "all" to expand over every arm

    def label(self) -> str:
        if self.kind == bandit.FIXED_ARM:
            return f"fixed_arm_{self.arm_index}"
        return self.kind


@dataclass
class ExperimentConfig:
    arm_dims: list[bandit.GridDim]
    policies: list[PolicySpec]
    environment: dict
    T: int
    u: int
    seeds: list[int]
    output_dir: Path
    gp_init: dict = field(default_factory=dict)
    fit: dict = field(default_factory=dict)
    env_seed_offset: int = DEFAULT_ENV_SEED_OFFSET

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if self.T < 1 or self.u < 1:
            raise ConfigError("T and u must be at least 1")


def default_config_dict() -> dict:
    """The documented default configuration (see `print-default-config`)."""
    return {
        "arm_space": [{"name": "rho", "lower": 0.0, "upper": 0.5, "step": 0.05}],
        "policies": [
            {"kind": "gp_ts"},
            {"kind": "fixed_arm", "arm_index": "all"},
            {"kind": "uniform_random"},
        ],
        "environment": {
            "kind": "synthetic",
            "synthetic": {
                "initial_loss": 10.0,
                "floor": 1.5,
                "optimum": [0.3],
                "width": [0.08],
                "rate": 0.3,
                "noise_sd": 0.05,
            },
        },
        "T": 100,
        "u": 100,
        "seeds": [0, 1, 2, 3, 4],
        "env_seed_offset": DEFAULT_ENV_SEED_OFFSET,
        "output_dir": "runs",
        "gp": {
            "lengthscale": 0.1,
            "output_scale": 1.0,
            "noise_variance": 0.01,
            "mean_constant": 0.0,
        },
        "fit": {"restarts": 2, "max_evals": 60},
    }


def _parse_config(raw: dict) -> ExperimentConfig:
    try:
        dims = [
            bandit.GridDim(
                lower=float(d["lower"]),
                upper=float(d["upper"]),
                step=float(d["step"]),
                name=str(d.get("name", f"psi{i}")),
            )
            for i, d in enumerate(raw["arm_space"])
        ]
        policies = [
            PolicySpec(kind=str(p["kind"]), arm_index=p.get("arm_index"))
            for p in raw["policies"]
        ]
        cfg = ExperimentConfig(
            arm_dims=dims,
            policies=policies,
            environment=dict(raw["environment"]),
            T=int(raw["T"]),
            u=int(raw["u"]),
            seeds=[int(s) for s in raw["seeds"]],
            output_dir=Path(raw.get("output_dir", "runs")),
            gp_init=dict(raw.get("gp", {})),
            fit=dict(raw.get("fit", {})),
            env_seed_offset=int(raw.get("env_seed_offset", DEFAULT_ENV_SEED_OFFSET)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid experiment config: {exc}") from exc
    for p in cfg.policies:
        if p.kind not in (bandit.GP_TS, bandit.FIXED_ARM, bandit.UNIFORM_RANDOM):
            raise ConfigError(f"unknown policy kind: {p.kind!r}")
        if p.kind == bandit.FIXED_ARM and p.arm_index is None:
            raise ConfigError("fixed_arm policy needs arm_index (an index or 'all')")
    if cfg.environment.get("kind") not in ("synthetic", "test_function", "replay", "bridge"):
        raise ConfigError(f"unknown environment kind: {cfg.environment.get('kind')!r}")
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} is not a mapping")
    return _parse_config(raw)


def _gp_init_from_config(gp_cfg: dict, ndim: int) -> gp.GpHyperparams:
    base = bandit.default_gp_hyperparams(ndim)
    if not gp_cfg:
        return base
    ls = gp_cfg.get("lengthscale", base.kernel.lengthscales[0])
    lengthscales = tuple(ls) if isinstance(ls, (list, tuple)) else (float(ls),) * ndim
    return gp.GpHyperparams(
        mean=gp.MeanSpec(
            family="constant",
            constant_value=float(gp_cfg.get("mean_constant", 0.0)),
        ),
        kernel=gp.KernelSpec(
            family=gp_cfg.get("kernel", gp.MATERN52),
            lengthscales=lengthscales,
            output_scale=float(gp_cfg.get("output_scale", base.kernel.output_scale)),
        ),
        noise_variance=float(gp_cfg.get("noise_variance", base.noise_variance)),
    )


def _make_environment(env_cfg: dict, space: bandit.ArmSpace, env_seed: int):
    """Build the environment for one run; bad settings raise ``ConfigError``."""
    kind = env_cfg["kind"]
    try:
        if kind == "synthetic":
            raw = dict(env_cfg.get("synthetic", {}))
            for key in ("optimum", "width"):
                if key in raw:
                    raw[key] = tuple(raw[key])
            spec = environments.SyntheticPretrainSpec(**raw)
            return environments.SyntheticPretrainEnv(spec, seed=env_seed)
        if kind == "test_function":
            noise_sd = float(env_cfg.get("test_function", {}).get("noise_sd", 0.1))
            return environments.NoisyTestFunctionEnv(noise_sd=noise_sd, seed=env_seed)
        if kind == "replay":
            spec = environments.load_replay_csv(env_cfg["replay"]["path"])
            return environments.ReplayEnv(spec, space)
        if kind == "bridge":
            bcfg = dict(env_cfg.get("bridge", {}))
            transport = bcfg.get("transport") or bcfg.get("command")
            init_config = dict(bcfg.get("config", {}))
            init_config.setdefault("seed", env_seed)
            return bridge.bridge_connect(
                transport,
                arm_names=space.names,
                config=init_config,
                timeout_s=float(bcfg.get("timeout_s", 0.0)),
            )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {kind} environment: {exc}") from exc
    raise ConfigError(f"unknown environment kind: {kind!r}")


def _expand_policies(policies, space: bandit.ArmSpace) -> list[PolicySpec]:
    expanded = []
    for p in policies:
        if p.kind == bandit.FIXED_ARM and p.arm_index == "all":
            expanded.extend(
                PolicySpec(kind=bandit.FIXED_ARM, arm_index=i) for i in range(len(space))
            )
        else:
            expanded.append(p)
    return expanded


def _fmt(x) -> str:
    return repr(float(x))


def _run_csv_columns(space: bandit.ArmSpace) -> list[str]:
    return (
        ["seed", "policy", "interaction"]
        + [f"arm_{n}" for n in space.names]
        + [
            "val_loss",
            "reward",
            "cumulative_reward",
            "gp_lengthscales",
            "gp_output_scale",
            "gp_noise_variance",
            "gp_mean_constant",
        ]
    )


def write_run_csv(path, seed: int, label: str, hist: bandit.History, space) -> None:
    ndim = space.ndim
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_run_csv_columns(space))
        writer.writerow(
            [seed, label, 0] + [""] * ndim + [_fmt(hist.initial_loss), "", _fmt(0.0), "", "", "", ""]
        )
        cum = 0.0
        for i, rec in enumerate(hist.records):
            cum += rec.reward
            if hist.gp_trace:
                theta = hist.gp_trace[i]
                snapshot = [
                    json.dumps([float(v) for v in theta.kernel.lengthscales]),
                    _fmt(theta.kernel.output_scale),
                    _fmt(theta.noise_variance),
                    _fmt(theta.mean.value()),
                ]
            else:
                snapshot = ["", "", "", ""]
            writer.writerow(
                [seed, label, rec.interaction]
                + [_fmt(c) for c in rec.arm]
                + [_fmt(rec.loss_after), _fmt(rec.reward), _fmt(cum)]
                + snapshot
            )


def run_experiment(cfg: ExperimentConfig, out_dir=None, seeds=None) -> dict:
    """Execute every (policy, seed) run and write per-run plus summary CSVs.

    Environment and bridge failures are recorded per run without
    aborting sibling runs. Returns a summary mapping with the list of
    completed runs, any failures, and the summary CSV path.
    """
    out = Path(out_dir) if out_dir is not None else cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    seeds = list(seeds) if seeds is not None else cfg.seeds

    space = bandit.make_grid(cfg.arm_dims)
    gp_init = _gp_init_from_config(cfg.gp_init, space.ndim)
    fit_budget = gp.FitBudget(
        restarts=int(cfg.fit.get("restarts", 2)),
        max_evals=int(cfg.fit.get("max_evals", 60)),
        seed=int(cfg.fit.get("seed", 0)),
    )

    runs = []
    failures = []
    curves: dict[str, list[list[float]]] = {}
    for policy in _expand_policies(cfg.policies, space):
        label = policy.label()
        for seed in seeds:
            pc = bandit.PolicyConfig(
                kind=policy.kind,
                seed=seed,
                fixed_arm_index=policy.arm_index if policy.kind == bandit.FIXED_ARM else None,
                gp_init=gp_init,
                fit_budget=fit_budget,
            )
            path = out / f"{RUN_CSV_PREFIX}{label}_seed{seed}.csv"
            try:
                env = _make_environment(cfg.environment, space, cfg.env_seed_offset + seed)
                try:
                    hist = bandit.run_policy(space, pc, env, cfg.T, cfg.u)
                finally:
                    if hasattr(env, "close"):
                        env.close()
            except (EnvironmentFailure, BridgeError, DataError) as exc:
                failures.append({"policy": label, "seed": seed, "error": str(exc)})
                continue
            if hist.error is not None:
                failures.append({"policy": label, "seed": seed, "error": hist.error})
            write_run_csv(path, seed, label, hist, space)
            runs.append({"policy": label, "seed": seed, "path": str(path)})
            if hist.error is None:
                curves.setdefault(label, []).append(hist.losses())

    summary_path = out / SUMMARY_CSV_NAME
    with summary_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["policy", "interaction", "mean_val_loss", "sd_val_loss", "n"])
        for label in sorted(curves):
            series = curves[label]
            for t in range(len(series[0])):
                vals = [c[t] for c in series]
                mean = sum(vals) / len(vals)
                sd = math.sqrt(sum((v - mean) ** 2 for v in vals) / len(vals))
                writer.writerow([label, t, _fmt(mean), _fmt(sd), len(vals)])

    return {"runs": runs, "failures": failures, "summary": str(summary_path)}


# ---------------------------------------------------------------------------
# summarize


def _read_run_csv(path: Path) -> dict:
    try:
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise DataError(f"cannot read run CSV {path}: {exc}") from exc
    if not rows:
        raise DataError(f"run CSV {path} is empty")
    try:
        policy = rows[0]["policy"]
        seed = int(rows[0]["seed"])
        initial_loss = float(rows[0]["val_loss"])
        records = []
        for row in rows[1:]:
            records.append(
                {
                    "interaction": int(row["interaction"]),
                    "val_loss": float(row["val_loss"]),
                    "reward": float(row["reward"]),
                    "cumulative_reward": float(row["cumulative_reward"]),
                    "arm": tuple(
                        float(row[k]) for k in row if k.startswith("arm_") and row[k] != ""
                    ),
                }
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed run CSV {path}: {exc}") from exc
    return {
        "path": path,
        "policy": policy,
        "seed": seed,
        "initial_loss": initial_loss,
        "records": records,
    }


def summarize(run_dir) -> dict:
    """Aggregate the run CSVs in a directory into a report.

    Reports per-policy final-loss and cumulative-reward statistics plus
    arm-selection frequencies, and verifies the telescoping identity
    (sum of rewards = initial loss - final loss) on every run.
    """
    run_dir = Path(run_dir)
    paths = sorted(run_dir.glob(f"{RUN_CSV_PREFIX}*.csv"))
    if not paths:
        raise DataError(f"no run CSVs found in {run_dir}")

    by_policy: dict[str, list[dict]] = {}
    violations = []
    for path in paths:
        run = _read_run_csv(path)
        by_policy.setdefault(run["policy"], []).append(run)
        if run["records"]:
            total = sum(r["reward"] for r in run["records"])
            expected = run["initial_loss"] - run["records"][-1]["val_loss"]
            scale = max(abs(expected), 1.0)
            if abs(total - expected) > 1e-9 * scale:
                violations.append(
                    {"path": str(path), "sum_rewards": total, "expected": expected}
                )
            running = 0.0
            for r in run["records"]:
                running += r["reward"]
                if abs(r["cumulative_reward"] - running) > 1e-9 * max(abs(running), 1.0):
                    violations.append(
                        {
                            "path": str(path),
                            "interaction": r["interaction"],
                            "column": r["cumulative_reward"],
                            "recomputed": running,
                        }
                    )
                    break

    policies = {}
    for label, runs in sorted(by_policy.items()):
        finals = [r["records"][-1]["val_loss"] for r in runs if r["records"]]
        cums = [r["records"][-1]["cumulative_reward"] for r in runs if r["records"]]
        arm_counts: dict[tuple, int] = {}
        total_pulls = 0
        for r in runs:
            for rec in r["records"]:
                arm_counts[rec["arm"]] = arm_counts.get(rec["arm"], 0) + 1
                total_pulls += 1
        freq = {
            str(list(arm)): count / total_pulls for arm, count in sorted(arm_counts.items())
        }
        policies[label] = {
            "runs": len(runs),
            "final_loss_mean": sum(finals) / len(finals) if finals else None,
            "final_loss_sd": statistics.pstdev(finals) if len(finals) > 1 else 0.0,
            "cumulative_reward_mean": sum(cums) / len(cums) if cums else None,
            "arm_frequencies": freq,
        }

    finals = {
        label: stats["final_loss_mean"]
        for label, stats in policies.items()
        if stats["final_loss_mean"] is not None
    }
    best_policy = min(finals, key=finals.get) if finals else None
    return {
        "policies": policies,
        "best_policy": best_policy,
        "telescoping_violations": violations,
    }


def format_report(report: dict) -> str:
    lines = ["policy                     runs  final_loss(mean±sd)   cum_reward(mean)"]
    for label, st in report["policies"].items():
        lines.append(
            f"{label:<26} {st['runs']:>4}  "
            f"{st['final_loss_mean']:.6f}±{st['final_loss_sd']:.6f}   "
            f"{st['cumulative_reward_mean']:.6f}"
        )
    lines.append(f"best policy by final loss: {report['best_policy']}")
    if report["telescoping_violations"]:
        lines.append("TELESCOPING VIOLATIONS:")
        for v in report["telescoping_violations"]:
            lines.append(f"  {v}")
    else:
        lines.append("telescoping identity verified on all runs")
    return "\n".join(lines)
