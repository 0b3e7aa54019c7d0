"""Experiment runner: multi-seed policy comparisons.

A YAML config declares the arm grid, the policies to compare, the
environment, the interaction/update budget, and the seeds. Each
(policy, seed) pair is run on its own environment and logged to one run
CSV, and a summary CSV is written over the completed runs; ``report``
owns both formats and reads them back. A run that fails (its trainer,
its environment or the GP's numerics) is recorded as a failure, with the
CSV of its partial history, and the sibling runs still complete.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml

from . import bandit, bridge, environments, gp
from .errors import BridgeError, ConfigError, DataError, EnvironmentFailure

# perfbench wraps ``harness.write_run_csv`` and ``harness.summarize`` by
# attribute, so both stay bound here and run_experiment calls the global.
from .report import RUN_CSV_PREFIX, SUMMARY_CSV_NAME, summarize, write_run_csv, write_summary_csv

__all__ = [
    "ExperimentConfig",
    "load_config",
    "default_config_dict",
    "run_experiment",
]

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
        if p.kind not in bandit.POLICY_KINDS:
            raise ConfigError(f"unknown policy kind: {p.kind!r}")
        if p.kind == bandit.FIXED_ARM and p.arm_index is None:
            raise ConfigError("fixed_arm policy needs arm_index (an index or 'all')")
    kind = cfg.environment.get("kind")
    if not isinstance(kind, str) or kind not in _ENVIRONMENTS:
        raise ConfigError(f"unknown environment kind: {kind!r}")
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


def _bridge_env(settings: dict, space: bandit.ArmSpace, env_seed: int):
    init_config = dict(settings.get("config", {}))
    init_config.setdefault("seed", env_seed)
    return bridge.bridge_connect(
        settings.get("transport") or settings.get("command"),
        arm_names=space.names,
        config=init_config,
        timeout_s=float(settings.get("timeout_s", 0.0)),
    )


# Environment kind -> builder of one run's environment from the kind's own
# settings section (``environment[kind]``), the arm space and the seed.
_ENVIRONMENTS = {
    "synthetic": lambda settings, space, seed: environments.SyntheticPretrainEnv(
        environments.SyntheticPretrainSpec(**settings), seed=seed
    ),
    "test_function": lambda settings, space, seed: environments.NoisyTestFunctionEnv(
        noise_sd=float(settings.get("noise_sd", 0.1)), seed=seed
    ),
    "replay": lambda settings, space, seed: environments.ReplayEnv(
        environments.load_replay_csv(settings["path"]), space
    ),
    "bridge": _bridge_env,
}


def _make_environment(env_cfg: dict, space: bandit.ArmSpace, env_seed: int):
    """Build the environment for one run; bad settings raise ``ConfigError``."""
    kind = env_cfg["kind"]
    try:
        return _ENVIRONMENTS[kind](env_cfg.get(kind, {}), space, env_seed)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {kind} environment: {exc}") from exc


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


def run_experiment(cfg: ExperimentConfig, out_dir=None, seeds=None) -> dict:
    """Execute every (policy, seed) run and write per-run plus summary CSVs.

    Environment, bridge and numerical failures are recorded per run
    without aborting sibling runs. Returns a summary mapping with the
    list of completed runs, any failures, and the summary CSV path.
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
    write_summary_csv(summary_path, curves)

    return {"runs": runs, "failures": failures, "summary": str(summary_path)}
