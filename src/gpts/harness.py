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

import operator
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from . import bandit, bridge, environments, gp
from .errors import RUN_FAILURES, ConfigError

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
    space: bandit.ArmSpace
    policies: list[PolicySpec]
    environment: dict
    T: int
    u: int
    seeds: list[int]
    output_dir: Path
    gp_init: gp.GpHyperparams
    fit_budget: gp.FitBudget
    env_seed_offset: int = DEFAULT_ENV_SEED_OFFSET

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if self.T < 1 or self.u < 1:
            raise ConfigError("T and u must be at least 1")
        # numpy seeds its generators from non-negative integers only
        if min(self.seeds) < 0 or self.fit_budget.seed < 0:
            raise ConfigError(
                f"seeds and fit.seed must be non-negative,"
                f" got {self.seeds} and {self.fit_budget.seed}"
            )
        if self.env_seed_offset + min(self.seeds) < 0:
            raise ConfigError(
                f"env_seed_offset + seed must be non-negative, got {self.env_seed_offset}"
                f" + {min(self.seeds)}"
            )


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
    """Parse and validate a config, building the arm grid, the GP's
    initial hyperparameters and the fit budget, so any invalid value is a
    ``ConfigError`` before a run starts."""
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
        space = bandit.make_grid(dims)
        fit = dict(raw.get("fit", {}))
        cfg = ExperimentConfig(
            arm_dims=dims,
            space=space,
            policies=policies,
            environment=dict(raw["environment"]),
            # operator.index takes integers only, so 2.5 or "2" is an error
            T=operator.index(raw["T"]),
            u=operator.index(raw["u"]),
            seeds=[operator.index(s) for s in raw["seeds"]],
            output_dir=Path(raw.get("output_dir", "runs")),
            gp_init=_gp_init_from_config(dict(raw.get("gp", {})), space.ndim),
            fit_budget=gp.FitBudget(
                restarts=operator.index(fit.get("restarts", 2)),
                max_evals=operator.index(fit.get("max_evals", 60)),
                seed=operator.index(fit.get("seed", 0)),
            ),
            env_seed_offset=operator.index(raw.get("env_seed_offset", DEFAULT_ENV_SEED_OFFSET)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid experiment config: {exc}") from exc
    for p in cfg.policies:
        if p.kind not in bandit.POLICY_KINDS:
            raise ConfigError(f"unknown policy kind: {p.kind!r}")
        if p.kind == bandit.FIXED_ARM and p.arm_index != "all" and not (
            isinstance(p.arm_index, int) and 0 <= p.arm_index < len(cfg.space)
        ):
            raise ConfigError(
                f"fixed_arm policy needs arm_index 'all' or an index in [0, {len(cfg.space)}),"
                f" got {p.arm_index!r}"
            )
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
    ls = gp_cfg.get("lengthscale", base.kernel.lengthscales[0])
    lengthscales = tuple(map(float, ls)) if isinstance(ls, (list, tuple)) else (float(ls),) * ndim
    if len(lengthscales) != ndim:
        raise ConfigError(f"gp.lengthscale needs one value per arm dimension ({ndim})")
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


def _synthetic_env(settings: dict, space: bandit.ArmSpace, env_seed: int):
    spec = environments.SyntheticPretrainSpec(**settings)
    if len(spec.optimum) != space.ndim:
        raise ConfigError(f"optimum has {len(spec.optimum)} dimensions, the arm grid {space.ndim}")
    return environments.SyntheticPretrainEnv(spec, seed=env_seed)


def _test_function_env(settings: dict, space: bandit.ArmSpace, env_seed: int):
    if space.ndim != 1:
        raise ConfigError(f"the test function is 1-D, the arm grid {space.ndim}-D")
    return environments.NoisyTestFunctionEnv(float(settings.get("noise_sd", 0.1)), seed=env_seed)


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
    "synthetic": _synthetic_env,
    "test_function": _test_function_env,
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

    ``seeds`` replaces the config's seeds and is checked as they are, so
    an invalid one is a ``ConfigError`` before any run starts. A run
    ended by one of ``errors.RUN_FAILURES`` is recorded without aborting
    sibling runs. Returns a summary mapping with the list of completed
    runs, any failures, and the summary CSV path.
    """
    if seeds is not None:
        cfg = replace(cfg, seeds=list(seeds))
    out = Path(out_dir) if out_dir is not None else cfg.output_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc

    runs = []
    failures = []
    curves: dict[str, list[list[float]]] = {}
    for policy in _expand_policies(cfg.policies, cfg.space):
        label = policy.label()
        for seed in cfg.seeds:
            pc = bandit.PolicyConfig(
                kind=policy.kind,
                seed=seed,
                fixed_arm_index=policy.arm_index if policy.kind == bandit.FIXED_ARM else None,
                gp_init=cfg.gp_init,
                fit_budget=cfg.fit_budget,
            )
            path = out / f"{RUN_CSV_PREFIX}{label}_seed{seed}.csv"
            try:
                env = _make_environment(cfg.environment, cfg.space, cfg.env_seed_offset + seed)
                try:
                    hist = bandit.run_policy(cfg.space, pc, env, cfg.T, cfg.u)
                finally:
                    if hasattr(env, "close"):
                        env.close()
            except RUN_FAILURES as exc:
                failures.append({"policy": label, "seed": seed, "error": str(exc)})
                continue
            if hist.error is not None:
                failures.append({"policy": label, "seed": seed, "error": hist.error})
            write_run_csv(path, seed, label, hist, cfg.space)
            runs.append({"policy": label, "seed": seed, "path": str(path)})
            if hist.error is None:
                curves.setdefault(label, []).append(hist.losses())

    summary_path = out / SUMMARY_CSV_NAME
    write_summary_csv(summary_path, curves)

    return {"runs": runs, "failures": failures, "summary": str(summary_path)}
