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

from dataclasses import asdict, dataclass, replace
from pathlib import Path

import yaml

from . import bandit, bridge, environments, gp
from .errors import RUN_FAILURES, ConfigError, is_integer

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


@dataclass
class ExperimentConfig:
    space: environments.ArmSpace
    policies: list[bandit.PolicySpec]  # a fixed_arm "all" is one spec per arm
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
        for name, value in [("T", self.T), ("u", self.u), ("env_seed_offset", self.env_seed_offset),
                            *(("seeds", s) for s in self.seeds)]:
            if not is_integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.T < 1 or self.u < 1:
            raise ConfigError("T and u must be at least 1")
        # a repeated (policy, seed) pair would write its run CSV twice
        labels = [p.label() for p in self.policies]
        for name, values in [("seeds", self.seeds), ("policies", labels)]:
            if len(set(values)) < len(values):
                raise ConfigError(f"{name} must be distinct, got {values}")
        # numpy seeds its generators from non-negative integers only
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be non-negative, got {self.seeds}")
        if self.env_seed_offset + min(self.seeds) < 0:
            raise ConfigError(
                f"env_seed_offset + seed must be non-negative, got {self.env_seed_offset}"
                f" + {min(self.seeds)}"
            )

    # only perfbench reads this
    @property
    def arm_dims(self) -> list[environments.GridDim]:
        return list(self.space.dims)


def default_config_dict() -> dict:
    """The documented default configuration (see `print-default-config`)."""
    theta, budget = bandit.default_gp_hyperparams(1), gp.FitBudget()
    return {
        "arm_space": [{"name": "rho", "lower": 0.0, "upper": 0.5, "step": 0.05}],
        "policies": [
            {"kind": "gp_ts"},
            {"kind": "fixed_arm", "arm_index": "all"},
            {"kind": "uniform_random"},
        ],
        "environment": {
            "kind": "synthetic",
            "synthetic": asdict(environments.SyntheticPretrainSpec()),
        },
        "T": 100,
        "u": 100,
        "seeds": [0, 1, 2, 3, 4],
        "env_seed_offset": DEFAULT_ENV_SEED_OFFSET,
        "output_dir": "runs",
        "gp": {
            "lengthscale": theta.lengthscales[0],
            "output_scale": theta.output_scale,
            "noise_variance": theta.noise_variance,
            "mean_constant": theta.mean_constant,
        },
        "fit": {"restarts": budget.restarts, "max_evals": budget.max_evals},
    }


def _parse_config(raw: dict) -> ExperimentConfig:
    """Parse and validate a config, building the arm grid, the GP's
    initial hyperparameters and the fit budget, so any invalid value is a
    ``ConfigError`` before a run starts. Each section is passed as
    keyword arguments to the constructor that owns its fields, defaults
    and checks, so an unknown key is an error too."""
    raw = dict(raw)
    try:
        space = environments.make_grid(raw.pop("arm_space"))
        cfg = ExperimentConfig(
            space=space,
            policies=[spec for p in raw.pop("policies") for spec in _policy_specs(p, len(space))],
            environment=dict(raw.pop("environment")),
            T=raw.pop("T"),
            u=raw.pop("u"),
            seeds=list(raw.pop("seeds")),
            output_dir=Path(raw.pop("output_dir", "runs")),
            gp_init=_gp_init_from_config(raw.pop("gp", {}), space.ndim),
            fit_budget=gp.FitBudget(**raw.pop("fit", {})),
            env_seed_offset=raw.pop("env_seed_offset", DEFAULT_ENV_SEED_OFFSET),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid experiment config: {exc}") from exc
    if raw:
        raise ConfigError(f"unknown config keys: {sorted(map(str, raw))}")
    kind = cfg.environment.get("kind")
    if not isinstance(kind, str) or kind not in _ENVIRONMENTS:
        raise ConfigError(f"unknown environment kind: {kind!r}")
    return cfg


def _policy_specs(policy: dict, n_arms: int) -> list[bandit.PolicySpec]:
    """The specs of one entry of ``policies`` on a grid of ``n_arms``
    arms: a ``fixed_arm`` with ``arm_index: all`` is one spec per arm, in
    arm order, and any other index must be one of the grid's."""
    every_arm = isinstance(policy, dict) and policy.get("arm_index") == "all"
    if every_arm and policy.get("kind") == bandit.FIXED_ARM:
        return [bandit.PolicySpec(**{**policy, "arm_index": i}) for i in range(n_arms)]
    spec = bandit.PolicySpec(**policy)
    if spec.kind == bandit.FIXED_ARM and spec.arm_index >= n_arms:
        raise ConfigError(f"fixed_arm arm_index {spec.arm_index} is not in [0, {n_arms})")
    return [spec]


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
    """The ``gp`` section: ``gp.GpHyperparams``' keywords, except that
    ``lengthscale`` (by default ``bandit.default_gp_hyperparams``') is one
    number for every arm dimension or a list of one per dimension."""
    gp_cfg = dict(gp_cfg)
    ls = gp_cfg.pop("lengthscale", bandit.default_gp_hyperparams(ndim).lengthscales)
    lengthscales = tuple(ls) if isinstance(ls, (list, tuple)) else (ls,) * ndim
    if len(lengthscales) != ndim:
        raise ConfigError(f"gp.lengthscale needs one value per arm dimension ({ndim})")
    return gp.GpHyperparams(lengthscales=lengthscales, **gp_cfg)


def _synthetic_env(space: environments.ArmSpace, env_seed: int, **settings):
    spec = environments.SyntheticPretrainSpec(**settings)
    if len(spec.optimum) != space.ndim:
        raise ConfigError(f"optimum has {len(spec.optimum)} dimensions, the arm grid {space.ndim}")
    return environments.SyntheticPretrainEnv(spec, seed=env_seed)


def _test_function_env(space: environments.ArmSpace, env_seed: int, **settings):
    if space.ndim != 1:
        raise ConfigError(f"the test function is 1-D, the arm grid {space.ndim}-D")
    return environments.NoisyTestFunctionEnv(**settings, seed=env_seed)


def _bridge_env(space: environments.ArmSpace, env_seed: int, *, transport=None, command=None,
                config=None, **connect):
    if transport is not None and command is not None:
        raise ConfigError("bridge takes one of transport and command, not both")
    # the Init config: the user's keys in their order, then the run's seed unless given
    init_config = {} if config is None else dict(config)
    init_config.setdefault("seed", env_seed)
    return bridge.bridge_connect(
        transport or command, arm_names=space.names, config=init_config, **connect
    )


# Environment kind -> builder of one run's environment from the arm space,
# the seed and the kind's own settings section (``environment[kind]``) as
# keyword arguments.
_ENVIRONMENTS = {
    "synthetic": _synthetic_env,
    "test_function": _test_function_env,
    "replay": lambda space, seed, *, path: environments.ReplayEnv(
        environments.load_replay_csv(path), space
    ),
    "bridge": _bridge_env,
}


def _make_environment(env_cfg: dict, space: environments.ArmSpace, env_seed: int):
    """Build the environment for one run; bad settings raise ``ConfigError``."""
    kind = env_cfg["kind"]
    try:
        return _ENVIRONMENTS[kind](space, env_seed, **env_cfg.get(kind, {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {kind} environment: {exc}") from exc


def run_experiment(cfg: ExperimentConfig, out_dir=None, seeds=None) -> dict:
    """Execute every (policy, seed) run and write per-run plus summary CSVs.

    ``seeds`` replaces the config's seeds and is checked as they are, so
    an invalid one is a ``ConfigError`` before any run starts. A run
    ended by one of ``errors.RUN_FAILURES`` is recorded without aborting
    sibling runs. An output directory that cannot be made, or a CSV that
    cannot be written, is a ``ConfigError`` that ends the experiment; the
    CSVs of the runs before it stay. Returns a summary mapping with the
    list of completed runs, any failures, and the summary CSV path.
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
    for policy in cfg.policies:
        label = policy.label()
        for seed in cfg.seeds:
            path = out / f"{RUN_CSV_PREFIX}{label}_seed{seed}.csv"
            try:
                env = _make_environment(cfg.environment, cfg.space, cfg.env_seed_offset + seed)
                try:
                    hist = bandit.run_policy(cfg.space, policy, env, cfg.T, cfg.u, seed=seed,
                                             gp_init=cfg.gp_init, fit_budget=cfg.fit_budget)
                finally:
                    if hasattr(env, "close"):
                        env.close()
            except RUN_FAILURES as exc:
                failures.append({"policy": label, "seed": seed, "error": str(exc)})
                continue
            if hist.error is not None:
                failures.append({"policy": label, "seed": seed, "error": hist.error})
            try:
                write_run_csv(path, seed, label, hist, cfg.space)
            except OSError as exc:
                raise ConfigError(f"cannot write {path}: {exc}") from exc
            runs.append({"policy": label, "seed": seed, "path": str(path)})
            if hist.error is None:
                curves.setdefault(label, []).append(hist.losses())

    summary_path = out / SUMMARY_CSV_NAME
    try:
        write_summary_csv(summary_path, curves)
    except OSError as exc:
        raise ConfigError(f"cannot write {summary_path}: {exc}") from exc

    return {"runs": runs, "failures": failures, "summary": str(summary_path)}
