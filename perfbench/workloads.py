"""The benchmark's workloads: an experiment config generated from the
bench seed, and the ground truth that regret is measured against.

A run cycles through ``configs`` configs that differ only in their
policy and environment seeds, all derived from the bench seed. Grid
sizes, horizons, fit budgets and the true functions are fixed, so every
config asks the program for nearly the same amount of work; the cycle
keeps each repetition short while regret and the decision times are
taken over every seed of the run.
"""

from __future__ import annotations

import csv
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gpts import bandit, environments

ONE_D_GRID = [{"name": "rho", "lower": 0.0, "upper": 0.5, "step": 0.05}]  # 9 arms
# Four arms: each fixed-arm run spawns a trainer, and spawning dominates.
COARSE_1D_GRID = [{"name": "rho", "lower": 0.0, "upper": 0.5, "step": 0.1}]
THREE_D_GRID = [
    {"name": n, "lower": 0.0, "upper": 1.0, "step": 0.1} for n in ("rho", "gamma", "lambda")
]  # 9 x 9 x 9 = 729 arms

GRID_3D_SPEC = {
    "initial_loss": 10.0,
    "floor": 1.5,
    "optimum": [0.3, 0.6, 0.5],
    "width": [0.25, 0.25, 0.25],
    "rate": 0.15,
    "noise_sd": 0.05,
}
BRIDGE_SPEC = {
    "initial_loss": 10.0,
    "floor": 1.5,
    "optimum": [0.3],
    "width": [0.08],
    "rate": 0.15,
    "noise_sd": 0.05,
}


def _efficiency(spec: dict) -> Callable[[tuple], float]:
    parsed = environments.SyntheticPretrainSpec(
        **{k: tuple(v) if isinstance(v, list) else v for k, v in spec.items()}
    )
    return lambda arm: environments.efficiency(parsed, arm)


@dataclass(frozen=True)
class Workload:
    name: str
    configs: int
    seeds_per_config: int
    T: int
    config: Callable[[list[int]], dict]
    # True value of an arm, higher is better; regret is the best arm's value
    # minus the played arm's.
    arm_value: Callable[[tuple], float]
    # decision_ms counts the interactions of this policy only. In a mix,
    # another policy's decisions would split the median: uniform's take
    # microseconds against GP-TS's milliseconds, and on the bridge its
    # numpy draw makes its per-run decision time vary up to twofold.
    timed_policy: str
    # Each decision keeps its shortest time over the first ``best_of``
    # untraced runs of its config. Interference on a shared host comes and
    # goes within milliseconds: a decision of microseconds either misses it
    # or not, so the best of a few runs finds its cost, while a decision of
    # milliseconds averages over it and gains little. A fixed count keeps
    # the estimate the same whatever the number of repetitions that fit in
    # a run.
    best_of: int
    # (better, worse): mean regret of the first policy must be below the second's.
    regret_order: tuple[str, str] | None = None
    # Traced shares of wall time predicted to exceed one half.
    dominant: tuple[str, ...] = ()
    # Predicted to record no gp spans at all.
    gp_free: bool = False

    def make_config(self, bench_seed: int, k: int) -> dict:
        """The k-th config (0 <= k < configs) of a run with this bench seed."""
        n = self.seeds_per_config
        first = (bench_seed * self.configs + k) * n
        return {**self.config(list(range(first, first + n))), "T": self.T}


def _regret_1d(seeds: list[int]) -> dict:
    return {
        "arm_space": ONE_D_GRID,
        "policies": [{"kind": "gp_ts"}, {"kind": "uniform_random"}],
        "environment": {"kind": "test_function", "test_function": {"noise_sd": 0.1}},
        "u": 1,
        "seeds": seeds,
        "fit": {"restarts": 2, "max_evals": 40},
    }


def _grid_3d(seeds: list[int]) -> dict:
    return {
        "arm_space": THREE_D_GRID,
        "policies": [{"kind": "gp_ts"}],
        "environment": {"kind": "synthetic", "synthetic": GRID_3D_SPEC},
        "u": 100,
        "seeds": seeds,
    }


def _trainer_command() -> list[str]:
    """``gpts mock-trainer`` on stdio, pinned to the CPUs that run.py left
    free of the bench; on the bench's own CPU when there are none."""
    args = ["mock-trainer", "--transport", "stdio"]
    cpus = os.environ.get("PERFBENCH_TRAINER_CPUS")
    if not cpus:
        return [sys.executable, "-m", "gpts.cli", *args]
    pinned = ("import os, runpy; "
              f"os.sched_setaffinity(0, {{{cpus}}}); "
              "runpy.run_module('gpts.cli', run_name='__main__', alter_sys=True)")
    return [sys.executable, "-c", pinned, *args]


def _bridge_baselines(seeds: list[int]) -> dict:
    trainer = _trainer_command()
    return {
        "arm_space": COARSE_1D_GRID,
        "policies": [{"kind": "fixed_arm", "arm_index": "all"}, {"kind": "uniform_random"}],
        "environment": {
            "kind": "bridge",
            "bridge": {"command": trainer, "config": {"synthetic": BRIDGE_SPEC}},
        },
        "u": 100,
        "seeds": seeds,
    }


REGRET_1D = Workload(
    name="regret_1d",
    configs=6,
    seeds_per_config=2,
    T=100,
    config=_regret_1d,
    arm_value=lambda arm: -environments.test_function(arm[0]),
    timed_policy=bandit.GP_TS,
    best_of=1,
    regret_order=(bandit.GP_TS, bandit.UNIFORM_RANDOM),
    dominant=("gp.fit.share",),
)
GRID_3D = Workload(
    name="grid_3d",
    configs=16,
    seeds_per_config=3,
    T=6,
    config=_grid_3d,
    arm_value=_efficiency(GRID_3D_SPEC),
    timed_policy=bandit.GP_TS,
    best_of=1,
    dominant=("bandit.select.share",),
)
BRIDGE_BASELINES = Workload(
    name="bridge_baselines",
    configs=1,
    seeds_per_config=1,
    T=1000,
    config=_bridge_baselines,
    arm_value=_efficiency(BRIDGE_SPEC),
    timed_policy=bandit.FIXED_ARM,
    best_of=6,
    dominant=("bridge.share",),
    gp_free=True,
)
WORKLOADS = {w.name: w for w in (REGRET_1D, GRID_3D, BRIDGE_BASELINES)}


def read_regrets(workload: Workload, out_dir: Path, space: bandit.ArmSpace) -> dict[str, list[list[float]]]:
    """Per policy label, the per-interaction regrets of each run CSV."""
    best = max(workload.arm_value(arm) for arm in space.arms)
    columns = [f"arm_{n}" for n in space.names]
    regrets: dict[str, list[list[float]]] = {}
    for path in sorted(out_dir.glob("run_*.csv")):
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        run = [best - workload.arm_value(tuple(float(r[c]) for c in columns)) for r in rows[1:]]
        regrets.setdefault(rows[0]["policy"], []).append(run)
    return regrets
