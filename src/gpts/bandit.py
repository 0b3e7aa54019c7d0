"""Thompson-sampling bandit over a finite hyperparameter grid.

The policy models the per-interaction reward (the decrease in validation
loss between consecutive interactions) with a GP, draws one joint sample
of the posterior over all arms, and plays the argmax. Fixed-arm and
uniform-random baselines share the same run loop. The arm-space and
observation types are defined in ``environments`` and re-exported here.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import gp
from .environments import Arm, ArmSpace, GridDim, LossObservation, make_grid
from .errors import BridgeError, DataError, EnvironmentFailure, InvalidArgumentError, NumericalError

__all__ = [
    "Arm",
    "GridDim",
    "ArmSpace",
    "LossObservation",
    "RewardRecord",
    "History",
    "PolicyConfig",
    "GP_TS",
    "FIXED_ARM",
    "UNIFORM_RANDOM",
    "POLICY_KINDS",
    "make_grid",
    "reward_from_losses",
    "cumulative_reward",
    "history_from_losses",
    "default_gp_hyperparams",
    "ts_select_arm",
    "run_policy",
]

GP_TS = "gp_ts"
FIXED_ARM = "fixed_arm"
UNIFORM_RANDOM = "uniform_random"
POLICY_KINDS = (GP_TS, FIXED_ARM, UNIFORM_RANDOM)


class RewardRecord(NamedTuple):
    # a NamedTuple rather than a dataclass: History.records builds one per
    # interaction on every read, and tuple construction is cheaper
    interaction: int
    arm: Arm
    reward: float
    loss_before: float
    loss_after: float


@dataclass
class History:
    """Interaction log of one run, kept as columns.

    ``arms[i]`` is the arm played at interaction ``initial_interaction +
    i + 1`` and ``losses_after[i]`` the validation loss observed after
    it; rewards and ``records`` are derived from these on read.
    ``error`` is set (and the history left partial) when the environment
    fails mid-run.
    """

    initial_loss: float
    arms: list[Arm] = field(default_factory=list)
    losses_after: list[float] = field(default_factory=list)
    initial_interaction: int = 0
    error: str | None = None
    # One entry per interaction for GP-TS runs (the hyperparameters used
    # to select that interaction's arm); empty for baseline policies.
    gp_trace: list[gp.GpHyperparams] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.arms)

    @property
    def final_loss(self) -> float:
        return self.losses_after[-1] if self.losses_after else self.initial_loss

    def losses(self) -> list[float]:
        """The loss trajectory (initial loss first)."""
        return [self.initial_loss, *self.losses_after]

    def rewards(self) -> list[float]:
        """The reward of each interaction, in order: the drop in loss."""
        losses = self.losses()
        return list(map(operator.sub, losses[:-1], losses[1:]))

    @property
    def records(self) -> list[RewardRecord]:
        """One RewardRecord per interaction, built from the columns."""
        losses = self.losses()
        return [
            RewardRecord(t, arm, before - after, before, after)
            for t, arm, before, after in zip(
                itertools.count(self.initial_interaction + 1), self.arms, losses[:-1], losses[1:]
            )
        ]


def _check_consecutive(prev: LossObservation, curr: LossObservation) -> None:
    if curr.interaction != prev.interaction + 1:
        raise InvalidArgumentError(
            f"non-consecutive interactions: {prev.interaction} -> {curr.interaction}"
        )


def reward_from_losses(
    prev: LossObservation, curr: LossObservation, arm: Arm
) -> RewardRecord:
    """Reward for one interaction: the drop in validation loss."""
    _check_consecutive(prev, curr)
    return RewardRecord(
        interaction=curr.interaction,
        arm=tuple(arm),
        reward=prev.validation_loss - curr.validation_loss,
        loss_before=prev.validation_loss,
        loss_after=curr.validation_loss,
    )


def cumulative_reward(h: History) -> float:
    """Sum of rewards in interaction order; telescopes to initial loss
    minus final loss."""
    return float(sum(h.rewards()))


def history_from_losses(losses, arms) -> History:
    """Build a History from a loss trajectory (initial loss first)."""
    losses = list(losses)
    arms = [tuple(arm) for arm in arms]
    if len(losses) != len(arms) + 1:
        raise InvalidArgumentError("need exactly one more loss than arms")
    return History(initial_loss=losses[0], arms=arms, losses_after=losses[1:])


def default_gp_hyperparams(ndim: int) -> gp.GpHyperparams:
    """Matérn-5/2 with ARD lengthscales and a constant mean."""
    return gp.GpHyperparams(
        mean=gp.MeanSpec(family="constant", constant_value=0.0),
        kernel=gp.KernelSpec(
            family=gp.MATERN52,
            lengthscales=(0.1,) * ndim,
            output_scale=1.0,
        ),
        noise_variance=0.01,
    )


@dataclass(frozen=True)
class PolicyConfig:
    kind: str = GP_TS
    seed: int = 0
    fixed_arm_index: int | None = None
    gp_init: gp.GpHyperparams | None = None
    fit_budget: gp.FitBudget = field(default_factory=lambda: gp.FitBudget(restarts=2, max_evals=60))

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise InvalidArgumentError(f"unknown policy kind: {self.kind!r}")
        if self.kind == FIXED_ARM and self.fixed_arm_index is None:
            raise InvalidArgumentError("fixed_arm policy needs fixed_arm_index")


def ts_select_arm(
    space: ArmSpace, post: gp.PosteriorGp, rng: np.random.Generator
) -> tuple[Arm, int]:
    """Draw one joint posterior sample over all arms and play the argmax.

    Ties break toward the lowest arm index.
    """
    if len(space) == 0:
        raise InvalidArgumentError("arm space is empty")
    sample = post.sample_joint(space.as_array(), rng)
    idx = int(np.argmax(sample))
    return space.arms[idx], idx


def run_policy(space: ArmSpace, cfg: PolicyConfig, env, T: int, u: int) -> History:
    """Run one policy for T interactions of u trainer updates each.

    GP-TS: per interaction, sample the reward posterior jointly over the
    arms, play the argmax, observe the loss, convert it to a reward, and
    refit the GP on the full history (warm-started from the previous
    fit, which is kept whenever refitting fails or degrades). Baselines
    replace the selection step and maintain no GP.

    Environment failures (a replay gap included) and a GP posterior that
    cannot be factored for selection (``NumericalError``) abort the run;
    the partial history is returned with its ``error`` field set. A
    non-finite validation loss means the training diverged: from ``step``
    it ends the run the same way, without recording that interaction;
    from ``init`` it raises ``EnvironmentFailure``.
    """
    if T < 1 or u < 1:
        raise InvalidArgumentError("T and u must be at least 1")
    if cfg.kind == FIXED_ARM and not (0 <= cfg.fixed_arm_index < len(space)):
        raise InvalidArgumentError(
            f"fixed_arm_index {cfg.fixed_arm_index} out of range for {len(space)} arms"
        )

    rng = np.random.default_rng(cfg.seed)
    prev = env.init()
    if not math.isfinite(prev.validation_loss):
        raise EnvironmentFailure(f"init: diverged (validation loss {prev.validation_loss})")
    hist = History(initial_loss=prev.validation_loss, initial_interaction=prev.interaction)

    theta = cfg.gp_init or default_gp_hyperparams(space.ndim)
    data = gp.RegressionData.empty(space.ndim)

    for t in range(1, T + 1):
        if cfg.kind == GP_TS:
            try:
                arm, _ = ts_select_arm(space, gp.PosteriorGp(theta, data), rng)
            except NumericalError as exc:
                hist.error = f"interaction {t}: numerical: {exc}"
                return hist
        elif cfg.kind == FIXED_ARM:
            arm = space.arms[cfg.fixed_arm_index]
        else:
            arm = space.arms[int(rng.integers(len(space)))]

        try:
            obs = env.step(arm, u)
        except (EnvironmentFailure, BridgeError, DataError) as exc:
            hist.error = f"interaction {t}: {exc}"
            return hist
        if not math.isfinite(obs.validation_loss):
            hist.error = f"interaction {t}: diverged (validation loss {obs.validation_loss})"
            return hist

        _check_consecutive(prev, obs)
        hist.arms.append(arm)
        hist.losses_after.append(obs.validation_loss)
        prev = obs

        if cfg.kind == GP_TS:
            hist.gp_trace.append(theta)
            data = gp.RegressionData(hist.arms, hist.rewards())
            if t >= 2:
                theta = gp.fit_type2_mle(data, theta, cfg.fit_budget)

    return hist
