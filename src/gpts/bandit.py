"""Thompson-sampling bandit over a finite hyperparameter grid.

The policy models the per-interaction reward (the decrease in validation
loss between consecutive interactions) with a GP, draws one joint sample
of the posterior over all arms, and plays the argmax. Fixed-arm and
uniform-random baselines share the same run loop, which alone numbers
the interactions. The arm-space types are defined in ``environments``
and re-exported here.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import gp
from .environments import Arm, ArmSpace, GridDim, make_grid
from .errors import RUN_FAILURES, EnvironmentFailure, InvalidArgumentError, NumericalError

__all__ = [
    "Arm",
    "GridDim",
    "ArmSpace",
    "History",
    "PolicyConfig",
    "GP_TS",
    "FIXED_ARM",
    "UNIFORM_RANDOM",
    "POLICY_KINDS",
    "make_grid",
    "cumulative_reward",
    "history_from_losses",
    "default_gp_hyperparams",
    "DEFAULT_FIT_BUDGET",
    "ts_select_arm",
    "run_policy",
]

GP_TS = "gp_ts"
FIXED_ARM = "fixed_arm"
UNIFORM_RANDOM = "uniform_random"
POLICY_KINDS = (GP_TS, FIXED_ARM, UNIFORM_RANDOM)


@dataclass
class History:
    """Interaction log of one run, kept as columns.

    ``arms[i]`` is the arm played at interaction ``i + 1`` and
    ``losses_after[i]`` the validation loss observed after it; the
    rewards are derived from these on read.
    ``gp_trace[i]`` holds the GP hyperparameters that selected
    ``arms[i]``; it is empty for the baseline policies. ``error`` is set
    (and the history left partial) when a failure ends the run.
    """

    initial_loss: float
    arms: list[Arm] = field(default_factory=list)
    losses_after: list[float] = field(default_factory=list)
    error: str | None = None
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


# The fit budget of a policy, and of a config without a ``fit`` section.
DEFAULT_FIT_BUDGET = gp.FitBudget(restarts=2, max_evals=60)


@dataclass(frozen=True)
class PolicyConfig:
    kind: str = GP_TS
    seed: int = 0
    fixed_arm_index: int | None = None
    gp_init: gp.GpHyperparams | None = None
    fit_budget: gp.FitBudget = DEFAULT_FIT_BUDGET

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
    """Run one policy for T interactions (numbered 1..T here) of u updates each.

    GP-TS: per interaction, refit the GP on the history so far
    (warm-started from the previous fit, which is kept whenever refitting
    fails or degrades; from the third interaction on, so a run of T
    interactions fits T - 2 times), sample the reward posterior jointly
    over the arms, play the argmax, observe the loss and convert it to a
    reward. Baselines replace the selection step and maintain no GP.

    A failure in ``errors.RUN_FAILURES`` during an interaction ends the
    run: the partial history is returned with its ``error`` field set to
    ``"interaction t: ..."``, and interaction t is not recorded. A
    non-finite validation loss from ``step`` means the training diverged
    and ends the run the same way (``diverged (validation loss nan)``); a
    GP posterior that cannot be factored reads ``numerical: ...``. A
    non-finite loss from ``init`` raises ``EnvironmentFailure``. Any other
    exception is a programming error and propagates.
    """
    if T < 1 or u < 1:
        raise InvalidArgumentError("T and u must be at least 1")
    if cfg.kind == FIXED_ARM and not (0 <= cfg.fixed_arm_index < len(space)):
        raise InvalidArgumentError(
            f"fixed_arm_index {cfg.fixed_arm_index} out of range for {len(space)} arms"
        )

    rng = np.random.default_rng(cfg.seed)
    loss = env.init()
    if not math.isfinite(loss):
        raise EnvironmentFailure(f"init: diverged (validation loss {loss})")
    hist = History(initial_loss=loss)

    theta = cfg.gp_init or default_gp_hyperparams(space.ndim)
    data = gp.RegressionData.empty(space.ndim)

    for t in range(1, T + 1):
        try:
            if cfg.kind == GP_TS:
                if t >= 2:
                    data = gp.RegressionData(hist.arms, hist.rewards())
                if t >= 3:
                    theta = gp.fit_type2_mle(data, theta, cfg.fit_budget)
                arm, _ = ts_select_arm(space, gp.PosteriorGp(theta, data), rng)
            elif cfg.kind == FIXED_ARM:
                arm = space.arms[cfg.fixed_arm_index]
            else:
                arm = space.arms[int(rng.integers(len(space)))]
            loss = env.step(arm, u)
            if not math.isfinite(loss):
                raise EnvironmentFailure(f"diverged (validation loss {loss})")
        except RUN_FAILURES as exc:
            kind = "numerical: " if isinstance(exc, NumericalError) else ""
            hist.error = f"interaction {t}: {kind}{exc}"
            return hist

        hist.arms.append(arm)
        hist.losses_after.append(loss)
        if cfg.kind == GP_TS:
            hist.gp_trace.append(theta)

    return hist
