"""Thompson-sampling bandit over a finite hyperparameter grid.

The policy models the per-interaction reward (the decrease in validation
loss between consecutive interactions) with a GP, draws one joint sample
of the posterior over all arms, and plays the argmax. Fixed-arm and
uniform-random baselines share the same run loop, which alone numbers
the interactions. The arm-space types are defined in ``environments``;
``make_grid`` is re-exported here only because perfbench calls it from
this module.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import gp
from .environments import Arm, ArmSpace, make_grid
from .errors import (RUN_FAILURES, EnvironmentFailure, InvalidArgumentError, NumericalError,
                     is_integer)

__all__ = [
    "History",
    "PolicySpec",
    "GP_TS",
    "FIXED_ARM",
    "UNIFORM_RANDOM",
    "POLICY_KINDS",
    "cumulative_reward",
    "default_gp_hyperparams",
    "ts_select_arm",
    "run_policy",
    # environments' own, re-exported because perfbench calls it from here
    "make_grid",
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


def default_gp_hyperparams(ndim: int) -> gp.GpHyperparams:
    """``gp.GpHyperparams``' defaults with a lengthscale of 0.1 in each of
    ``ndim`` dimensions."""
    return gp.GpHyperparams(lengthscales=(0.1,) * ndim)


@dataclass(frozen=True)
class PolicySpec:
    """One policy to run: its kind and, for ``fixed_arm`` only, the index
    of the arm it always plays."""

    kind: str
    arm_index: int | None = None

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise InvalidArgumentError(f"unknown policy kind: {self.kind!r}")
        if self.kind != FIXED_ARM and self.arm_index is not None:
            raise InvalidArgumentError(f"arm_index is for fixed_arm only, not {self.kind}")
        if self.kind == FIXED_ARM and not (is_integer(self.arm_index) and self.arm_index >= 0):
            raise InvalidArgumentError(
                f"fixed_arm policy needs a non-negative integer arm_index, got {self.arm_index!r}"
            )

    def label(self) -> str:
        """The policy's name in run CSVs and the summary."""
        return f"fixed_arm_{self.arm_index}" if self.kind == FIXED_ARM else self.kind


def ts_select_arm(space: ArmSpace, post: gp.PosteriorGp, rng: np.random.Generator) -> int:
    """Draw one joint posterior sample over all arms; return the index of
    its argmax, ties breaking toward the lowest index."""
    return int(np.argmax(post.sample_joint(space, rng)))


def run_policy(space: ArmSpace, policy: PolicySpec, env, T: int, u: int, *, seed: int = 0,
               gp_init: gp.GpHyperparams | None = None,
               fit_budget: gp.FitBudget = gp.FitBudget()) -> History:
    """Run one policy for T interactions (numbered 1..T here) of u updates each.

    GP-TS: per interaction, refit the GP on the history so far
    (warm-started from the previous fit, which is kept whenever refitting
    fails or degrades; from the third interaction on, so a run of T
    interactions fits T - 2 times), sample the reward posterior jointly
    over the arms, play the argmax, observe the loss and convert it to a
    reward. Baselines replace the selection step and maintain no GP.
    ``seed`` seeds the policy's random choices; GP-TS starts from
    ``gp_init`` (by default ``default_gp_hyperparams``) and refits within
    ``fit_budget``.

    A failure in ``errors.RUN_FAILURES`` during an interaction ends the
    run: the partial history is returned with its ``error`` field set to
    ``"interaction t: ..."``, and interaction t is not recorded. A
    non-finite validation loss from ``step`` means the training diverged
    and ends the run the same way (``diverged (validation loss nan)``), as
    does a finite loss whose reward overflows (``diverged (reward inf from
    validation loss -1e+308)``); a GP posterior that cannot be factored
    reads ``numerical: ...``. A non-finite loss from ``init`` raises
    ``EnvironmentFailure``. Any other exception is a programming error and
    propagates.
    """
    if T < 1 or u < 1:
        raise InvalidArgumentError("T and u must be at least 1")
    if policy.kind == FIXED_ARM and policy.arm_index >= len(space):
        raise InvalidArgumentError(
            f"arm_index {policy.arm_index} out of range for {len(space)} arms"
        )

    rng = np.random.default_rng(seed)
    loss = env.init()
    if not math.isfinite(loss):
        raise EnvironmentFailure(f"init: diverged (validation loss {loss})")
    hist = History(initial_loss=loss)

    theta = gp_init or default_gp_hyperparams(space.ndim)
    data = gp.RegressionData.empty(space.ndim)
    arms = space.arms  # a local: reading a cached_property is slower than reading a field

    for t in range(1, T + 1):
        try:
            if policy.kind == GP_TS:
                if t >= 2:
                    data = gp.RegressionData(hist.arms, hist.rewards())
                if t >= 3:
                    theta = gp.fit_type2_mle(data, theta, fit_budget)
                i = ts_select_arm(space, gp.PosteriorGp(theta, data), rng)
            elif policy.kind == FIXED_ARM:
                i = policy.arm_index
            else:
                i = int(rng.integers(len(arms)))
            arm = arms[i]
            prev, loss = loss, env.step(arm, u)
            # prev is finite, so one check on the reward covers the loss too
            if not math.isfinite(prev - loss):
                reward = f"reward {prev - loss} from " if math.isfinite(loss) else ""
                raise EnvironmentFailure(f"diverged ({reward}validation loss {loss})")
        except RUN_FAILURES as exc:
            kind = "numerical: " if isinstance(exc, NumericalError) else ""
            hist.error = f"interaction {t}: {kind}{exc}"
            return hist

        hist.arms.append(arm)
        hist.losses_after.append(loss)
        if policy.kind == GP_TS:
            hist.gp_trace.append(theta)

    return hist
