"""Bandit tests: arm grids, the loss-delta reward, history bookkeeping,
Thompson selection, and the run loop."""

import dataclasses
import itertools
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpts import bandit, environments, gp
from gpts.environments import ReplayEnv, ReplaySpec, SyntheticPretrainEnv, SyntheticPretrainSpec
from gpts.errors import RUN_FAILURES, EnvironmentFailure, InvalidArgumentError


def grid_1d():
    return environments.make_grid([dict(lower=0.0, upper=0.5, step=0.05, name="rho")])


class TestMakeGrid:
    def test_nine_arm_masking_grid(self):
        space = grid_1d()
        assert [a[0] for a in space.arms] == pytest.approx(
            [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45]
        )
        assert len(space) == 9

    def test_three_dim_hypercube(self):
        dims = [dict(lower=0.0, upper=0.25, step=0.05, name=n) for n in ("rho", "gamma", "lambda")]
        space = environments.make_grid(dims)
        assert len(space) == 64
        assert space.names == ("rho", "gamma", "lambda")
        # open interval: endpoints excluded
        flat = {c for arm in space.arms for c in arm}
        assert 0.0 not in flat and 0.25 not in flat

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidArgumentError):
            environments.make_grid([dict(lower=0.0, upper=0.1, step=0.2, name="x")])

    def test_deterministic_lexicographic_order(self):
        dims = [dict(lower=0.0, upper=0.3, step=0.1, name=n) for n in ("a", "b")]
        space = environments.make_grid(dims)
        assert space.arms == ((0.1, 0.1), (0.1, 0.2), (0.2, 0.1), (0.2, 0.2))

    def test_unnamed_dimensions_are_numbered(self):
        space = environments.make_grid([dict(lower=0.0, upper=0.3, step=0.1)] * 2)
        assert space.names == ("psi0", "psi1")

    def test_error_names_an_unnamed_dimension_by_position(self):
        dims = [dict(lower=0.0, upper=0.3, step=0.1, name="rho"),
                dict(lower=0.0, upper=0.3, step=-0.1)]
        with pytest.raises(InvalidArgumentError, match="dimension 1: step must be positive"):
            environments.make_grid(dims)

    @pytest.mark.parametrize(
        "names", [("rho", "rho"), ("psi1", None), ("rho", 3)], ids=["twice", "default", "number"]
    )
    def test_names_must_be_distinct_strings(self, names):
        # names label the CSV columns and the trainer's arm coordinates
        dims = [dict(lower=0.0, upper=0.3, step=0.1, name=n) for n in names]
        with pytest.raises(InvalidArgumentError, match="distinct strings"):
            environments.make_grid(dims)

    def test_arm_count_is_capped(self):
        # 100 values per dimension make 10 000 arms; one value more is too many
        dims = [dict(lower=0.0, upper=1.01, step=0.01, name=n) for n in ("a", "b")]
        assert len(environments.make_grid(dims)) == environments.MAX_ARMS == 10_000
        dims[1]["upper"] = 1.02
        with pytest.raises(InvalidArgumentError, match="more than 10000 arms"):
            environments.make_grid(dims)

    def test_arms_unique(self):
        space = grid_1d()
        assert len(set(space.arms)) == len(space.arms)


class TestArmSpace:
    DIM = environments.GridDim(0.0, 1.0, 0.25, "x")

    @pytest.mark.parametrize(
        "values",
        [(0.25, 0.25), (0.5, 0.25), (), (0.0, 0.5), (0.5, 1.0), (-0.25,), (1.5,)],
        ids=["repeated", "unordered", "empty", "at_lower", "at_upper", "below", "above"],
    )
    def test_values_must_increase_inside_the_interval(self, values):
        with pytest.raises(InvalidArgumentError, match="dimension 'x'"):
            environments.ArmSpace((self.DIM,), (values,))

    def test_names_must_be_distinct_strings(self):
        # two arm_x CSV columns, and an arm sent to the trainer as one coordinate
        with pytest.raises(InvalidArgumentError, match="distinct strings"):
            environments.ArmSpace((self.DIM,) * 2, ((0.25, 0.5), (0.75,)))

    def test_unnamed_dimensions_are_numbered(self):
        unnamed = environments.GridDim(0.0, 1.0, 0.25)
        space = environments.ArmSpace((unnamed, self.DIM, unnamed), ((0.5,),) * 3)
        assert space.names == ("psi0", "x", "psi2")

    def test_arm_count_is_capped(self):
        # make_grid is not the only way in: 9^5 = 59 049 arms would make
        # GP-TS allocate a 59 049^2 covariance
        values = tuple(round(0.1 * k, 1) for k in range(1, 10))
        dim = environments.GridDim(0.0, 1.0, 0.1)
        assert len(environments.ArmSpace((dim,) * 4, (values,) * 4)) == 9**4
        with pytest.raises(InvalidArgumentError, match="59049 arms, more than 10000"):
            environments.ArmSpace((dim,) * 5, (values,) * 5)

    def test_index_of_round_trips_every_arm(self):
        dims = [dict(lower=0.0, upper=n + 1.0, step=1.0, name=f"d{n}") for n in (3, 4, 5)]
        space = environments.make_grid(dims)
        assert len(space) == 60
        assert [space.index_of(arm) for arm in space.arms] == list(range(60))
        assert np.array_equal(space.array, np.array(space.arms))

    @pytest.mark.parametrize(
        "arm", [(0.1, 0.1, 1.5), (0.1, 0.1), (0.1, 0.1, 0.1, 0.1)], ids=["off_grid", "short", "long"]
    )
    def test_index_of_rejects_arms_not_in_the_space(self, arm):
        space = environments.make_grid([dict(lower=0.0, upper=0.3, step=0.1)] * 3)
        with pytest.raises(InvalidArgumentError, match="not in the arm space"):
            space.index_of(arm)


class TestRewards:
    def test_loss_drop_is_positive_reward(self):
        h = bandit.History(initial_loss=10.0, arms=[(0.1,)], losses_after=[8.0])
        assert h.rewards() == [2.0]
        assert h.losses() == [10.0, 8.0]

    def test_no_change_zero_reward(self):
        h = bandit.History(initial_loss=3.5, arms=[(0.1,)], losses_after=[3.5])
        assert h.rewards() == [0.0]

    def test_loss_regression_negative_reward(self):
        h = bandit.History(initial_loss=2.0, arms=[(0.1,)], losses_after=[2.4])
        assert h.rewards() == [pytest.approx(-0.4)]


class TestCumulativeReward:
    def test_telescopes(self):
        h = bandit.History(initial_loss=10, arms=[(0.1,)] * 3, losses_after=[8, 9, 5])
        assert bandit.cumulative_reward(h) == 5.0

    def test_empty_history(self):
        assert bandit.cumulative_reward(bandit.History(initial_loss=10.0)) == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_random_sequences_telescope(self, seed):
        rng = np.random.default_rng(seed)
        losses = rng.uniform(0, 20, 1001)
        h = bandit.History(initial_loss=losses[0], arms=[(0.1,)] * 1000,
                           losses_after=list(losses[1:]))
        total = bandit.cumulative_reward(h)
        expected = losses[0] - losses[-1]
        assert abs(total - expected) <= 1e-9 * max(abs(expected), 1.0)


class TestTsSelectArm:
    def test_degenerate_posterior_picks_argmax(self):
        space = grid_1d()
        hp = gp.GpHyperparams((0.01,), gp.MATERN52, 1.0, noise_variance=gp.NOISE_VARIANCE_FLOOR)
        # pin the posterior tightly to a spike at arm index 1
        targets = [0.0, 5.0] + [0.0] * 7
        data = gp.RegressionData(space.array, targets)
        post = gp.PosteriorGp(hp, data)
        for seed in range(20):
            idx = bandit.ts_select_arm(space, post, np.random.default_rng(seed))
            assert idx == 1

    def test_tie_breaks_to_lowest_index(self):
        space = grid_1d()

        class FlatPosterior:
            def sample_joint(self, queries, rng):
                return np.zeros(len(queries))

        idx = bandit.ts_select_arm(space, FlatPosterior(), np.random.default_rng(0))
        assert idx == 0

    def test_prior_selection_roughly_uniform(self):
        space = grid_1d()
        hp = gp.GpHyperparams((0.01,), gp.MATERN52, 1.0, noise_variance=1e-4)
        post = gp.PosteriorGp(hp, gp.RegressionData.empty(1))
        counts = np.zeros(9, int)
        n = 2000
        for s in range(n):
            idx = bandit.ts_select_arm(space, post, np.random.default_rng(123456 + s))
            counts[idx] += 1
        assert np.all(np.abs(counts / n - 1 / 9) < 0.03)


class FailingEnv:
    def __init__(self, fail_at, exc=EnvironmentFailure):
        self.fail_at = fail_at
        self.exc = exc
        self._t = 0

    def init(self):
        return 10.0

    def step(self, arm, u):
        self._t += 1
        if self._t >= self.fail_at:
            raise self.exc("trainer crashed")
        return 10.0 - 0.1 * self._t


class DivergingEnv(FailingEnv):
    """Reports ``bad`` as the validation loss at interaction ``at`` (0 is init)."""

    def __init__(self, at, bad):
        super().__init__(fail_at=99)
        self.at = at
        self.bad = bad

    def init(self):
        return self.bad if self.at == 0 else 10.0

    def step(self, arm, u):
        loss = super().step(arm, u)
        return self.bad if self._t == self.at else loss


class TestRunPolicy:
    def test_fixed_arm_bit_exact_repeatable(self):
        space = grid_1d()
        spec = SyntheticPretrainSpec()
        cfg = bandit.PolicySpec(bandit.FIXED_ARM, 5)
        runs = []
        for _ in range(2):
            env = SyntheticPretrainEnv(spec, seed=7)
            runs.append(bandit.run_policy(space, cfg, env, T=20, u=50))
        assert runs[0] == runs[1]

    def test_policy_seed_does_not_affect_fixed_arm(self):
        space = grid_1d()
        spec = SyntheticPretrainSpec()
        histories = []
        for policy_seed in (0, 99):
            cfg = bandit.PolicySpec(bandit.FIXED_ARM, 3)
            env = SyntheticPretrainEnv(spec, seed=7)
            histories.append(bandit.run_policy(space, cfg, env, T=10, u=50, seed=policy_seed))
        assert histories[0] == histories[1]

    @pytest.mark.parametrize("policy", [bandit.PolicySpec(bandit.FIXED_ARM, 2),
                                        bandit.PolicySpec(bandit.UNIFORM_RANDOM)],
                             ids=["fixed_arm", "uniform_random"])
    def test_baselines_build_no_distance_table(self, policy, monkeypatch):
        # nor any other GP state: no record of the space at all
        monkeypatch.setattr(gp, "_SPACE_RECORDS", weakref.WeakKeyDictionary())
        space = grid_1d()
        bandit.run_policy(space, policy, SyntheticPretrainEnv(SyntheticPretrainSpec()), T=3, u=10)
        assert not gp._SPACE_RECORDS
        bandit.run_policy(space, bandit.PolicySpec(bandit.GP_TS),
                          SyntheticPretrainEnv(SyntheticPretrainSpec()), T=1, u=10)
        assert gp._SPACE_RECORDS[space].buffer is not None

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gp_ts_on_far_apart_arms_warns_of_no_overflow(self):
        # the arms' squared scaled distance and the spread of the inputs
        # overflow to inf, which the Matern clamp and the moment caps absorb
        space = environments.make_grid([dict(lower=0.0, upper=3.0e200, step=1.0e200)])
        theta = gp.GpHyperparams(lengthscales=(0.1,), output_scale=1.0e300)
        env = environments.NoisyTestFunctionEnv(seed=0)
        hist = bandit.run_policy(space, bandit.PolicySpec(bandit.GP_TS), env, T=5, u=20,
                                 gp_init=theta)
        assert hist.error is None and len(hist.arms) == 5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_gp_ts_on_rewards_whose_squares_overflow_keeps_its_warm_start(self):
        # rewards of +-1e200 at one arm overflow the replicate sum of
        # squares to inf: the likelihood is -inf everywhere, so every fit
        # keeps its warm start, and the run goes on without a warning
        class Swinging:
            def init(self):
                self.loss = 0.0
                return self.loss

            def step(self, arm, u):
                self.loss = -1e200 if self.loss == 0.0 else 0.0
                return self.loss

        space = environments.make_grid([dict(lower=0.0, upper=1.0, step=0.4)])
        theta = bandit.default_gp_hyperparams(1)
        hist = bandit.run_policy(space, bandit.PolicySpec(bandit.GP_TS), Swinging(), T=8, u=1)
        assert hist.error is None and len(hist.arms) == 8
        assert set(map(abs, hist.rewards())) == {1e200}
        assert math.isinf(gp.RegressionData(hist.arms, hist.rewards()).within_ss)
        assert hist.gp_trace == [theta] * 8

    def test_gp_ts_single_interaction(self):
        space = grid_1d()
        env = SyntheticPretrainEnv(SyntheticPretrainSpec(), seed=1)
        cfg = bandit.PolicySpec(bandit.GP_TS)
        h = bandit.run_policy(space, cfg, env, T=1, u=10)
        assert len(h) == 1
        assert h.gp_trace[0] == bandit.default_gp_hyperparams(1)  # no refit possible yet

    @pytest.mark.parametrize("T", [2, 3, 6])
    def test_gp_ts_fits_before_each_selection_from_the_third(self, T, monkeypatch):
        # fits after interactions 2..T-1 feed selections 3..T; a fit after
        # the last interaction would feed none
        calls = []
        real_fit = gp.fit_type2_mle
        monkeypatch.setattr(gp, "fit_type2_mle", lambda *a: calls.append(len(a[0])) or real_fit(*a))
        env = SyntheticPretrainEnv(SyntheticPretrainSpec(), seed=3)
        h = bandit.run_policy(grid_1d(), bandit.PolicySpec(bandit.GP_TS), env, T=T, u=10, seed=1)
        assert len(h) == T and len(h.gp_trace) == T
        assert calls == list(range(2, T))

    def test_gp_ts_deterministic(self):
        space = grid_1d()
        spec = SyntheticPretrainSpec()
        runs = []
        for _ in range(2):
            env = SyntheticPretrainEnv(spec, seed=3)
            cfg = bandit.PolicySpec(bandit.GP_TS)
            runs.append(bandit.run_policy(space, cfg, env, T=8, u=50, seed=11))
        assert runs[0] == runs[1]

    def test_uniform_random_deterministic(self):
        space = grid_1d()
        spec = SyntheticPretrainSpec()
        runs = []
        for _ in range(2):
            env = SyntheticPretrainEnv(spec, seed=3)
            cfg = bandit.PolicySpec(bandit.UNIFORM_RANDOM)
            runs.append(bandit.run_policy(space, cfg, env, T=10, u=50, seed=11))
        assert runs[0] == runs[1]

    def test_arm_membership_and_telescoping(self):
        space = grid_1d()
        env = SyntheticPretrainEnv(SyntheticPretrainSpec(), seed=5)
        cfg = bandit.PolicySpec(bandit.GP_TS)
        h = bandit.run_policy(space, cfg, env, T=12, u=50, seed=2)
        for arm in h.arms:
            assert arm in space.arms
        total = bandit.cumulative_reward(h)
        expected = h.initial_loss - h.final_loss
        assert abs(total - expected) <= 1e-9 * max(abs(expected), 1.0)

    def test_gp_ts_records_match_history_from_losses(self):
        space = grid_1d()
        env = SyntheticPretrainEnv(SyntheticPretrainSpec(), seed=4)
        cfg = bandit.PolicySpec(bandit.GP_TS)
        h = bandit.run_policy(space, cfg, env, T=12, u=50, seed=3)
        initial_loss, *losses_after = h.losses()
        rebuilt = bandit.History(initial_loss=initial_loss, arms=list(h.arms),
                                 losses_after=losses_after)
        assert rebuilt == dataclasses.replace(h, gp_trace=[])
        assert len(h) == 12

    @pytest.mark.parametrize("d", [1, 3])
    def test_gp_ts_factors_through_lapack_alone(self, d, monkeypatch):
        # every factor, the fit's, the posterior's and a joint sample's,
        # goes through LAPACK potrf: numpy's Cholesky is never needed
        def refuse(*args, **kwargs):
            raise np.linalg.LinAlgError("np.linalg.cholesky called")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        if d == 1:
            space, spec = grid_1d(), SyntheticPretrainSpec()
        else:
            space = environments.make_grid(
                [dict(lower=0.0, upper=0.4, step=0.1, name=n) for n in ("rho", "gamma", "lambda")]
            )
            spec = SyntheticPretrainSpec(optimum=(0.3, 0.2, 0.1), width=(0.2, 0.2, 0.2))
        assert len(space) == {1: 9, 3: 27}[d]
        env = SyntheticPretrainEnv(spec, seed=5)
        h = bandit.run_policy(space, bandit.PolicySpec(bandit.GP_TS), env, T=12, u=50, seed=2)
        assert h.error is None and len(h) == 12

    def test_environment_failure_returns_partial_history(self):
        space = grid_1d()
        cfg = bandit.PolicySpec(bandit.FIXED_ARM, 0)
        h = bandit.run_policy(space, cfg, FailingEnv(fail_at=4), T=10, u=1)
        assert h.error is not None and "interaction 4" in h.error
        assert len(h) == 3

    @pytest.mark.parametrize("exc", RUN_FAILURES, ids=lambda e: e.__name__)
    @pytest.mark.parametrize("kind", [bandit.GP_TS, bandit.UNIFORM_RANDOM])
    @pytest.mark.parametrize("k", [1, 4])
    def test_every_run_failure_ends_the_run_at_its_interaction(self, exc, kind, k):
        cfg = bandit.PolicySpec(kind)
        h = bandit.run_policy(grid_1d(), cfg, FailingEnv(fail_at=k, exc=exc), T=6, u=1)
        assert h.error is not None and h.error.startswith(f"interaction {k}:")
        assert "trainer crashed" in h.error
        assert len(h) == k - 1
        assert len(h.gp_trace) == (k - 1 if kind == bandit.GP_TS else 0)

    def test_reward_vs_loss_ordering(self):
        # equal initial losses: larger cumulative reward means smaller final loss
        h1 = bandit.History(initial_loss=10, arms=[(0.1,)] * 2, losses_after=[8, 6])
        h2 = bandit.History(initial_loss=10, arms=[(0.1,)] * 2, losses_after=[9, 7])
        assert bandit.cumulative_reward(h1) > bandit.cumulative_reward(h2)
        assert h1.final_loss < h2.final_loss

    def test_fixed_arm_index_validated(self):
        space = grid_1d()
        cfg = bandit.PolicySpec(bandit.FIXED_ARM, 9)
        with pytest.raises(InvalidArgumentError):
            bandit.run_policy(space, cfg, FailingEnv(99), T=1, u=1)

    @pytest.mark.parametrize("kind", [bandit.GP_TS, bandit.UNIFORM_RANDOM])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_loss_is_diverged_run(self, kind, bad):
        space = grid_1d()
        cfg = bandit.PolicySpec(kind)
        h = bandit.run_policy(space, cfg, DivergingEnv(at=3, bad=bad), T=10, u=1)
        assert h.error == f"interaction 3: diverged (validation loss {bad})"
        assert len(h) == 2 and h.losses_after == [9.9, 9.8]
        assert len(h.gp_trace) == (2 if kind == bandit.GP_TS else 0)

    @pytest.mark.parametrize("kind", bandit.POLICY_KINDS)
    def test_overflowing_reward_is_diverged_run(self, kind):
        # each loss is finite, their difference is not
        class OverflowEnv:
            def init(self):
                return 1e308

            def step(self, arm, u):
                return -1e308

        cfg = bandit.PolicySpec(kind, 0 if kind == bandit.FIXED_ARM else None)
        h = bandit.run_policy(grid_1d(), cfg, OverflowEnv(), T=5, u=1)
        assert h.error == "interaction 1: diverged (reward inf from validation loss -1e+308)"
        assert len(h) == 0 and h.losses() == [1e308]

    @pytest.mark.parametrize(
        "losses,t,mean", [((1e308, 0.0, -1e308, 0.0), 3, "inf"), ((1e308, 0.0), 17, "nan")],
        ids=["inf", "nan"],
    )
    def test_rewards_whose_mean_overflows_end_the_run(self, losses, t, mean):
        # every reward is finite (+-1e308), but the fit's mean of them is not
        class CyclingEnv:
            def __init__(self):
                self.losses = itertools.cycle(losses)

            def init(self):
                return next(self.losses)

            def step(self, arm, u):
                return next(self.losses)

        h = bandit.run_policy(grid_1d(), bandit.PolicySpec(bandit.GP_TS), CyclingEnv(), T=30, u=1)
        assert h.error == f"interaction {t}: numerical: the targets' mean overflows to {mean}"
        assert len(h) == t - 1 and len(h.gp_trace) == t - 1

    def test_rewards_whose_mean_at_one_arm_overflows_end_the_run(self, monkeypatch):
        # rewards +1e308, -1e308, +1e308 at arms a, b, a: their mean is
        # finite, but a's replicate sum overflows. GP-TS draws as usual and
        # then plays a, b, a, b in turn
        class Swinging:
            def init(self):
                self.loss = 0.0
                return self.loss

            def step(self, arm, u):
                self.loss = -1e308 if self.loss == 0.0 else 0.0
                return self.loss

        order = itertools.cycle([2, 6])
        select = bandit.ts_select_arm

        def scripted(space, post, rng):
            select(space, post, rng)
            return next(order)

        monkeypatch.setattr(bandit, "ts_select_arm", scripted)
        space = grid_1d()
        h = bandit.run_policy(space, bandit.PolicySpec(bandit.GP_TS), Swinging(), T=10, u=1)
        assert h.error == (f"interaction 4: numerical: the targets' mean at input "
                           f"{space.arms[2]} overflows to inf")
        assert [space.index_of(arm) for arm in h.arms] == [2, 6, 2]

    @pytest.mark.parametrize("kind", [bandit.GP_TS, bandit.FIXED_ARM])
    def test_replay_gap_returns_partial_history(self, kind):
        # every arm has interactions 1, 2, 4 and 5 logged, none has 3
        space = grid_1d()
        table = {(i, t): 10.0 - t - 0.01 * i for i in range(len(space)) for t in (1, 2, 4, 5)}
        env = ReplayEnv(ReplaySpec(table=table, initial_loss=10.0), space)
        cfg = bandit.PolicySpec(kind, 4 if kind == bandit.FIXED_ARM else None)
        h = bandit.run_policy(space, cfg, env, T=5, u=1)
        assert h.error is not None and h.error.startswith("interaction 3: replay table has no")
        assert len(h) == 2
        assert h.losses_after == [table[(space.index_of(a), t)] for t, a in enumerate(h.arms, 1)]

    def test_non_finite_initial_loss_raises_environment_failure(self):
        cfg = bandit.PolicySpec(bandit.UNIFORM_RANDOM)
        with pytest.raises(EnvironmentFailure, match=r"init: diverged \(validation loss nan\)"):
            bandit.run_policy(grid_1d(), cfg, DivergingEnv(at=0, bad=float("nan")), T=5, u=1)

