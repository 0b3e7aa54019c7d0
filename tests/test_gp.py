"""GP core tests: kernels, marginal likelihood, posterior, sampling, fitting.

Closed-form cases are checked against values computed independently in
the tests (scalar kernel formulas, dense inverse-based posterior
algebra, scipy's multivariate-normal density).
"""

import gc
import importlib.machinery
import itertools
import math
import sys
import tracemalloc
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack, solve_triangular
from scipy.linalg.lapack import dpotrf
from scipy.optimize import minimize
from scipy.stats import multivariate_normal

from gpts import environments, gp
from gpts.errors import InvalidArgumentError, NumericalError


def matern52_scalar(x, x2, ls, out):
    # independent scalar evaluation of the Matern-5/2 formula
    r = abs(x - x2) / ls
    return out * (1 + math.sqrt(5) * r + 5 * r * r / 3) * math.exp(-math.sqrt(5) * r)


def dense_posterior(hp, X, y, Q):
    # direct inverse-based posterior mean/covariance, no Cholesky reuse
    def k(a, b):
        out = np.zeros((len(a), len(b)))
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                d2 = sum(((u - v) / l) ** 2 for u, v, l in zip(ai, bj, hp.lengthscales))
                if hp.kernel == gp.SQUARED_EXPONENTIAL:
                    out[i, j] = hp.output_scale * math.exp(-0.5 * d2)
                else:
                    r = math.sqrt(d2)
                    out[i, j] = (
                        hp.output_scale
                        * (1 + math.sqrt(5) * r + 5 * d2 / 3)
                        * math.exp(-math.sqrt(5) * r)
                    )
        return out
    m = hp.mean_constant
    A = np.linalg.inv(k(X, X) + hp.noise_variance * np.eye(len(X)))
    Ks = k(X, Q)
    mean = m + Ks.T @ A @ (np.asarray(y) - m)
    cov = k(Q, Q) - Ks.T @ A @ Ks
    return mean, cov


def make_hp(ls=(0.3,), out=1.0, noise=0.01, mean_const=0.0, family=gp.MATERN52):
    return gp.GpHyperparams(tuple(ls), family, out, noise, mean_const)


def factor(hp, data):
    # the likelihood and posterior factor of hp over the distinct inputs
    return gp._factor_point(hp, data)


def stacked_factor(hps, data):
    # the factors of several hyperparameter points, in one stack
    return gp._factor(hps[0].kernel, np.array([hp.lengthscales for hp in hps]),
                      [hp.output_scale for hp in hps], [hp.noise_variance for hp in hps], data)


def potrf_factor(A):
    # the lower factor as the program takes it from LAPACK potrf: the upper
    # factor of the Fortran view, which is L in C order
    U, info = dpotrf(A.T, lower=0, clean=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"potrf info {info}")
    return U.T


def replicated_data(rng, d, k, T):
    # T observations at k distinct inputs, each input seen at least once
    U = rng.uniform(0, 1, (k, d))
    idx = np.concatenate([np.arange(k), rng.integers(0, k, T - k)])
    rng.shuffle(idx)
    return U[idx], rng.normal(0, 1, T)


def random_hp(rng, d, family):
    return make_hp(ls=rng.uniform(0.1, 1.0, d), out=float(rng.uniform(0.2, 2)),
                   noise=float(rng.uniform(0.01, 0.5)), family=family,
                   mean_const=float(rng.normal()))


def unblocked_kernel_matrix(hp, X, X2):
    # one whole-matrix pass: per-dimension distances summed out of place,
    # then the textbook kernel expression
    d2 = 0.0
    for x, x2, ls in zip(X.T, X2.T, hp.lengthscales):
        d2 = ((x[:, None] - x2) / ls) ** 2 + d2
    if hp.kernel == gp.SQUARED_EXPONENTIAL:
        return hp.output_scale * np.exp(-0.5 * d2)
    s5r = math.sqrt(5.0) * np.sqrt(d2)
    return hp.output_scale * (1.0 + s5r + (5.0 / 3.0) * d2) * np.exp(-s5r)


def grid_points(d, per_dim=9):
    return np.array(list(itertools.product(np.linspace(0.1, 0.9, per_dim), repeat=d)))


BOTH_KERNELS = pytest.mark.parametrize("family", [gp.SQUARED_EXPONENTIAL, gp.MATERN52])


class TestKernels:
    def test_se_at_zero_distance(self):
        hp = gp.GpHyperparams((1.0,), gp.SQUARED_EXPONENTIAL, 1.0)
        assert gp.kernel_matrix(hp, [[0.1]], [[0.1]])[0, 0] == 1.0

    def test_se_unit_distance(self):
        hp = gp.GpHyperparams((1.0,), gp.SQUARED_EXPONENTIAL, 1.0)
        assert gp.kernel_matrix(hp, [[0.0]], [[1.0]])[0, 0] == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_matern52_against_scalar_formula(self):
        hp = gp.GpHyperparams((0.2,), gp.MATERN52, 2.0)
        expected = matern52_scalar(0.05, 0.45, 0.2, 2.0)
        assert gp.kernel_matrix(hp, [[0.05]], [[0.45]])[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_symmetry_in_arguments(self):
        hp = gp.GpHyperparams((0.2, 0.5), gp.MATERN52, 1.3)
        a, b = [0.1, 0.9], [0.7, 0.2]
        assert gp.kernel_matrix(hp, [a], [b])[0, 0] == gp.kernel_matrix(hp, [b], [a])[0, 0]

    def test_dimension_mismatch(self):
        hp = gp.GpHyperparams((0.2, 0.5), gp.MATERN52, 1.0)
        with pytest.raises(InvalidArgumentError):
            gp.kernel_matrix(hp, [[0.1]], [[0.2]])[0, 0]

    @given(
        st.integers(1, 3),
        st.lists(st.lists(st.floats(-5, 5), min_size=3, max_size=3), min_size=2, max_size=6),
        st.lists(st.floats(0.05, 3.0), min_size=3, max_size=3),
        st.sampled_from([gp.SQUARED_EXPONENTIAL, gp.MATERN52]),
    )
    @settings(max_examples=50, deadline=None)
    def test_gram_matrix_bit_exact_symmetry(self, d, xs, lengthscales, family):
        hp = gp.GpHyperparams(tuple(lengthscales[:d]), family, 1.4)
        K = gp.kernel_matrix(hp, np.array(xs)[:, :d])
        assert np.array_equal(K, K.T)
        assert np.all(np.diag(K) == hp.output_scale)

    @pytest.mark.parametrize("family", [gp.SQUARED_EXPONENTIAL, gp.MATERN52])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_blocked_matrix_bit_identical_to_unblocked(self, family, d):
        rng = np.random.default_rng(d)
        grid = grid_points(d)
        hp = gp.GpHyperparams(tuple(rng.uniform(0.05, 1.0, d)), family, 1.7)
        # against the grid, X fills three whole blocks of rows and a partial one
        rows = gp._BLOCK_ELEMENTS // len(grid)
        X = rng.uniform(-0.5, 1.5, (3 * rows + 7, d))
        for A, B in [(grid, None), (X, grid), (grid, X[:7]), (X[:50], None)]:
            got = gp.kernel_matrix(hp, A, B)
            assert np.array_equal(got, unblocked_kernel_matrix(hp, A, A if B is None else B))

    @pytest.mark.parametrize(
        "field,value",
        [
            ("lengthscales", (0.0,)),
            ("lengthscales", (0.1, math.inf)),
            ("lengthscales", (math.nan,)),
            ("lengthscales", ()),
            ("kernel", "cubic"),
            ("output_scale", -1.0),
            ("output_scale", math.inf),
            ("noise_variance", 0.0),
            ("noise_variance", math.inf),
            ("noise_variance", math.nan),
            ("mean_constant", -math.inf),
            ("mean_constant", math.nan),
        ],
    )
    def test_invalid_hyperparams_rejected(self, field, value):
        with pytest.raises(InvalidArgumentError, match=field):
            replace(make_hp(), **{field: value})

    def test_output_scale_bound_keeps_the_matern_kernel_finite(self):
        # at the distance clamp the Matern-5/2 factor is largest: at the
        # bound the kernel there is exactly 0, one float above it would
        # be inf * 0
        hp = make_hp(out=gp._OUTPUT_SCALE_MAX)
        K = gp.kernel_matrix(hp, [[0.0], [1e200]])
        assert np.array_equal(K, np.diag([hp.output_scale] * 2))
        with pytest.raises(InvalidArgumentError, match="output_scale"):
            make_hp(out=math.nextafter(gp._OUTPUT_SCALE_MAX, math.inf))


def ref_grouping(X, y):
    # the np.unique grouping that RegressionData's one pass replaced:
    # distinct rows put back in order of first appearance through an
    # argsort/rank pass
    _, first, inverse, counts = np.unique(
        X, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    inverse = rank[np.ravel(inverse)]
    inputs = X[first[order]]
    counts = counts[order].astype(float)
    means = np.bincount(inverse, weights=y, minlength=order.size) / counts
    U = inputs.T
    return {"distinct_inputs": inputs, "counts": counts, "means": means,
            "within_ss": float(np.sum((y - means[inverse]) ** 2)),
            "diffs": U[:, :, None] - U[:, None, :]}


class TestReplicates:
    def assert_matches_reference(self, X, y):
        data = gp.RegressionData(X, y)
        for name, expected in ref_grouping(X, y).items():
            got = getattr(data, name)
            assert np.shape(got) == np.shape(expected), name
            assert bits(got) == bits(expected), name

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_grid_data_with_repeats_match_np_unique(self, d):
        rng = np.random.default_rng(d)
        grid = grid_points(d, per_dim=4 if d == 3 else 9)
        for T in range(1, 301):
            X = grid[rng.integers(0, len(grid), T)]
            self.assert_matches_reference(X, rng.normal(0, 1, T))

    def test_signed_zeros_are_one_input_kept_as_first_seen(self):
        X = np.array([[-0.0, 0.5], [0.0, 0.5], [0.5, 0.0], [0.5, -0.0], [-0.0, 0.5]])
        self.assert_matches_reference(X, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        data = gp.RegressionData(X, np.zeros(5))
        assert data.counts.tolist() == [3.0, 2.0]
        assert np.signbit(data.distinct_inputs).tolist() == [[True, False], [False, False]]

    def test_empty_data_keep_their_dimension(self):
        data = gp.RegressionData.empty(3)
        assert data.inputs.shape == data.distinct_inputs.shape == (0, 3)
        assert data.diffs.shape == (3, 0, 0)
        assert data.counts.shape == data.means.shape == (0,)
        assert data.within_ss == 0.0 and data.log_count_sum == 0.0
        assert gp.RegressionData([], []).inputs.shape == (0, 1)

    def test_record_does_not_share_the_callers_arrays(self):
        X, y = np.array([[0.1], [0.2]]), np.array([1.0, 2.0])
        data = gp.RegressionData(X, y)
        X[0, 0] = y[0] = 9.0
        assert data.inputs.tolist() == [[0.1], [0.2]] and data.targets.tolist() == [1.0, 2.0]
        assert not (data.inputs.flags.writeable or data.targets.flags.writeable)


class TestLogMarginalLikelihood:
    def test_single_observation_at_mean(self):
        hp = make_hp(ls=(1.0,), out=1.0, noise=1.0, family=gp.SQUARED_EXPONENTIAL)
        data = gp.RegressionData([[0.0]], [0.0])
        expected = -0.5 * math.log(2 * math.pi * 2.0)
        assert gp.log_marginal_likelihood(hp, data) == pytest.approx(expected, abs=1e-12)

    def test_single_observation_constant_mean(self):
        hp = make_hp(ls=(1.0,), out=0.7, noise=0.2, mean_const=3.2)
        data = gp.RegressionData([[0.4]], [3.2])
        expected = -0.5 * math.log(2 * math.pi * (0.7 + 0.2))
        assert gp.log_marginal_likelihood(hp, data) == pytest.approx(expected, abs=1e-12)

    def test_two_identical_inputs_against_dense_mvn(self):
        hp = make_hp(ls=(0.3,), out=1.5, noise=0.1)
        X = np.array([[0.2], [0.2]])
        y = np.array([0.0, 0.0])
        K = np.full((2, 2), 1.5) + 0.1 * np.eye(2)
        expected = multivariate_normal(mean=np.zeros(2), cov=K).logpdf(y)
        got = gp.log_marginal_likelihood(hp, gp.RegressionData(X, y))
        assert got == pytest.approx(expected, abs=1e-8)

    def test_random_datasets_against_dense_mvn(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            T, d = int(rng.integers(1, 8)), int(rng.integers(1, 4))
            X = rng.uniform(0, 1, (T, d))
            y = rng.normal(0, 1, T)
            hp = make_hp(ls=rng.uniform(0.1, 1.0, d), out=float(rng.uniform(0.2, 2)),
                         noise=float(rng.uniform(0.01, 0.5)), mean_const=float(rng.normal()))
            K = gp.kernel_matrix(hp, X) + hp.noise_variance * np.eye(T)
            expected = multivariate_normal(mean=np.full(T, hp.mean_constant), cov=K).logpdf(y)
            got = gp.log_marginal_likelihood(hp, gp.RegressionData(X, y))
            assert got == pytest.approx(expected, abs=1e-8)

    @BOTH_KERNELS
    def test_replicated_inputs_against_dense_mvn(self, family):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d, k = int(rng.integers(1, 3)), int(rng.integers(1, 5))
            T = int(rng.integers(k + 1, 40))
            X, y = replicated_data(rng, d, k, T)
            hp = random_hp(rng, d, family)
            K = gp.kernel_matrix(hp, X) + hp.noise_variance * np.eye(T)
            expected = multivariate_normal(mean=np.full(T, hp.mean_constant), cov=K).logpdf(y)
            got = gp.log_marginal_likelihood(hp, gp.RegressionData(X, y))
            assert got == pytest.approx(expected, abs=1e-8)

    def test_jitter_is_extra_noise_on_replicated_data(self):
        # two inputs the kernel cannot tell apart and a negligible noise:
        # the 2x2 collapsed matrix is singular, so the jitter ladder adds
        # its first rung, 1e-8, to the noise variance
        hp = make_hp(ls=(1.0,), out=1.0, noise=1e-20, family=gp.SQUARED_EXPONENTIAL)
        X = np.array([[0.3], [0.3 + 1e-12]] * 3)
        y = np.array([0.5 + 1e-5, 0.5 - 1e-5, 0.5 + 2e-5, 0.5 - 2e-5, 0.5, 0.5])
        K = gp.kernel_matrix(hp, X) + (1e-20 + 1e-8) * np.eye(6)
        expected = multivariate_normal(mean=np.zeros(6), cov=K).logpdf(y)
        got = gp.log_marginal_likelihood(hp, gp.RegressionData(X, y))
        assert got == pytest.approx(expected, abs=1e-6)

    def test_empty_data_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gp.log_marginal_likelihood(make_hp(), gp.RegressionData.empty(1))

    @BOTH_KERNELS
    def test_factor_from_cached_differences_is_bit_identical(self, family):
        # each slice of a stack is the factor of its point alone
        rng = np.random.default_rng(21)
        for d in (1, 2, 3):
            X, y = replicated_data(rng, d, 12, 30)
            data = gp.RegressionData(X, y)
            assert data.diffs.shape == (d, 12, 12)
            hps = [random_hp(rng, d, family) for _ in range(4)]
            L, noises = stacked_factor(hps, data)
            assert L.shape == (4, 12, 12)
            assert noises == [hp.noise_variance for hp in hps]
            for hp, got in zip(hps, L):
                K = gp.kernel_matrix(hp, data.distinct_inputs)
                K[np.diag_indices_from(K)] += hp.noise_variance / data.counts
                assert np.array_equal(got, potrf_factor(K))
            assert np.array_equal(factor(hps[0], data)[0], L[0])


class TestPosterior:
    def test_empty_data_reproduces_prior(self):
        hp = make_hp(ls=(0.25,), out=1.2, noise=0.05, mean_const=0.7)
        post = gp.PosteriorGp(hp, gp.RegressionData.empty(1))
        Q = np.array([[0.1], [0.4], [0.9]])
        mean, cov = post.predict(Q)
        assert np.array_equal(mean, np.full(3, 0.7))
        assert np.array_equal(cov, gp.kernel_matrix(hp, Q))

    def test_input_mean_that_overflows_raises_numerical_error(self):
        # finite targets whose sum at one input overflows, though the mean
        # of all of them is finite: no finite mean there to condition on
        X = [[0.1], [0.2], [0.1], [0.2]]
        data = gp.RegressionData(X, [1e308, -1e308, 1e308, -1e308])
        assert data.means.tolist() == [math.inf, -math.inf]
        message = r"the targets' mean at input \(0\.1,\) overflows to inf"
        with pytest.raises(NumericalError, match=message):
            gp.PosteriorGp(make_hp(), data)

    def test_noiseless_interpolation(self):
        hp = make_hp(noise=gp.NOISE_VARIANCE_FLOOR)
        data = gp.RegressionData([[0.3]], [1.7])
        post = gp.PosteriorGp(hp, data)
        mean, cov = post.predict([[0.3]])
        assert mean[0] == pytest.approx(1.7, abs=1e-4)
        assert cov[0, 0] == pytest.approx(0.0, abs=1e-4)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            X = rng.uniform(0, 1, (3, d))
            y = rng.normal(0, 1, 3)
            Q = rng.uniform(0, 1, (2, d))
            hp = make_hp(ls=rng.uniform(0.1, 0.8, d), out=float(rng.uniform(0.3, 2)),
                         noise=float(rng.uniform(0.01, 0.3)),
                         mean_const=float(rng.normal()))
            post = gp.PosteriorGp(hp, gp.RegressionData(X, y))
            mean, cov = post.predict(Q)
            emean, ecov = dense_posterior(hp, X, y, Q)
            np.testing.assert_allclose(mean, emean, atol=1e-8)
            np.testing.assert_allclose(cov, ecov, atol=1e-8)

    @BOTH_KERNELS
    def test_replicated_inputs_against_dense_oracle(self, family):
        rng = np.random.default_rng(19)
        for _ in range(10):
            d, k = int(rng.integers(1, 3)), int(rng.integers(1, 5))
            X, y = replicated_data(rng, d, k, int(rng.integers(k + 1, 25)))
            Q = np.vstack([X[:2], rng.uniform(0, 1, (3, d))])
            hp = random_hp(rng, d, family)
            mean, cov = gp.PosteriorGp(hp, gp.RegressionData(X, y)).predict(Q)
            emean, ecov = dense_posterior(hp, X, y, Q)
            np.testing.assert_allclose(mean, emean, atol=1e-8)
            np.testing.assert_allclose(cov, ecov, atol=1e-8)

    def test_far_query_recovers_prior(self):
        hp = make_hp(ls=(0.05,), out=1.3, noise=0.01, mean_const=0.4)
        data = gp.RegressionData([[0.0], [0.1]], [2.0, 1.0])
        post = gp.PosteriorGp(hp, data)
        mean, cov = post.predict([[50.0]])
        assert mean[0] == pytest.approx(0.4, abs=1e-6)
        assert cov[0, 0] == pytest.approx(1.3, abs=1e-6)

    def test_duplicate_queries_identical_rows(self):
        hp = make_hp()
        data = gp.RegressionData([[0.2], [0.5]], [1.0, -1.0])
        post = gp.PosteriorGp(hp, data)
        mean, cov = post.predict([[0.3], [0.3]])
        assert mean[0] == mean[1]
        np.testing.assert_allclose(cov[0], cov[1], atol=1e-12)
        assert cov[0, 0] == pytest.approx(cov[1, 1], abs=1e-12)

    def test_posterior_mean_matches_targets_at_floor_noise(self):
        # inputs well separated relative to the lengthscale, so the Gram
        # matrix is well conditioned and only the noise floor perturbs
        # the interpolation
        rng = np.random.default_rng(11)
        X = np.linspace(0.1, 0.9, 5)[:, None]
        y = rng.uniform(-0.99, 0.99, 5)
        hp = make_hp(ls=(0.02,), noise=gp.NOISE_VARIANCE_FLOOR)
        post = gp.PosteriorGp(hp, gp.RegressionData(X, y))
        mean, _ = post.predict(X)
        np.testing.assert_allclose(mean, y, atol=1e-6)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_predictive_variance_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0, 1, (6, 2))
        y = rng.normal(0, 1, 6)
        hp = make_hp(ls=(0.2, 0.2), noise=gp.NOISE_VARIANCE_FLOOR)
        post = gp.PosteriorGp(hp, gp.RegressionData(X, y))
        _, cov = post.predict(rng.uniform(0, 1, (4, 2)))
        assert np.all(np.diag(cov) >= 0.0)

    def test_covariance_exactly_symmetric_on_729_arms(self):
        # predict does not symmetrize; this holds while V.T @ V goes to syrk
        rng = np.random.default_rng(12)
        grid = np.array(list(itertools.product(np.linspace(0.1, 0.9, 9), repeat=3)))
        X = grid[rng.integers(0, len(grid), 40)]
        hp = make_hp(ls=(0.3, 0.2, 0.5), noise=0.05)
        _, cov = gp.PosteriorGp(hp, gp.RegressionData(X, rng.normal(size=40))).predict(grid)
        assert cov.shape == (729, 729)
        assert np.array_equal(cov, cov.T)


class TestSampleJoint:
    def test_deterministic_given_seed(self):
        hp = make_hp()
        post = gp.PosteriorGp(hp, gp.RegressionData([[0.2]], [1.0]))
        Q = [[0.1], [0.3], [0.8]]
        s1 = post.sample_joint(Q, np.random.default_rng(42))
        s2 = post.sample_joint(Q, np.random.default_rng(42))
        assert np.array_equal(s1, s2)

    def test_degenerate_covariance_returns_mean(self):
        hp = make_hp(out=1e-16, mean_const=0.9)
        post = gp.PosteriorGp(hp, gp.RegressionData.empty(1))
        sample = post.sample_joint([[0.3], [0.6]], np.random.default_rng(0))
        mean, _ = post.predict([[0.3], [0.6]])
        assert np.array_equal(sample, mean)

    def test_near_interpolation_sample_close_to_mean(self):
        hp = make_hp(noise=gp.NOISE_VARIANCE_FLOOR)
        post = gp.PosteriorGp(hp, gp.RegressionData([[0.3]], [1.7]))
        mean, cov = post.predict([[0.3]])
        sample = post.sample_joint([[0.3]], np.random.default_rng(0))
        assert abs(sample[0] - mean[0]) < 5 * math.sqrt(cov[0, 0]) + 1e-12

    def test_729_arm_sample_memory_bound(self):
        # the covariance is built and factored in place: the peak stays
        # below three m x m arrays (the covariance, its jittered copy and
        # headroom)
        rng = np.random.default_rng(4)
        grid = grid_points(3)
        X = grid[rng.integers(0, len(grid), 20)]
        hp = make_hp(ls=(0.3, 0.2, 0.5), noise=0.05)
        post = gp.PosteriorGp(hp, gp.RegressionData(X, rng.normal(size=20)))
        m = len(grid)
        # the same arms as an arm space, whose gathered Gram keeps the bound
        dim = environments.GridDim(0.0, 1.0, 0.1)
        space = environments.ArmSpace((dim,) * 3, (tuple(np.linspace(0.1, 0.9, 9).tolist()),) * 3)
        assert np.array_equal(space.array, grid)
        for queries in (grid, space):
            tracemalloc.start()
            try:
                post.sample_joint(queries, np.random.default_rng(0))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 3 * m * m * 8

    def test_monte_carlo_mean(self):
        hp = make_hp(ls=(0.3,), out=1.0, noise=0.1)
        post = gp.PosteriorGp(hp, gp.RegressionData([[0.2], [0.6]], [1.0, -0.5]))
        Q = [[0.1], [0.4], [0.9]]
        mean, cov = post.predict(Q)
        rng = np.random.default_rng(5)
        n = 10_000
        samples = np.array([post.sample_joint(Q, rng) for _ in range(n)])
        se = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(samples.mean(axis=0) - mean) < 3 * se + 1e-12)


# make_grid specs in 1, 2, 3 and 5 dimensions, with inexact steps and
# negative bounds
LATTICES = {
    "1d": [dict(lower=-0.3, upper=0.5, step=0.07)],
    "2d": [dict(lower=-2.0, upper=0.0, step=0.07), dict(lower=-2.0, upper=1.0, step=0.3)],
    "3d": [dict(lower=0.0, upper=1.0, step=0.1)] * 3,
    "5d": [dict(lower=-1.0, upper=0.7, step=0.45)] * 5,
}


class TestLatticeGram:
    @BOTH_KERNELS
    @pytest.mark.parametrize("shape", LATTICES)
    def test_gathered_posterior_is_bit_identical(self, shape, family):
        # the Gram matrix gathered from the distance table is kernel_matrix's
        # bit for bit, so the posterior and its draws are too
        space = environments.make_grid(LATTICES[shape])
        A = space.array
        rng = np.random.default_rng(len(A))
        for k in range(41):
            hp = make_hp(ls=np.exp(rng.uniform(-2.5, 0.5, space.ndim)), out=float(rng.uniform(0.2, 2)),
                         family=family, mean_const=float(rng.normal()))
            X = A[rng.integers(0, len(A), k)]
            post = gp.PosteriorGp(hp, gp.RegressionData(X, rng.normal(size=k)))
            for got, want in zip(post.predict(space), post.predict(A)):
                assert np.array_equal(got, want)
            got = post.sample_joint(space, np.random.default_rng(k))
            assert np.array_equal(got, post.sample_joint(A, np.random.default_rng(k)))

    def test_space_of_another_dimension_rejected(self):
        post = gp.PosteriorGp(make_hp(ls=(0.3, 0.3)), gp.RegressionData.empty(2))
        for shape in ("1d", "3d"):
            space = environments.make_grid(LATTICES[shape])
            with pytest.raises(InvalidArgumentError, match="kernel expects 2"):
                post.predict(space)
            with pytest.raises(InvalidArgumentError, match="kernel expects 2"):
                post.sample_joint(space, np.random.default_rng(0))


def parent_sample_joint(mean, cov, rng):
    # the sampling ladder as it was written before it shared one helper
    # with the likelihood factor, factoring with LAPACK potrf as a sample
    # does: the upper factor of the Fortran view, which is L in C order
    scale = float(np.max(np.diag(cov)))
    jitter = 1e-12 * max(scale, 1.0)
    eye = np.eye(cov.shape[0])
    while jitter <= 1e-2:
        U, info = dpotrf((cov + jitter * eye).T, lower=0, clean=1)
        if info == 0:
            L = U.T
            break
        jitter *= 10.0
    else:
        raise NumericalError("posterior covariance could not be factorized for sampling")
    return mean + L @ rng.standard_normal(mean.shape[0]), jitter


def indefinite_cov(rng, m, smallest):
    # a symmetric matrix with eigenvalues in [0.1, 2) and one at ``smallest``
    Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    cov = (Q * np.append(rng.uniform(0.1, 2.0, m - 1), smallest)) @ Q.T
    return 0.5 * (cov + cov.T)


class TestSamplingJitterLadder:
    def test_sample_past_first_rung_is_bit_identical(self, monkeypatch):
        post = gp.PosteriorGp(make_hp(), gp.RegressionData([[0.2]], [1.0]))
        rng = np.random.default_rng(8)
        rungs = set()
        # the first case factors at the first rung, the others only above it
        for m, smallest in [(6, 1e-3), (5, -3e-10), (12, -4e-9), (30, -2e-7), (8, -5e-4)]:
            mean = rng.normal(size=m)
            cov = indefinite_cov(rng, m, smallest)
            if smallest < 0:
                first_rung = 1e-12 * max(float(np.max(np.diag(cov))), 1.0)
                _, info = dpotrf((cov + first_rung * np.eye(m)).T, lower=0)
                assert info > 0
            monkeypatch.setattr(gp.PosteriorGp, "predict", lambda self, q: (mean, cov))
            expected, jitter = parent_sample_joint(mean, cov, np.random.default_rng(m))
            got = post.sample_joint(np.zeros((m, 1)), np.random.default_rng(m))
            assert np.array_equal(got, expected)
            rungs.add(jitter)
        assert len(rungs) == 5  # each case stops at a different rung

    def test_large_prior_sample_climbs_a_relative_ladder(self):
        # at output scale 1e11 the first rung, 1e-12 of the largest
        # variance, is above 1e-2: the ladder's top must scale with it
        space = environments.make_grid([dict(lower=0.0, upper=0.5, step=0.05)])
        post = gp.PosteriorGp(make_hp(ls=(0.1,), out=1e11), gp.RegressionData.empty(1))
        mean, cov = post.predict(space)
        first_rung = 1e-12 * float(np.max(np.diag(cov)))
        assert first_rung > 1e-2
        L = potrf_factor(cov + first_rung * np.eye(len(space)))
        expected = mean + L @ np.random.default_rng(3).standard_normal(len(space))
        assert np.array_equal(post.sample_joint(space, np.random.default_rng(3)), expected)

    def test_sample_reaches_the_top_rung_at_any_scale(self, monkeypatch):
        # at scale 1e200 the tenth tenfold step from 1e-12 * 1e200 lands
        # on 1.0000000000000002e198, a rounding above 1e-2 * 1e200, and
        # only that rung factors this covariance
        cov = np.diag([1e200, -5e197])
        monkeypatch.setattr(gp.PosteriorGp, "predict", lambda self, q: (np.zeros(2), cov))
        post = gp.PosteriorGp(make_hp(), gp.RegressionData.empty(1))
        sample = post.sample_joint(np.zeros((2, 1)), np.random.default_rng(0))
        assert np.all(np.isfinite(sample))

    def test_exhausted_ladder_raises(self, monkeypatch):
        cov = indefinite_cov(np.random.default_rng(9), 6, -0.5)
        monkeypatch.setattr(gp.PosteriorGp, "predict", lambda self, q: (np.zeros(6), cov))
        post = gp.PosteriorGp(make_hp(), gp.RegressionData.empty(1))
        with pytest.raises(NumericalError, match="could not be factorized for sampling"):
            post.sample_joint(np.zeros((6, 1)), np.random.default_rng(0))

    def test_likelihood_factor_past_first_rung_is_bit_identical(self):
        # near-duplicate inputs and no noise: the larger the output scale,
        # the further up the ladder the collapsed factor has to go
        X = np.array([[0.3 + o] for o in (0, 1e-12, 2e-12, 3e-9, 1e-6, 2e-6)] * 2)
        data = gp.RegressionData(X, np.zeros(len(X)))
        noises = set()
        for out in (1e6, 1e8, 1e10, 1e12):
            hp = make_hp(ls=(1.0,), out=out, noise=1e-20, family=gp.SQUARED_EXPONENTIAL)
            # the collapsed factor as it was written before the shared helper
            K = gp.kernel_matrix(hp, data.distinct_inputs)
            K[np.diag_indices_from(K)] += hp.noise_variance / data.counts
            with pytest.raises(np.linalg.LinAlgError):
                potrf_factor(K)
            jitter = 1e-8
            while True:
                try:
                    L = potrf_factor(K + np.diag(jitter / data.counts))
                    break
                except np.linalg.LinAlgError:
                    jitter *= 10.0
            got_L, got_noise = factor(hp, data)
            assert np.array_equal(got_L, L) and got_noise == hp.noise_variance + jitter
            noises.add(got_noise)
        assert len(noises) == 4  # each case stops at a different rung


def posterior_on(space, rng, k, family=gp.MATERN52):
    # a random posterior over k observations at arms of the space
    A = space.array
    hp = make_hp(ls=np.exp(rng.uniform(-2.0, 0.5, space.ndim)), out=float(rng.uniform(0.2, 2)),
                 family=family, mean_const=float(rng.normal()))
    return gp.PosteriorGp(hp, gp.RegressionData(A[rng.integers(0, len(A), k)], rng.normal(size=k)))


class TestSampleBuffers:
    # a draw over an arm space builds and factors its covariance in two
    # buffers kept with the space; a draw over its array of points uses
    # fresh arrays and is the reference
    def test_second_draw_allocates_less_than_one_matrix(self):
        space = environments.make_grid([dict(lower=0.0, upper=1.0, step=1 / 21)] * 2)
        m = len(space)
        assert m == 400
        post = posterior_on(space, np.random.default_rng(1), 6)
        post.sample_joint(space, np.random.default_rng(0))
        tracemalloc.start()
        try:
            post.sample_joint(space, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * m * 8

    def test_spaces_of_two_sizes_in_turn_are_bit_identical(self):
        spaces = [environments.make_grid(LATTICES["3d"]), environments.make_grid(LATTICES["1d"])]
        rng = np.random.default_rng(2)
        for k in range(12):
            space = spaces[k % 2]
            post = posterior_on(space, rng, k, [gp.MATERN52, gp.SQUARED_EXPONENTIAL][k // 2 % 2])
            got = post.sample_joint(space, np.random.default_rng(k))
            assert np.array_equal(got, post.sample_joint(space.array, np.random.default_rng(k)))

    def test_draw_after_a_jitter_rung_is_bit_identical(self, monkeypatch):
        # at output scale 1e6 and the noise floor, the covariance between
        # observed arms cancels badly enough that the first rungs fail;
        # each failed rung leaves the covariance's buffer half-factored
        infos = []
        real_potrf = gp.dpotrf

        def potrf(*args, **kwargs):
            factor, info = real_potrf(*args, **kwargs)
            infos.append(info)
            return factor, info

        monkeypatch.setattr(gp, "dpotrf", potrf)
        space = environments.make_grid([dict(lower=0.0, upper=1.0, step=0.05)])
        hp = make_hp(ls=(0.3,), out=1e6, noise=gp.NOISE_VARIANCE_FLOOR,
                     family=gp.SQUARED_EXPONENTIAL)
        X = space.array[::2]
        climbing = gp.PosteriorGp(hp, gp.RegressionData(X, np.zeros(len(X))))
        post = posterior_on(space, np.random.default_rng(3), 5)
        for draw in range(3):
            for p in (climbing, post):
                got = p.sample_joint(space, np.random.default_rng(draw))
                assert np.array_equal(got, p.sample_joint(space.array, np.random.default_rng(draw)))
        assert any(info > 0 for info in infos)

    def test_a_draw_is_not_changed_by_later_draws(self):
        space = environments.make_grid(LATTICES["2d"])
        rng = np.random.default_rng(4)
        post = posterior_on(space, rng, 3)
        first = post.sample_joint(space, np.random.default_rng(0))
        kept = first.copy()
        for k in range(3):
            posterior_on(space, rng, k).sample_joint(space, np.random.default_rng(k))
        assert np.array_equal(first, kept)

    def test_buffers_go_with_their_space(self):
        # a grid no other test builds, so that no equal space holds the entry
        space = environments.make_grid([dict(lower=0.0, upper=0.93, step=0.031)])
        posterior_on(space, np.random.default_rng(5), 2).sample_joint(space, np.random.default_rng(0))
        buffers = [weakref.ref(b) for b in gp._SAMPLE_BUFFERS[space]]
        assert [b().shape for b in buffers] == [(len(space), len(space))] * 2
        del space
        gc.collect()
        assert [b() for b in buffers] == [None, None]


class TestFit:
    def test_returns_init_below_two_observations(self):
        init = make_hp()
        assert gp.fit_type2_mle(gp.RegressionData([[0.1]], [1.0]), init) is init
        assert gp.fit_type2_mle(gp.RegressionData.empty(1), init) is init

    def test_monotone_improvement(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            T, d = int(rng.integers(2, 15)), int(rng.integers(1, 3))
            X = rng.uniform(0, 1, (T, d))
            y = rng.normal(0, 1, T)
            init = make_hp(ls=rng.uniform(0.05, 1.0, d), out=float(rng.uniform(0.1, 2)),
                           noise=float(rng.uniform(1e-4, 1.0)),
                           mean_const=float(rng.normal()))
            data = gp.RegressionData(X, y)
            budget = gp.FitBudget(restarts=4, max_evals=100, seed=seed)
            fitted = gp.fit_type2_mle(data, init, budget)
            assert (
                gp.log_marginal_likelihood(fitted, data)
                >= gp.log_marginal_likelihood(init, data) - 1e-9
            )

    def test_monotone_improvement_on_replicated_data(self):
        rng = np.random.default_rng(23)
        for seed in range(20):
            d, k = int(rng.integers(1, 3)), int(rng.integers(1, 6))
            X, y = replicated_data(rng, d, k, int(rng.integers(k + 2, 60)))
            init = random_hp(rng, d, gp.MATERN52)
            data = gp.RegressionData(X, y)
            budget = gp.FitBudget(restarts=4, max_evals=100, seed=seed)
            fitted = gp.fit_type2_mle(data, init, budget)
            assert (
                gp.log_marginal_likelihood(fitted, data)
                >= gp.log_marginal_likelihood(init, data) - 1e-9
            )

    def test_constant_targets_noise_hits_floor(self):
        X = np.linspace(0, 1, 10)[:, None]
        y = np.full(10, 2.5)
        init = make_hp()
        fitted = gp.fit_type2_mle(
            gp.RegressionData(X, y), init, gp.FitBudget(restarts=4, max_evals=100)
        )
        assert fitted.noise_variance >= gp.NOISE_VARIANCE_FLOOR

    def test_targets_whose_variance_overflows(self):
        # the heuristic start's output scale must stay a finite record value
        data = gp.RegressionData([[0.1], [0.2], [0.3], [0.1]], [1e200, -1e200, 3e199, 5e199])
        assert isinstance(gp.fit_type2_mle(data, make_hp()), gp.GpHyperparams)

    def test_inputs_whose_spread_overflows(self):
        # the squared deviations from the mean overflow: the heuristic
        # start's lengthscale must stay a finite record value
        data = gp.RegressionData([[2e200], [-2e200], [2e200]], [0.1, -0.2, 0.3])
        assert isinstance(gp.fit_type2_mle(data, make_hp()), gp.GpHyperparams)

    @pytest.mark.parametrize(
        "targets,mean", [([1e308] * 3, "inf"), ([1e308, -1e308] * 8, "nan")], ids=["inf", "nan"]
    )
    def test_targets_whose_mean_overflows_raise_numerical_error(self, targets, mean):
        # finite targets whose sum overflows: to inf, or, in numpy's pairwise
        # sum of 16 alternating targets, both ways to inf - inf
        X = np.linspace(0.1, 0.9, len(targets))[:, None]
        with pytest.raises(NumericalError, match=f"the targets' mean overflows to {mean}"):
            gp.fit_type2_mle(gp.RegressionData(X, targets), make_hp())

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(0, 1, (12, 1))
        y = np.sin(6 * X[:, 0]) + 0.1 * rng.standard_normal(12)
        init = make_hp()
        data = gp.RegressionData(X, y)
        a = gp.fit_type2_mle(data, init, gp.FitBudget(restarts=4, max_evals=100, seed=3))
        b = gp.fit_type2_mle(data, init, gp.FitBudget(restarts=4, max_evals=100, seed=3))
        assert a == b


class TestFitObjectiveIsLml:
    def test_objective_is_exact_negative_lml(self):
        rng = np.random.default_rng(41)
        checked = clamped = 0
        for family in (gp.SQUARED_EXPONENTIAL, gp.MATERN52):
            for d in (1, 2, 3):
                for replicated in (False, True):
                    k = int(rng.integers(1, 10))
                    if replicated:
                        X, y = replicated_data(rng, d, k, int(rng.integers(k + 1, 60)))
                    else:
                        X, y = rng.uniform(0, 1, (k, d)), rng.normal(0, 1, k)
                    data = gp.RegressionData(X, y)
                    hp = random_hp(rng, d, family)
                    objective = gp._fit_objective(data, hp)
                    x0 = gp._pack(hp)
                    # spread wide enough that the log-parameter clamp binds;
                    # all points in one stack
                    vecs = np.array([x0, *(x0 + rng.normal(0, 8, x0.shape) for _ in range(90))])
                    values = objective(vecs)
                    assert len(values) == len(vecs)
                    for vec, value in zip(vecs, values):
                        lml = gp.log_marginal_likelihood(gp._unpack(vec, hp), data)
                        assert value == -lml
                        checked += 1
                        clamped += bool(np.any(np.abs(vec[: d + 2]) > gp._LOG_PARAM_BOUND))
        assert checked >= 1000 and clamped >= 100

    @pytest.mark.parametrize("family", [gp.SQUARED_EXPONENTIAL, gp.MATERN52])
    def test_objective_is_exact_negative_lml_past_first_rung(self, family):
        data = near_duplicate_data(1)
        hp = make_hp(ls=(1.0,), family=family)
        vec = past_first_rung_vec(1)
        unpacked = gp._unpack(vec, hp)
        K = gp.kernel_matrix(unpacked, data.distinct_inputs)
        K[np.diag_indices_from(K)] += unpacked.noise_variance / data.counts
        with pytest.raises(np.linalg.LinAlgError):
            potrf_factor(K)
        assert factor(unpacked, data)[1] > unpacked.noise_variance
        (value,) = gp._fit_objective(data, hp)(vec[None])
        assert value < 1e25
        assert value == -gp.log_marginal_likelihood(unpacked, data)


def near_duplicate_data(d):
    # twelve inputs 1e-7 apart in the first dimension with 1e5 observations
    # each: at the largest output scale and the smallest noise the clamp
    # allows (past_first_rung_vec), noise/n is below the rounding in K_UU,
    # so the first factor fails
    U = np.full((12, d), 0.5)
    U[:, 0] = 0.3 + 1e-7 * np.arange(12)
    X = np.repeat(U, 100_000, axis=0)
    return gp.RegressionData(X, np.random.default_rng(5).normal(size=len(X)))


def past_first_rung_vec(d):
    return np.array([0.0] * d + [gp._LOG_PARAM_BOUND, -gp._LOG_PARAM_BOUND, 0.2])


def nan_rejecting(potrf):
    # LAPACK potrf as reference LAPACK has it, which stops at a NaN pivot;
    # OpenBLAS's potrf factors on through one
    def checked(a, **kwargs):
        c, info = potrf(a, **kwargs)
        nan = np.flatnonzero(np.isnan(np.diagonal(c)))
        return c, info or (int(nan[0]) + 1 if nan.size else 0)

    return checked


class TestStackedObjective:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stack_matches_per_point_reference(self, d, monkeypatch):
        # plain points, clamped points, a point past the first rung and a
        # point that does not factor at all (a NaN noise, whose pivot
        # potrf rejects), in one stack, against the reference objective of
        # each point alone
        monkeypatch.setattr(gp, "dpotrf", nan_rejecting(gp.dpotrf))
        monkeypatch.setitem(globals(), "dpotrf", nan_rejecting(dpotrf))
        data = near_duplicate_data(d)
        rng = np.random.default_rng(50 + d)
        for family in (gp.SQUARED_EXPONENTIAL, gp.MATERN52):
            hp = make_hp(ls=(1.0,) * d, family=family)
            x0 = gp._pack(hp)
            plain = [x0, *(x0 + rng.normal(0, 0.3, x0.shape) for _ in range(4))]
            clamped = [x0 + rng.normal(0, 8, x0.shape) for _ in range(4)]
            for i, vec in enumerate(clamped):
                vec[i % (d + 2)] = (-1) ** i * 20.0
            unfactorable = np.array([0.0] * (d + 1) + [math.nan, 0.0])
            vecs = np.array([*plain, *clamped, past_first_rung_vec(d), unfactorable])
            reference = ref_fit_objective(data, hp)
            values = gp._fit_objective(data, hp)(vecs)
            assert [bits(v) for v in values] == [bits(reference(vec)) for vec in vecs]
            assert values[-1] == gp._FAILED_FIT_VALUE
            assert ref_factor(ref_point(vecs[-2], hp), data)[2] > 0.0
            assert all(ref_factor(ref_point(vec, hp), data)[2] == 0.0 for vec in plain)

    @BOTH_KERNELS
    def test_nan_point_fails_on_this_lapack(self, family):
        # no potrf wrapper: a NaN log-noise, log-output-scale or
        # log-lengthscale scores _FAILED_FIT_VALUE though the LAPACK
        # factors on through a NaN pivot, alone or in a stack, and the
        # finite points of the stack keep their values
        rng = np.random.default_rng(52)
        data = gp.RegressionData(*replicated_data(rng, 2, 6, 20))
        hp = make_hp(ls=(0.5, 0.5), family=family)
        objective = gp._fit_objective(data, hp)
        x0 = gp._pack(hp)
        finite = [x0, x0 + rng.normal(0, 0.3, x0.shape)]
        nan_points = []
        for i in (3, 2, 0):
            vec = x0.copy()
            vec[i] = math.nan
            nan_points.append(vec)
            assert objective(vec[None]) == [gp._FAILED_FIT_VALUE]
        values = objective(np.array([finite[0], *nan_points, finite[1]]))
        assert values[1:4] == [gp._FAILED_FIT_VALUE] * 3
        assert [values[0], values[4]] == objective(np.array(finite))
        assert gp._jittered_cholesky(np.full((3, 3), math.nan).copy, 1e-8, 1.0) is None


# ---------------------------------------------------------------------------
# Bit-identity of the direct LAPACK solves. The references below are the
# likelihood, fit objective and posterior written with scipy's
# solve_triangular and np.clip; the program must give the same bits.


def ref_collapsed_lml(L, noise, resid, data):
    T, k = len(data), data.counts.shape[0]
    v = solve_triangular(L, resid, lower=True, check_finite=False)
    return float(
        -0.5 * (v @ v + data.within_ss / noise)
        - np.sum(np.log(np.diag(L)))
        - 0.5 * (T - k) * math.log(noise)
        - 0.5 * T * math.log(2.0 * math.pi)
        - 0.5 * data.log_count_sum
    )


def ref_factor(hp, data):
    # the collapsed factor of one point without the stacked _factor:
    # kernel_matrix, LAPACK potrf and the jitter ladder, rung by rung;
    # returns the factor, the noise it was factored at and the jitter
    K = gp.kernel_matrix(hp, data.distinct_inputs)
    K[np.diag_indices_from(K)] += hp.noise_variance / data.counts
    jitter = 0.0
    while jitter <= 1e-2:
        try:
            return potrf_factor(K + np.diag(jitter / data.counts)), hp.noise_variance + jitter, jitter
        except np.linalg.LinAlgError:
            jitter = 10.0 * jitter or 1e-8
    raise NumericalError("no rung of the ladder factors")


def ref_point(vec, template):
    # a packed vector's hyperparameters, clamped with np.clip, as a plain
    # record that also holds values GpHyperparams refuses (NaN)
    d = template.dim
    logs = np.clip(vec[: d + 2], -gp._LOG_PARAM_BOUND, gp._LOG_PARAM_BOUND)
    return SimpleNamespace(kernel=template.kernel, dim=d, lengthscales=np.exp(logs[:d]),
                           output_scale=math.exp(logs[d]),
                           noise_variance=max(math.exp(logs[d + 1]), gp.NOISE_VARIANCE_FLOOR),
                           mean_constant=vec[d + 2])


def ref_log_marginal_likelihood(hp, data):
    L, noise, _ = ref_factor(hp, data)
    return ref_collapsed_lml(L, noise, data.means - hp.mean_constant, data)


def ref_fit_objective(data, template):
    # the negative LML of one packed vector, or 1e25 where no rung factors
    def neg_lml(vec):
        try:
            return -ref_log_marginal_likelihood(ref_point(vec, template), data)
        except NumericalError:
            return 1e25

    return neg_lml


def ref_posterior(hp, data, Q):
    L, _ = factor(hp, data)
    v = solve_triangular(L, data.means - hp.mean_constant, lower=True)
    alpha = solve_triangular(L.T, v, lower=False)
    Ks = gp.kernel_matrix(hp, data.distinct_inputs, Q)
    mean = np.full(len(Q), hp.mean_constant) + Ks.T @ alpha
    V = solve_triangular(L, Ks, lower=True)
    cov = gp.kernel_matrix(hp, Q) - V.T @ V
    cov = 0.5 * (cov + cov.T)
    diag = np.diag(cov).copy()
    np.fill_diagonal(cov, np.maximum(diag, 0.0))
    return alpha, mean, cov


def bit_identity_cases(family, n, seed):
    # (data, hp) pairs: k from 1 to 12 distinct inputs in one or two
    # dimensions, alternately all distinct and replicated
    rng = np.random.default_rng(seed)
    for i in range(n):
        d, k = int(rng.integers(1, 3)), int(rng.integers(1, 13))
        if i % 2:
            X, y = replicated_data(rng, d, k, int(rng.integers(k + 1, 80)))
        else:
            X, y = rng.uniform(0, 1, (k, d)), rng.normal(0, 1, k)
        yield gp.RegressionData(X, y), random_hp(rng, d, family)


class TestLapackLoader:
    def test_routines_are_scipys_own(self):
        assert gp.dpotrf is lapack.dpotrf and gp.dtrtrs is lapack.dtrtrs
        loaded = sys.modules[gp._FLAPACK]
        dpotrf, dtrtrs = gp._load_lapack()
        assert dpotrf is lapack.dpotrf and dtrtrs is lapack.dtrtrs
        assert sys.modules[gp._FLAPACK] is loaded

    def find_spec_returning(self, monkeypatch, spec):
        find_spec = importlib.machinery.PathFinder.find_spec
        monkeypatch.setattr(
            importlib.machinery.PathFinder, "find_spec",
            lambda name, path=None, target=None:
                spec if name == gp._FLAPACK else find_spec(name, path, target),
        )

    def test_missing_extension_falls_back_to_scipy_linalg(self, monkeypatch):
        self.find_spec_returning(monkeypatch, None)
        assert gp._load_lapack() == (lapack.dpotrf, lapack.dtrtrs)
        # the fallback's own objects, so not a load that merely matched them
        monkeypatch.setattr(lapack, "dpotrf", "potrf")
        monkeypatch.setattr(lapack, "dtrtrs", "trtrs")
        assert gp._load_lapack() == ("potrf", "trtrs")

    def test_extension_that_does_not_load_falls_back(self, monkeypatch):
        class UnloadableLoader:
            def create_module(self, spec):
                raise ImportError("DLL load failed")

        spec = importlib.machinery.ModuleSpec(gp._FLAPACK, UnloadableLoader())
        self.find_spec_returning(monkeypatch, spec)
        monkeypatch.setattr(lapack, "dpotrf", "potrf")
        monkeypatch.setattr(lapack, "dtrtrs", "trtrs")
        loaded = sys.modules[gp._FLAPACK]
        assert gp._load_lapack() == ("potrf", "trtrs")
        assert sys.modules[gp._FLAPACK] is loaded


class TestLapackSolvesBitIdentical:
    @BOTH_KERNELS
    def test_neg_lml(self, family):
        rng = np.random.default_rng(31)
        for data, hp in bit_identity_cases(family, 30, 1):
            ours, ref = gp._fit_objective(data, hp), ref_fit_objective(data, hp)
            x0 = gp._pack(hp)
            # spread wide enough that the log-parameter clamp binds; the
            # points go to the objective in one stack
            vecs = np.array([x0, *(x0 + rng.normal(0, 8, x0.shape) for _ in range(20))])
            assert ours(vecs) == [ref(vec) for vec in vecs]

    @BOTH_KERNELS
    def test_log_marginal_likelihood(self, family):
        for data, hp in bit_identity_cases(family, 40, 2):
            L, noise = factor(hp, data)
            ref = ref_collapsed_lml(L, noise, data.means - hp.mean_constant, data)
            assert gp.log_marginal_likelihood(hp, data) == ref

    @BOTH_KERNELS
    def test_posterior_alpha_and_predict(self, family):
        rng = np.random.default_rng(32)
        for data, hp in bit_identity_cases(family, 40, 3):
            Q = rng.uniform(0, 1, (int(rng.integers(1, 20)), hp.dim))
            alpha, mean, cov = ref_posterior(hp, data, Q)
            post = gp.PosteriorGp(hp, data)
            ours_mean, ours_cov = post.predict(Q)
            assert np.array_equal(post.alpha, alpha)
            assert np.array_equal(ours_mean, mean)
            assert np.array_equal(ours_cov, cov)

    @BOTH_KERNELS
    def test_fit_type2_mle(self, family, monkeypatch):
        # Nelder-Mead only compares values, so a last-bit change rarely
        # moves its result; every point it evaluates and the value there
        # are compared as well.
        def fits(objective_of):
            evaluations = []

            def recording_objective(data, hp):
                objective = objective_of(data, hp)

                def traced(vecs):
                    values = objective(vecs)
                    evaluations.extend((vec.tobytes(), value) for vec, value in zip(vecs, values))
                    return values

                return traced

            monkeypatch.setattr(gp, "_fit_objective", recording_objective)
            budget = gp.FitBudget(restarts=2, max_evals=60)
            cases = bit_identity_cases(family, 6, 4)
            return [gp.fit_type2_mle(data, hp, budget) for data, hp in cases], evaluations

        ours = fits(gp._fit_objective)
        monkeypatch.setattr(gp, "log_marginal_likelihood", ref_log_marginal_likelihood)
        assert ours == fits(lambda data, hp: per_point(ref_fit_objective(data, hp)))

    def test_singular_factor_raises(self):
        L = np.array([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.2, 0.3, 2.0]])
        with pytest.raises(np.linalg.LinAlgError, match="trtrs info 2"):
            gp._solve_chol(L, np.ones(3))
        with pytest.raises(np.linalg.LinAlgError):
            gp._solve_chol(L, np.ones((3, 4)), transposed=True)


def per_point(fun):
    # a stacked objective from a function of one point
    return lambda vecs: [fun(vec) for vec in vecs]


def ref_unpacked_values(vec, template):
    # the clamp written with numpy, as reference for the Python-float one
    d = template.dim
    logs = np.minimum(np.maximum(vec[: d + 2], -gp._LOG_PARAM_BOUND), gp._LOG_PARAM_BOUND)
    noise = max(math.exp(logs[d + 1]), gp.NOISE_VARIANCE_FLOOR)
    return np.exp(logs[:d]), math.exp(logs[d]), noise, float(vec[d + 2])


@BOTH_KERNELS
def test_pack_round_trips(family):
    # values whose log comes back exactly through exp
    hp = gp.GpHyperparams((0.25, 0.5, 2.0), family, 1.5, 0.0625, -0.7)
    assert gp._unpack(gp._pack(hp), hp) == hp


def bits(value):
    # the float64 bytes of a number or array, so that NaN equals NaN
    return np.asarray(value, dtype=float).tobytes()


@BOTH_KERNELS
def test_unpacked_values_match_numpy_clamp(family):
    rng = np.random.default_rng(43)
    special = (math.inf, -math.inf, math.nan)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        template = random_hp(rng, d, family)
        # a stack of five, spread wide enough to cross +-_LOG_PARAM_BOUND
        vecs = rng.normal(0, 10, (5, d + 3))
        for vec in vecs:
            for i in rng.choice(vec.size, size=int(rng.integers(0, 3)), replace=False):
                vec[i] = special[rng.integers(0, 3)]
        ours = gp._unpacked_values(vecs, template)
        assert ours[0].shape == (5, d)
        for row, vec in zip(zip(*ours), vecs):
            assert [bits(v) for v in row] == [bits(v) for v in ref_unpacked_values(vec, template)]
        assert all(type(v) is float for v in ours[1] + ours[2])
        unpacked = gp._unpack(rng.normal(0, 10, d + 3), template)
        assert all(type(v) is float for v in (*unpacked.lengthscales, unpacked.output_scale,
                                              unpacked.noise_variance, unpacked.mean_constant))


# ---------------------------------------------------------------------------
# The fit's Nelder-Mead is a port of scipy's. Against scipy.optimize as
# the reference it must give the same result bits and evaluate the same
# points, with the same values, in the same order. The fit runs several
# searches in lockstep; each must do exactly what scipy does with its
# start alone.


def scipy_run(fun, x0, max_evals):
    # the result's bits and every (point, value) evaluated, as bytes
    evaluations = []

    def traced(x):
        value = fun(x)
        evaluations.append((bits(x), bits(value)))
        return value

    options = {"maxfev": max_evals, "xatol": gp._NM_XATOL, "fatol": gp._NM_FATOL}
    res = minimize(traced, np.array(x0, dtype=float), method="Nelder-Mead", options=options)
    return bits(res.x), bits(res.fun), evaluations


def lockstep_runs(objective, starts, max_evals, per_call):
    # the searches from all starts driven together by gp._lockstep, each
    # search's own (point, value) sequence recorded between it and the driver
    traces = []
    nelder_mead = gp._nelder_mead

    def recording(x0, max_evals):
        trace = []
        traces.append(trace)
        search = nelder_mead(x0, max_evals)
        wanted = next(search)
        while True:
            values = yield wanted
            trace.extend((bits(x), bits(value)) for x, value in zip(wanted, values))
            try:
                wanted = search.send(values)
            except StopIteration as stop:
                return stop.value

    calls = []

    def counted(vecs):
        calls.append(len(vecs))
        return objective(vecs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gp, "_nelder_mead", recording)
        starts = [np.array(x0, dtype=float) for x0 in starts]
        results = gp._lockstep(counted, starts, max_evals, per_call)
    assert max(calls) <= per_call
    return [(bits(x), bits(value), trace) for (x, value), trace in zip(results, traces)]


def assert_matches_scipy(objective, starts, max_evals):
    # ``objective`` takes a stack of points; scipy evaluates it one point
    # at a time. The driver serves one point per call, one whole simplex,
    # or every start at once.
    expected = [scipy_run(lambda x: objective(x[None])[0], x0, max_evals) for x0 in starts]
    n = len(starts[0])
    for per_call in (1, n + 1, 10**6):
        assert lockstep_runs(objective, starts, max_evals, per_call) == expected
    return [(np.frombuffer(x), float(np.frombuffer(value)[0]), len(evaluations))
            for x, value, evaluations in expected]


def fit_objectives(family, seed):
    # (objective, packed hyperparameters) on random data in 1 to 3
    # dimensions, alternately all distinct and replicated
    rng = np.random.default_rng(seed)
    for i, d in enumerate((1, 2, 3) * 2):
        k = int(rng.integers(2, 9))
        if i % 2:
            X, y = replicated_data(rng, d, k, int(rng.integers(k + 1, 40)))
        else:
            X, y = rng.uniform(0, 1, (k, d)), rng.normal(0, 1, k)
        hp = random_hp(rng, d, family)
        yield gp._fit_objective(gp.RegressionData(X, y), hp), gp._pack(hp)


class TestNelderMeadMatchesScipy:
    @BOTH_KERNELS
    def test_fit_objective(self, family):
        rng = np.random.default_rng(44)
        for objective, x_hp in fit_objectives(family, 5):
            n = x_hp.size
            # from the packed point itself to far from it, all at once
            starts = [x_hp + rng.normal(0, spread, n) for spread in (0.0, 0.3, 3.0)]
            # budgets that run out inside the initial simplex, and the fit's
            for max_evals in (*range(1, n + 2), 40, 60, 100):
                assert_matches_scipy(objective, starts, max_evals)

    def test_searches_of_unequal_length(self):
        # a start whose simplex is already within the tolerances stops
        # after it; the others go on, one of them alone
        fun = per_point(lambda x: float(x @ x))
        starts = [[0.7, 0.7], [0.0, 0.0], [2.0, -1.0]]
        runs = assert_matches_scipy(fun, starts, 200)
        nfev = [evaluations for _, _, evaluations in runs]
        assert nfev[1] == 3 < nfev[0] < nfev[2] < 200
        # a budget below the simplex, and a single start
        assert [r[2] for r in assert_matches_scipy(fun, starts, 2)] == [2, 2, 2]
        assert assert_matches_scipy(fun, starts[2:], 200)[0][2] == nfev[2]

    def test_expansion_cut_off_discards_the_better_reflection(self):
        # simplex {1, 1.05}; the reflection 0.95 improves, so an expansion
        # follows, and the budget refuses it
        [(x, value, nfev)] = assert_matches_scipy(per_point(lambda x: float(x[0])), [[1.0]], 3)
        assert (x.tolist(), value, nfev) == ([1.0], 1.0, 3)

    @pytest.mark.parametrize(
        "fun",
        [
            # reflection value between the best and the worst: outside
            lambda x: 2.0 * (x[0] - 1.0) if x[0] >= 1.0 else 1.0 - x[0],
            # reflection worse than the worst: inside
            lambda x: (x[0] - 1.02) ** 2,
        ],
        ids=["outside", "inside"],
    )
    def test_contraction_cut_off_is_discarded(self, fun):
        [(x, value, nfev)] = assert_matches_scipy(per_point(fun), [[1.0]], 3)
        assert (x.tolist(), value, nfev) == ([1.0], fun([1.0]), 3)
        # with one more evaluation the contraction is taken
        assert assert_matches_scipy(per_point(fun), [[1.0]], 4)[0][2] == 4

    def test_shrink_cut_off(self):
        # a plateau at 1.0 but for one strip at x = (1, 1.025), where the
        # first shrink moves the third vertex
        def fun(x):
            return 0.0 if x[0] < 1.001 and 1.02 < x[1] < 1.03 else 1.0

        # evaluations: simplex 3, reflection, contraction, then the shrink's
        # second vertex; the budget refuses the third, so its 0.0 is not seen
        [(x, value, nfev)] = assert_matches_scipy(per_point(fun), [[1.0, 1.0]], 6)
        assert (x.tolist(), value, nfev) == ([1.0, 1.0], 1.0, 6)
        [(x, value, nfev)] = assert_matches_scipy(per_point(fun), [[1.0, 1.0]], 7)
        assert (x.tolist(), value, nfev) == ([1.0, 1.025], 0.0, 7)

    def test_plateaus_and_ties(self):
        objective, x_hp = next(fit_objectives(gp.MATERN52, 6))
        bound = x_hp[0] + 0.02

        def failed_above(x):
            return gp._FAILED_FIT_VALUE if x[0] > bound else objective(x[None])[0]

        def nan_above(x):
            return math.nan if x[0] > 1.02 else float(np.floor(3.0 * x.sum()))

        def four_d(x):
            # with five vertices, numpy's argsort can reorder tied values
            # among the vertices a step keeps, even where the new vertex's
            # value is not tied
            return float(np.floor(10.0 * (x @ [2.0, -3.0, 2.0, -1.0])))

        # on these step functions a stable sort of tied values takes other
        # steps than np.argsort does
        plateaus = [
            lambda x: 1.0,
            lambda x: float(np.floor(10.0 * (x @ [1.0, -4.0, -5.0]))),
            lambda x: float(np.floor(3.0 * (x @ [5.0, -4.0, -4.0]))),
            nan_above,
        ]
        for max_evals in range(1, 50):
            assert_matches_scipy(per_point(failed_above), [x_hp], max_evals)
            # the plateaus from the same start, searched together
            for fun in plateaus:
                assert_matches_scipy(per_point(fun), [[1.0, 2.0, 0.5]], max_evals)
            assert_matches_scipy(per_point(four_d), [[1.0, 2.0, 0.5, -1.0]], max_evals)

    def test_zero_entries_in_the_start(self):
        objective, x_hp = next(fit_objectives(gp.SQUARED_EXPONENTIAL, 7))
        starts = [np.zeros_like(x_hp), np.where(np.arange(x_hp.size) % 2, x_hp, 0.0)]
        for max_evals in (*range(1, x_hp.size + 2), 60):
            assert_matches_scipy(objective, starts, max_evals)
        # -0.0 counts as zero when the initial simplex is built
        for max_evals in range(1, 40):
            assert_matches_scipy(per_point(lambda x: float(np.floor(4.0 * x[-1]))),
                                 [[0.0, -0.0, 1.0]], max_evals)


def regret_1d_data(T):
    # T noisy observations of a 1-D function on nine arms
    rng = np.random.default_rng(T)
    X = np.linspace(0.1, 0.9, 9)[rng.integers(0, 9, T), None]
    return gp.RegressionData(X, np.sin(6 * X[:, 0]) + 0.1 * rng.standard_normal(T))


class TestLockstepFit:
    def spy(self, monkeypatch):
        # the number of points in each call of the fit objective
        calls = []
        fit_objective = gp._fit_objective

        def counting(data, hp):
            objective = fit_objective(data, hp)

            def counted(vecs):
                calls.append(len(vecs))
                return objective(vecs)

            return counted

        monkeypatch.setattr(gp, "_fit_objective", counting)
        return calls

    @pytest.mark.parametrize("T", [20, 60, 100])
    def test_two_restarts_take_one_call_per_round(self, T, monkeypatch):
        # two searches of at most 40 points each: one call for both initial
        # simplices (five points each in 1-D), then at most 35 rounds
        calls = self.spy(monkeypatch)
        gp.fit_type2_mle(regret_1d_data(T), make_hp(), gp.FitBudget(2, 40))
        assert len(calls) <= 36 < sum(calls)
        assert calls[0] == 10

    def test_stack_is_bounded_by_the_input(self, monkeypatch):
        # 60 distinct 3-D inputs: 3600 entries a point, so a call holds at
        # most nine points, and only one search (seven simplex points) is
        # live at a time
        rng = np.random.default_rng(60)
        data = gp.RegressionData(rng.uniform(0, 1, (60, 3)), rng.normal(size=60))
        init, budget = make_hp(ls=(0.3, 0.3, 0.3)), gp.FitBudget(restarts=50, seed=2)
        sizes = []
        kernel_from_sqdist = gp._kernel_from_sqdist

        def spying(family, output_scale, d2):
            sizes.append(d2.size)
            return kernel_from_sqdist(family, output_scale, d2)

        monkeypatch.setattr(gp, "_kernel_from_sqdist", spying)
        fitted = gp.fit_type2_mle(data, init, budget)
        assert max(sizes) <= gp._BLOCK_ELEMENTS and max(sizes) == 7 * 3600
        # one point per call, so one search after another
        sizes.clear()
        monkeypatch.setattr(gp, "_BLOCK_ELEMENTS", 1)
        assert gp.fit_type2_mle(data, init, budget) == fitted
        assert set(sizes) == {3600}
