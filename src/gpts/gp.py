"""Exact Gaussian-process regression.

Kernels (squared-exponential and Matérn-5/2 with ARD lengthscales),
zero/constant mean functions, the exact log marginal likelihood,
Type-II maximum-likelihood hyperparameter fitting, closed-form posterior
inference with cached Cholesky statistics, and joint posterior sampling
at finite candidate sets.

Observations whose inputs repeat (arms played again from a finite grid)
are collapsed to their distinct inputs: the likelihood, the fit and the
posterior all work from the k distinct inputs, their replicate counts,
the per-input target means and the within-input sum of squares. This is
exact, not an approximation (the replicate identity of Binois, Gramacy &
Ludkovski 2018), and makes each factorization k x k however many
observations there are. Inputs count as the same only when they are
exactly equal, as repeated grid arms are.

All positive hyperparameters are handled in log space during fitting.
Every Cholesky factorization recovers from a near-singular matrix on one
jitter ladder, in tenfold steps up to 1e-2: from 1e-8 for the likelihood
and posterior factor, where the jitter is extra noise variance (so the
result is the exact one at noise variance plus jitter), and from 1e-12
times the largest variance for a joint sample.

Triangular solves call LAPACK ``trtrs`` directly, as scipy's
``solve_triangular`` does inside its argument checking, so they give the
same bits at a fraction of the overhead for these small factors. The
Cholesky factor stays numpy's: scipy's ``potrf`` links a different BLAS
build whose factors differ in the last bits, which would move fits and
the arms they choose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dtrtrs
from scipy.optimize import minimize

from .errors import InvalidArgumentError, NumericalError

__all__ = [
    "SQUARED_EXPONENTIAL",
    "MATERN52",
    "NOISE_VARIANCE_FLOOR",
    "KernelSpec",
    "MeanSpec",
    "GpHyperparams",
    "RegressionData",
    "FitBudget",
    "PosteriorGp",
    "kernel_matrix",
    "mean_vector",
    "log_marginal_likelihood",
    "fit_type2_mle",
]

SQUARED_EXPONENTIAL = "squared_exponential"
MATERN52 = "matern52"

# Strictly positive floor keeping K + sigma^2 I well conditioned.
NOISE_VARIANCE_FLOOR = 1e-6

_JITTER_START = 1e-8
_JITTER_MAX = 1e-2
_LOG_PARAM_BOUND = 12.0


@dataclass(frozen=True)
class KernelSpec:
    """A stationary covariance kernel with per-dimension (ARD) lengthscales."""

    family: str
    lengthscales: tuple[float, ...]
    output_scale: float

    def __post_init__(self):
        if self.family not in (SQUARED_EXPONENTIAL, MATERN52):
            raise InvalidArgumentError(f"unknown kernel family: {self.family!r}")
        if len(self.lengthscales) < 1:
            raise InvalidArgumentError("kernel needs at least one lengthscale")
        if any(not (ls > 0.0) for ls in self.lengthscales):
            raise InvalidArgumentError("lengthscales must be positive")
        if not (self.output_scale > 0.0):
            raise InvalidArgumentError("output_scale must be positive")

    @property
    def dim(self) -> int:
        return len(self.lengthscales)


@dataclass(frozen=True)
class MeanSpec:
    """Prior mean function: identically zero, or a fitted constant."""

    family: str = "zero"
    constant_value: float = 0.0

    def __post_init__(self):
        if self.family not in ("zero", "constant"):
            raise InvalidArgumentError(f"unknown mean family: {self.family!r}")

    def value(self) -> float:
        return self.constant_value if self.family == "constant" else 0.0


@dataclass(frozen=True)
class GpHyperparams:
    mean: MeanSpec
    kernel: KernelSpec
    noise_variance: float

    def __post_init__(self):
        if not (self.noise_variance > 0.0):
            raise InvalidArgumentError("noise_variance must be positive")


class RegressionData:
    """Immutable (inputs, targets) pair; inputs are (T, d), targets (T,).

    Non-empty data also keep their statistics collapsed to the distinct
    inputs, which the likelihood, the fit and the posterior work from.
    """

    __slots__ = ("inputs", "targets", "_replicates")

    def __init__(self, inputs, targets):
        X = np.atleast_2d(np.asarray(inputs, dtype=float))
        y = np.asarray(targets, dtype=float).ravel()
        if len(y) == 0:
            X = X.reshape(0, X.shape[1] if X.size else 1)
        if X.shape[0] != y.shape[0]:
            raise InvalidArgumentError(
                f"inputs ({X.shape[0]}) and targets ({y.shape[0]}) disagree in length"
            )
        if y.size and not np.all(np.isfinite(y)):
            raise InvalidArgumentError("targets must be finite")
        if X.size and not np.all(np.isfinite(X)):
            raise InvalidArgumentError("inputs must be finite")
        X.setflags(write=False)
        y.setflags(write=False)
        self.inputs = X
        self.targets = y
        self._replicates = _Replicates(X, y) if y.size else None

    def __len__(self) -> int:
        return self.targets.shape[0]

    @classmethod
    def empty(cls, dim: int) -> "RegressionData":
        return cls(np.zeros((0, dim)), np.zeros(0))


@dataclass(frozen=True)
class FitBudget:
    """Budget for the multi-start Type-II MLE search.

    ``restarts`` includes the warm start at the initial hyperparameters;
    additional starts perturb the initial point in log space.
    """

    restarts: int = 4
    max_evals: int = 100
    seed: int = 0


# ---------------------------------------------------------------------------
# kernels and means


def _as_matrix(points, dim: int | None = None) -> np.ndarray:
    X = np.atleast_2d(np.asarray(points, dtype=float))
    if dim is not None and X.shape[1] != dim:
        raise InvalidArgumentError(
            f"points have dimension {X.shape[1]}, kernel expects {dim}"
        )
    return X


def _scaled_sqdist(X: np.ndarray, X2: np.ndarray, lengthscales) -> np.ndarray:
    ls = np.asarray(lengthscales, dtype=float)
    A = X / ls
    B = X2 / ls
    d2 = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    return np.maximum(d2, 0.0)


def _kernel_from_sqdist(family: str, output_scale: float, d2: np.ndarray) -> np.ndarray:
    """Kernel values from squared lengthscale-scaled distances."""
    if family == SQUARED_EXPONENTIAL:
        return output_scale * np.exp(-0.5 * d2)
    s5r = math.sqrt(5.0) * np.sqrt(d2)
    return output_scale * (1.0 + s5r + (5.0 / 3.0) * d2) * np.exp(-s5r)


def kernel_matrix(spec: KernelSpec, X, X2=None) -> np.ndarray:
    """Kernel Gram/cross matrix.

    With ``X2=None`` the Gram matrix is mirrored from its lower triangle
    (bit-exact symmetry) and the diagonal is set exactly to the output
    scale (the kernels here are stationary).
    """
    X = _as_matrix(X, spec.dim)
    symmetric = X2 is None
    X2m = X if symmetric else _as_matrix(X2, spec.dim)
    K = _kernel_from_sqdist(spec.family, spec.output_scale, _scaled_sqdist(X, X2m, spec.lengthscales))
    if symmetric:
        K = np.tril(K) + np.tril(K, -1).T
        np.fill_diagonal(K, spec.output_scale)
    return K


def mean_vector(mean: MeanSpec, X) -> np.ndarray:
    X = _as_matrix(X)
    return np.full(X.shape[0], mean.value())


# ---------------------------------------------------------------------------
# replicate-collapsed statistics and factorization


class _Replicates:
    """Sufficient statistics of data collapsed to its distinct inputs.

    ``inputs`` holds the k distinct input rows in order of first
    appearance (matched by exact equality); ``counts`` and ``means`` the
    number of observations at each and their mean target; ``within_ss``
    the sum of squared deviations of the targets from their input's mean.
    """

    __slots__ = ("inputs", "counts", "means", "within_ss", "n_obs", "log_count_sum")

    def __init__(self, X: np.ndarray, y: np.ndarray):
        _, first, inverse, counts = np.unique(
            X, axis=0, return_index=True, return_inverse=True, return_counts=True
        )
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        # the inverse is 2-D on some numpy versions
        inverse = rank[np.ravel(inverse)]
        self.inputs = X[first[order]]
        self.inputs.setflags(write=False)
        self.counts = counts[order].astype(float)
        self.means = np.bincount(inverse, weights=y, minlength=order.size) / self.counts
        self.within_ss = float(np.sum((y - self.means[inverse]) ** 2))
        self.n_obs = y.shape[0]
        self.log_count_sum = float(np.sum(np.log(self.counts)))


def _collapsed_factor(hp: GpHyperparams, reps: _Replicates) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K_UU + noise * diag(1/n) over the distinct
    inputs, and the noise variance it was factored at.

    On failure the jitter ladder adds escalating extra noise variance, as
    jitter/n on the diagonal, and the returned noise includes it.
    """
    K = kernel_matrix(hp.kernel, reps.inputs)
    K[np.diag_indices_from(K)] += hp.noise_variance / reps.counts
    try:
        return np.linalg.cholesky(K), hp.noise_variance
    except np.linalg.LinAlgError:
        pass
    n = K.shape[0]
    message = f"Cholesky failed for {n}x{n} matrix even with jitter up to {_JITTER_MAX:g}"
    L, jitter = _jittered_cholesky(K, _JITTER_START, reps.counts, message)
    return L, hp.noise_variance + jitter


def _jittered_cholesky(A: np.ndarray, jitter: float, divisor, message: str):
    """Lower Cholesky factor of A + diag(jitter / divisor) and the jitter
    it took: the jitter grows tenfold after each failed factorization, and
    past _JITTER_MAX ``NumericalError(message)`` is raised. A is not
    changed."""
    while jitter <= _JITTER_MAX:
        B = A.copy()
        B.flat[:: A.shape[0] + 1] += jitter / divisor
        try:
            return np.linalg.cholesky(B), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalError(message)


def _solve_chol(L: np.ndarray, b: np.ndarray, transposed: bool = False) -> np.ndarray:
    """Solve L x = b, or L^T x = b, for a lower-triangular L.

    LAPACK takes Fortran order. For a C-contiguous L, as numpy's Cholesky
    returns, L^T is an upper factor in Fortran order that it takes
    without a copy, and ``solve_triangular`` passes it the same way.
    """
    x, info = dtrtrs(L.T, b, lower=0, trans=0 if transposed else 1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (LAPACK trtrs info {info})")
    return x


def _collapsed_lml(L: np.ndarray, noise: float, resid: np.ndarray, reps: _Replicates) -> float:
    """Exact log marginal likelihood of all T observations from the k x k
    factor L of K_UU + noise * diag(1/n) and the residual means
    ``resid`` = means - prior mean:

        log N(resid; 0, K_UU + noise diag(1/n)) - S / (2 noise)
            - (T - k)/2 log(2 pi noise) - 1/2 sum(log n)

    with S the within-input sum of squares.
    """
    T, k = reps.n_obs, reps.counts.shape[0]
    v = _solve_chol(L, resid)
    return float(
        -0.5 * (v @ v + reps.within_ss / noise)
        - np.log(L.diagonal()).sum()
        - 0.5 * (T - k) * math.log(noise)
        - 0.5 * T * math.log(2.0 * math.pi)
        - 0.5 * reps.log_count_sum
    )


# ---------------------------------------------------------------------------
# marginal likelihood and fitting


def log_marginal_likelihood(hp: GpHyperparams, data: RegressionData) -> float:
    """Exact Gaussian log marginal likelihood of the targets under the prior."""
    if len(data) == 0:
        raise InvalidArgumentError("log marginal likelihood needs at least one observation")
    reps = data._replicates
    L, noise = _collapsed_factor(hp, reps)
    return _collapsed_lml(L, noise, reps.means - hp.mean.value(), reps)


def _pack(hp: GpHyperparams) -> np.ndarray:
    vec = [math.log(ls) for ls in hp.kernel.lengthscales]
    vec.append(math.log(hp.kernel.output_scale))
    vec.append(math.log(hp.noise_variance))
    if hp.mean.family == "constant":
        vec.append(hp.mean.constant_value)
    return np.array(vec)


def _unpack(vec: np.ndarray, template: GpHyperparams) -> GpHyperparams:
    d = template.kernel.dim
    logs = np.clip(vec[: d + 2], -_LOG_PARAM_BOUND, _LOG_PARAM_BOUND)
    lengthscales = tuple(float(v) for v in np.exp(logs[:d]))
    output_scale = float(math.exp(logs[d]))
    noise = max(float(math.exp(logs[d + 1])), NOISE_VARIANCE_FLOOR)
    kernel = replace(template.kernel, lengthscales=lengthscales, output_scale=output_scale)
    mean = template.mean
    if mean.family == "constant":
        mean = replace(mean, constant_value=float(vec[d + 2]))
    return GpHyperparams(mean=mean, kernel=kernel, noise_variance=noise)


def _fit_objective(data: RegressionData, template: GpHyperparams):
    """Negative log marginal likelihood over packed log-parameters.

    Squared differences between the distinct inputs are precomputed per
    dimension once, so each evaluation only rescales them by the
    candidate lengthscales and factors a k x k matrix. The likelihood is
    log_marginal_likelihood's, without its jitter ladder: a matrix that
    does not factor scores 1e25. Used only to steer the search;
    candidates are re-scored with log_marginal_likelihood before
    acceptance.
    """
    reps = data._replicates
    U = reps.inputs
    d = template.kernel.dim
    diffs = U[:, None, :] - U[None, :, :]
    sq = diffs * diffs  # (k, k, d)
    family = template.kernel.family
    has_mean = template.mean.family == "constant"
    diag_step = U.shape[0] + 1

    def neg_lml(vec: np.ndarray) -> float:
        logs = np.minimum(np.maximum(vec[: d + 2], -_LOG_PARAM_BOUND), _LOG_PARAM_BOUND)
        K = _kernel_from_sqdist(family, math.exp(logs[d]), sq @ np.exp(-2.0 * logs[:d]))
        noise = max(math.exp(logs[d + 1]), NOISE_VARIANCE_FLOOR)
        K.flat[::diag_step] += noise / reps.counts
        try:
            L = np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            return 1e25
        resid = reps.means - vec[d + 2] if has_mean else reps.means
        return -_collapsed_lml(L, noise, resid, reps)

    return neg_lml


def _heuristic_start(data: RegressionData, template: GpHyperparams) -> GpHyperparams:
    """Moment-matched starting point: mean and output scale from the
    targets, lengthscales from the per-dimension input spread."""
    y = data.targets
    var = max(float(np.var(y)), 1e-4)
    spread = np.std(data.inputs, axis=0)
    fallback = np.asarray(template.kernel.lengthscales)
    lengthscales = tuple(
        float(s) if s > 1e-6 else float(f) for s, f in zip(spread, fallback)
    )
    mean = template.mean
    if mean.family == "constant":
        mean = replace(mean, constant_value=float(np.mean(y)))
    kernel = replace(template.kernel, lengthscales=lengthscales, output_scale=var)
    return GpHyperparams(
        mean=mean,
        kernel=kernel,
        noise_variance=max(0.1 * var, NOISE_VARIANCE_FLOOR),
    )


def fit_type2_mle(
    data: RegressionData,
    init: GpHyperparams,
    budget: FitBudget | None = None,
) -> GpHyperparams:
    """Fit GP hyperparameters by maximizing the log marginal likelihood.

    Multi-start gradient-free (Nelder-Mead) search in log-parameter
    space: the warm start at ``init``, a moment-matched heuristic start,
    and seeded unit-normal perturbations of the heuristic. Never returns
    hyperparameters with a lower marginal likelihood than ``init``; for
    fewer than two observations ``init`` is returned unchanged. A
    candidate replaces the incumbent only on strict improvement, so ties
    resolve to the earliest restart.
    """
    if len(data) < 2:
        return init
    budget = budget or FitBudget()
    neg_lml = _fit_objective(data, init)

    try:
        best_val = log_marginal_likelihood(init, data)
    except NumericalError:
        best_val = -math.inf
    best_hp = init

    x_init = _pack(init)
    x_heur = _pack(_heuristic_start(data, init))
    rng = np.random.default_rng(budget.seed)
    starts = [x_init, x_heur][: max(budget.restarts, 1)]
    starts += [
        x_heur + rng.normal(0.0, 1.0, size=x_heur.shape)
        for _ in range(budget.restarts - len(starts))
    ]
    for x0 in starts:
        try:
            res = minimize(
                neg_lml,
                x0,
                method="Nelder-Mead",
                options={"maxfev": budget.max_evals, "xatol": 1e-3, "fatol": 1e-7},
            )
        except (FloatingPointError, ValueError):
            continue
        cand = _unpack(np.asarray(res.x), init)
        try:
            val = log_marginal_likelihood(cand, data)
        except NumericalError:
            continue
        if val > best_val:
            best_val = val
            best_hp = cand
    return best_hp


# ---------------------------------------------------------------------------
# posterior


class PosteriorGp:
    """A fitted GP posterior with cached sufficient statistics.

    The statistics are over the k distinct inputs of the data:
    ``inputs`` holds them, ``chol_factor`` is the k x k lower Cholesky
    factor of K_UU + noise * diag(1/n) (n the replicate counts) and
    ``alpha`` solves that system for the per-input target means minus
    the prior mean. Immutable after construction; safe to share
    read-only. With empty data the posterior reproduces the prior
    exactly.
    """

    __slots__ = ("hyperparams", "inputs", "chol_factor", "alpha")

    def __init__(self, hyperparams: GpHyperparams, data: RegressionData):
        self.hyperparams = hyperparams
        if len(data) == 0:
            self.inputs = None
            self.chol_factor = None
            self.alpha = None
        else:
            reps = data._replicates
            L, _ = _collapsed_factor(hyperparams, reps)
            v = _solve_chol(L, reps.means - hyperparams.mean.value())
            alpha = _solve_chol(L, v, transposed=True)
            L.setflags(write=False)
            alpha.setflags(write=False)
            self.inputs = reps.inputs
            self.chol_factor = L
            self.alpha = alpha

    def predict(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean vector and covariance matrix at the query points.

        The covariance is symmetrized and its diagonal clamped at zero.
        """
        Q = _as_matrix(queries, self.hyperparams.kernel.dim)
        if Q.shape[0] == 0:
            raise InvalidArgumentError("predict needs at least one query point")
        prior_mean = mean_vector(self.hyperparams.mean, Q)
        Kqq = kernel_matrix(self.hyperparams.kernel, Q)
        if self.chol_factor is None:
            return prior_mean, Kqq
        Ks = kernel_matrix(self.hyperparams.kernel, self.inputs, Q)
        mean = prior_mean + Ks.T @ self.alpha
        V = _solve_chol(self.chol_factor, Ks)
        cov = Kqq - V.T @ V
        cov = 0.5 * (cov + cov.T)
        diag = np.diag(cov).copy()
        np.fill_diagonal(cov, np.maximum(diag, 0.0))
        return mean, cov

    def sample_joint(self, queries, rng: np.random.Generator) -> np.ndarray:
        """One draw from the joint posterior at the query points.

        Deterministic given the generator state. A numerically zero
        covariance degenerates to the predictive mean.
        """
        mean, cov = self.predict(queries)
        scale = float(np.max(np.diag(cov)))
        if scale < 1e-14:
            return mean.copy()
        message = "posterior covariance could not be factorized for sampling"
        L, _ = _jittered_cholesky(cov, 1e-12 * max(scale, 1.0), 1.0, message)
        return mean + L @ rng.standard_normal(mean.shape[0])
