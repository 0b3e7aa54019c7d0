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

There is one likelihood path: one distance formula, exactly symmetric;
one factorization of K_UU + noise * diag(1/n) for the likelihood, the
fit and the posterior; and a fit objective that is exactly the negative
log marginal likelihood, so fitted points need no re-scoring.

All positive hyperparameters are handled in log space during fitting.
The fit's Nelder-Mead search is this module's own ``_nelder_mead``, a
port of scipy's that reproduces its iterates bit for bit. It is kept
here because importing ``scipy.optimize`` would cost every process that
runs the GP stack about 0.3 s and 20 MB, and its wrapper about 16 us
per simplex step; of scipy, the GP stack needs only ``scipy.linalg``.

Every Cholesky factorization recovers from a near-singular matrix on one
jitter ladder, in tenfold steps up to 1e-2: from 1e-8 for the likelihood
and posterior factor, where the jitter is extra noise variance (so the
result is the exact one at noise variance plus jitter), and from 1e-12
times the largest variance for a joint sample.

Triangular solves call LAPACK ``trtrs`` directly, as scipy's
``solve_triangular`` does inside its argument checking, so they give the
same bits at a fraction of the overhead for these small factors. The two
Cholesky factorizations use different routines. The k x k factor behind
the likelihood, the fit and the posterior is numpy's: scipy's ``potrf``
links a different BLAS build whose factors differ in the last bits, and
on an ill-posed fit (a lengthscale far below the grid step leaves the
likelihood flat) such bits move the fitted point and the arms it
chooses. The m x m factor of a joint sample calls scipy's LAPACK
``potrf`` in place: at 729 arms that takes about 9 ms against about 18 ms
through ``np.linalg.cholesky`` (one BLAS thread), and a last-bit change
there only perturbs one random draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

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
# Fit objective of hyperparameters whose matrix does not factor at all.
_FAILED_FIT_VALUE = 1e25
# Nelder-Mead stops once every vertex is within _NM_XATOL of the best in
# each coordinate and within _NM_FATOL of its value.
_NM_XATOL = 1e-3
_NM_FATOL = 1e-7
# kernel_matrix fills its output this many entries at a time (a block of
# whole rows), so each block's elementwise chain runs in cache.
_BLOCK_ELEMENTS = 1 << 15


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


def _sqdist(diffs, lengthscales, out: np.ndarray | None = None) -> np.ndarray:
    """Squared scaled distances from the per-dimension differences
    ``diffs`` (one array of x_j - x'_j per dimension, left unchanged):
    ((x_j - x'_j) / l_j)^2 summed one dimension at a time, into ``out``
    when given. Each term is the same for (x, x') and (x', x) and zero for
    equal points: a Gram matrix comes out exactly symmetric."""
    terms = zip(diffs, lengthscales)
    diff, ls = next(terms)
    d2 = np.divide(diff, ls, out=out)
    d2 *= d2
    term = None
    for diff, ls in terms:
        term = np.divide(diff, ls, out=term)
        term *= term
        d2 += term
    return d2


def _kernel_from_sqdist(family: str, output_scale: float, d2: np.ndarray) -> np.ndarray:
    """Kernel values from squared lengthscale-scaled distances.

    Consumes ``d2``: the values are computed in place and ``d2`` is
    returned. The operations are those of the textbook expressions, in
    their order (``output_scale * exp(-0.5 d2)``, and ``output_scale *
    (1 + s5r + 5/3 d2) * exp(-s5r)`` with s5r = sqrt(5 d2) taken as
    sqrt(5) * sqrt(d2)), so the bits are theirs; Matern-5/2 needs two
    buffers besides ``d2``.
    """
    if family == SQUARED_EXPONENTIAL:
        d2 *= -0.5
        np.exp(d2, out=d2)
        d2 *= output_scale
        return d2
    s5r = np.sqrt(d2)
    s5r *= math.sqrt(5.0)
    decay = np.negative(s5r)
    np.exp(decay, out=decay)
    s5r += 1.0
    d2 *= 5.0 / 3.0
    d2 += s5r
    d2 *= output_scale
    d2 *= decay
    return d2


def kernel_matrix(spec: KernelSpec, X, X2=None) -> np.ndarray:
    """Kernel Gram matrix of X (``X2=None``) or cross matrix of X and X2.

    The matrix is filled a block of rows at a time (about
    ``_BLOCK_ELEMENTS`` entries), so the distance and kernel chain of a
    block stays in cache; every entry goes through the same operations
    whatever the block, so the values do not depend on it. The Gram
    matrix needs no mirroring: the distances are exactly symmetric, so it
    is too, and its diagonal is exactly the output scale (the kernels here
    are stationary).
    """
    X = _as_matrix(X, spec.dim)
    X2 = X if X2 is None else _as_matrix(X2, spec.dim)
    out = np.empty((X.shape[0], X2.shape[0]))
    rows = max(1, _BLOCK_ELEMENTS // max(X2.shape[0], 1))
    for start in range(0, X.shape[0], rows):
        block = X[start : start + rows]
        diffs = (x[:, None] - x2 for x, x2 in zip(block.T, X2.T))
        d2 = _sqdist(diffs, spec.lengthscales, out=out[start : start + rows])
        _kernel_from_sqdist(spec.family, spec.output_scale, d2)
    return out


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
    ``diffs`` holds the (d, k, k) differences x_j - x'_j of the distinct
    inputs, one k x k array per dimension, computed once so that each
    factorization only scales, squares and sums them.
    """

    __slots__ = ("inputs", "diffs", "counts", "means", "within_ss", "n_obs", "log_count_sum")

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
        U = self.inputs.T
        self.diffs = U[:, :, None] - U[:, None, :]
        self.diffs.setflags(write=False)
        self.counts = counts[order].astype(float)
        self.means = np.bincount(inverse, weights=y, minlength=order.size) / self.counts
        self.within_ss = float(np.sum((y - self.means[inverse]) ** 2))
        self.n_obs = y.shape[0]
        self.log_count_sum = float(np.sum(np.log(self.counts)))


def _collapsed_factor(hp: GpHyperparams, reps: _Replicates) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K_UU + noise * diag(1/n) over the distinct
    inputs, and the noise variance it was factored at (see ``_factor``)."""
    k = hp.kernel
    return _factor(k.family, k.lengthscales, k.output_scale, hp.noise_variance, reps)


def _factor(family: str, lengthscales, output_scale: float, noise: float, reps: _Replicates):
    """The one factorization behind the likelihood, the fit and the
    posterior: the lower Cholesky factor of K_UU + noise * diag(1/n), and
    the noise variance it was factored at.

    On failure the jitter ladder adds escalating extra noise variance, as
    jitter/n on the diagonal, and the returned noise includes it.
    """
    K = _kernel_from_sqdist(family, output_scale, _sqdist(reps.diffs, lengthscales))
    n = K.shape[0]
    K.flat[:: n + 1] += noise / reps.counts
    try:
        return np.linalg.cholesky(K), noise
    except np.linalg.LinAlgError:
        pass
    message = f"Cholesky failed for {n}x{n} matrix even with jitter up to {_JITTER_MAX:g}"
    L, jitter = _jittered_cholesky(K, _JITTER_START, reps.counts, message, np.linalg.cholesky)
    return L, noise + jitter


def _jittered_cholesky(A: np.ndarray, jitter: float, divisor, message: str, cholesky):
    """Lower Cholesky factor of A + diag(jitter / divisor) and the jitter
    it took: the jitter grows tenfold after each failed factorization, and
    past _JITTER_MAX ``NumericalError(message)`` is raised. ``cholesky``
    factors a fresh copy, which it may overwrite, and raises
    ``LinAlgError`` on failure; A is not changed."""
    while jitter <= _JITTER_MAX:
        B = A.copy()
        B.flat[:: A.shape[0] + 1] += jitter / divisor
        try:
            return cholesky(B), jitter
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise NumericalError(message)


def _lapack_cholesky(B: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a C-contiguous symmetric B, in place.

    LAPACK takes Fortran order, in which B's memory is B^T = B. ``potrf``
    factors that as U^T U, and U in Fortran order is L = U^T in C order,
    so B becomes L with no copy; ``clean`` zeroes the other triangle.
    """
    _, info = dpotrf(B.T, lower=0, clean=1, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"Cholesky failed (LAPACK potrf info {info})")
    return B


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


def _unpacked_values(vec: np.ndarray, template: GpHyperparams):
    """Lengthscales, output scale, noise variance and mean constant of a
    packed vector: the log-parameters clamped to +-_LOG_PARAM_BOUND, the
    noise floored at NOISE_VARIANCE_FLOOR, and a mean of 0.0 for a zero
    mean. ``_unpack`` and the fit objective both read vectors through this.
    """
    d = template.kernel.dim
    values = vec.tolist()
    # Python floats clamp with np.clip's values at a fraction of its call cost
    logs = [min(max(v, -_LOG_PARAM_BOUND), _LOG_PARAM_BOUND) for v in values[: d + 2]]
    noise = max(math.exp(logs[d + 1]), NOISE_VARIANCE_FLOOR)
    mean = values[d + 2] if template.mean.family == "constant" else 0.0
    return np.exp(logs[:d]), math.exp(logs[d]), noise, mean


def _unpack(vec: np.ndarray, template: GpHyperparams) -> GpHyperparams:
    ls, output_scale, noise, mean_value = _unpacked_values(vec, template)
    kernel = replace(template.kernel, lengthscales=tuple(ls.tolist()), output_scale=output_scale)
    mean = template.mean
    if mean.family == "constant":
        mean = replace(mean, constant_value=mean_value)
    return GpHyperparams(mean=mean, kernel=kernel, noise_variance=noise)


def _fit_objective(data: RegressionData, template: GpHyperparams):
    """Negative log marginal likelihood over packed log-parameters.

    Exactly ``-log_marginal_likelihood(_unpack(vec, template), data)``:
    the same unpacking, the same factor with its jitter ladder and the
    same likelihood, so the value a search ends on is the LML of the
    hyperparameters it returns. Only a matrix that does not factor even
    at the top of the ladder scores ``_FAILED_FIT_VALUE``.
    """
    reps = data._replicates
    family = template.kernel.family

    def neg_lml(vec: np.ndarray) -> float:
        lengthscales, output_scale, noise, mean_value = _unpacked_values(vec, template)
        try:
            L, noise = _factor(family, lengthscales, output_scale, noise, reps)
        except NumericalError:
            return _FAILED_FIT_VALUE
        return -_collapsed_lml(L, noise, reps.means - mean_value, reps)

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


def _nelder_mead(fun, x0: np.ndarray, max_evals: int) -> tuple[np.ndarray, float]:
    """Minimize ``fun`` by the Nelder-Mead simplex method (Nelder & Mead
    1965) from ``x0`` with at most ``max_evals`` evaluations. Returns the
    best vertex of the final simplex and the least value on it.

    Iterate for iterate this is ``scipy.optimize.minimize(fun, x0,
    method="Nelder-Mead", options={"maxfev": max_evals, "xatol":
    _NM_XATOL, "fatol": _NM_FATOL})`` (scipy 1.17; non-adaptive, no
    bounds): the same initial simplex, step coefficients, centroid sum
    (row after row), vertex order (``np.argsort``, so ties resolve
    alike), stopping test and budget cut-off, so ``fun`` sees the same
    points. The vertex arithmetic runs on Python floats, whose + - * /
    round as numpy's do. An evaluation past the budget is refused, and
    the step that needed it is dropped as scipy drops it: an expansion
    or contraction is discarded, even after a better reflection, and a
    shrink leaves the vertices it already moved with their old values.
    """
    n = len(x0)
    start = x0.tolist()
    sim = [start]
    for k in range(n):
        vertex = list(start)
        vertex[k] = 1.05 * vertex[k] if vertex[k] != 0 else 0.00025
        sim.append(vertex)
    fsim = [math.inf] * (n + 1)
    evals = min(n + 1, max_evals)
    for k in range(evals):
        fsim[k] = fun(np.array(sim[k]))

    def ordered(sim, fsim):
        order = np.argsort(fsim).tolist()
        return [sim[i] for i in order], [fsim[i] for i in order]

    # scipy sorts the initial simplex twice; an unstable argsort need not
    # leave sorted ties in place
    sim, fsim = ordered(*ordered(sim, fsim))
    while evals < max_evals:
        best, worst = sim[0], sim[-1]
        if all(abs(a - b) <= _NM_XATOL for v in sim[1:] for a, b in zip(v, best)) and all(
            abs(fsim[0] - f) <= _NM_FATOL for f in fsim[1:]
        ):
            break
        # np.add.reduce's order, from its identity +0.0 (so -0.0 sums to 0.0)
        xbar = [0.0] * n
        for v in sim[:-1]:
            xbar = [a + b for a, b in zip(xbar, v)]
        xbar = [a / n for a in xbar]
        xr = [2 * c - w for c, w in zip(xbar, worst)]
        fxr = fun(np.array(xr))
        evals += 1
        if fxr < fsim[0]:
            if evals < max_evals:
                xe = [3 * c - 2 * w for c, w in zip(xbar, worst)]
                fxe = fun(np.array(xe))
                evals += 1
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif evals < max_evals:
            if fxr < fsim[-1]:
                xc = [1.5 * c - 0.5 * w for c, w in zip(xbar, worst)]
                fxc = fun(np.array(xc))
                shrink = not fxc <= fxr
            else:
                xc = [0.5 * c + 0.5 * w for c, w in zip(xbar, worst)]
                fxc = fun(np.array(xc))
                shrink = not fxc < fsim[-1]
            evals += 1
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (a - b) for a, b in zip(sim[j], best)]
                    if evals == max_evals:
                        break
                    fsim[j] = fun(np.array(sim[j]))
                    evals += 1
        sim, fsim = ordered(sim, fsim)
    return np.array(sim[0]), float(np.min(fsim))


def fit_type2_mle(
    data: RegressionData,
    init: GpHyperparams,
    budget: FitBudget | None = None,
) -> GpHyperparams:
    """Fit GP hyperparameters by maximizing the log marginal likelihood.

    Multi-start gradient-free (Nelder-Mead) search in log-parameter
    space: the warm start at ``init``, a moment-matched heuristic start,
    and seeded unit-normal perturbations of the heuristic. Each search
    runs ``_nelder_mead``, this module's port of scipy's Nelder-Mead
    with the same iterates, so that the GP stack does not import
    ``scipy.optimize``; it stops on the simplex spread (_NM_XATOL,
    _NM_FATOL) or after ``budget.max_evals`` evaluations. Never returns
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
        x, value = _nelder_mead(neg_lml, x0, budget.max_evals)
        if value >= _FAILED_FIT_VALUE:
            continue
        # the objective is exactly -LML at the point it unpacks to
        val = -value
        if val > best_val:
            best_val = val
            best_hp = _unpack(x, init)
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

        The covariance is exactly symmetric without symmetrizing: the prior
        Gram matrix is, and numpy computes ``V.T @ V`` with BLAS ``syrk``,
        which fills one triangle and mirrors it. Its diagonal is clamped at
        zero.
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
        cov = Kqq
        cov -= V.T @ V
        np.fill_diagonal(cov, np.maximum(np.diag(cov), 0.0))
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
        L, _ = _jittered_cholesky(cov, 1e-12 * max(scale, 1.0), 1.0, message, _lapack_cholesky)
        return mean + L @ rng.standard_normal(mean.shape[0])
