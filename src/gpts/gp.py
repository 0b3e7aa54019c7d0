"""Exact Gaussian-process regression.

Kernels (squared-exponential and Matérn-5/2 with ARD lengthscales), a
constant prior mean, the exact log marginal likelihood, Type-II
maximum-likelihood hyperparameter fitting, closed-form posterior
inference with cached Cholesky statistics, and joint posterior sampling
at finite candidate sets. ``GpHyperparams`` is the one hyperparameter
record: the fit returns one, and the posterior and the run CSV read it.
``RegressionData`` is the one data record, from the run loop through the
fit to the posterior, collapsed to its distinct inputs.

There is one likelihood path, ``_factor`` and ``_collapsed_lml``, stacked
over B hyperparameter points: the likelihood and the posterior take it
with one point, and the fit (``fit_type2_mle``) with each round's points
of its Nelder-Mead searches (``_nelder_mead``, ``_lockstep``). Every
Cholesky factor, of the likelihood and of a joint sample, goes through
one jitter ladder (``_jittered_cholesky``) and LAPACK's ``potrf`` and
``trtrs``, which ``_load_lapack`` loads without importing scipy.linalg.
On a grid, the queries' prior Gram matrix is gathered from a table of
the distinct distances (``_gathered_gram``).

Inputs far apart in lengthscale units overflow some intermediate values
to inf: a squared scaled distance, the spread of the heuristic start.
The Matern clamp and the moment caps make those harmless, so
``kernel_matrix``, ``fit_type2_mle``, ``PosteriorGp`` and ``predict``
ignore floating-point overflow (not invalid values), each once per call
rather than once per likelihood evaluation, since entering an
``np.errstate`` takes about 2 us. So does ``RegressionData`` for its
within-input sum of squares, whose overflow leaves the fit at its warm
start.
"""

from __future__ import annotations

import bisect
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .environments import ArmSpace
from .errors import InvalidArgumentError, NumericalError, is_finite, is_integer

__all__ = [
    "SQUARED_EXPONENTIAL",
    "MATERN52",
    "NOISE_VARIANCE_FLOOR",
    "GpHyperparams",
    "RegressionData",
    "FitBudget",
    "PosteriorGp",
    "kernel_matrix",
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
# exp(-sqrt(5 * _MATERN_SQDIST_MAX)) is exactly 0
_MATERN_SQDIST_MAX = 1e6
# The largest output scale whose Matern-5/2 product output_scale * (1 +
# sqrt(5 d2) + 5/3 d2) stays finite at the clamp; the quotient itself
# rounds to a scale whose product overflows, hence the next float down.
_OUTPUT_SCALE_MAX = math.nextafter(
    sys.float_info.max
    / (1.0 + math.sqrt(5.0 * _MATERN_SQDIST_MAX) + 5.0 / 3.0 * _MATERN_SQDIST_MAX),
    0.0,
)
# kernel_matrix fills its output this many entries at a time (a block of
# whole rows), so each block's elementwise chain runs in cache.
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class GpHyperparams:
    """The GP's hyperparameters: a stationary ``kernel`` (SQUARED_EXPONENTIAL
    or MATERN52) with one (ARD) lengthscale per input dimension and an
    output scale, the observation noise variance and the constant prior
    mean. The fields are the keys of the ``gp`` config section; every
    number must be finite, and all but the mean positive. The output
    scale is at most about 1.077e302 (``_OUTPUT_SCALE_MAX``), so that no
    kernel value overflows.
    """

    lengthscales: tuple[float, ...]
    kernel: str = MATERN52
    output_scale: float = 1.0
    noise_variance: float = 0.01
    mean_constant: float = 0.0

    def __post_init__(self):
        if self.kernel not in (SQUARED_EXPONENTIAL, MATERN52):
            raise InvalidArgumentError(
                f"kernel must be {SQUARED_EXPONENTIAL!r} or {MATERN52!r}, got {self.kernel!r}"
            )
        if len(self.lengthscales) < 1:
            raise InvalidArgumentError("lengthscales needs at least one value")
        if not all(is_finite(ls) and ls > 0.0 for ls in self.lengthscales):
            raise InvalidArgumentError(
                f"lengthscales must be finite positive numbers, got {self.lengthscales}"
            )
        for name in ("output_scale", "noise_variance"):
            value = getattr(self, name)
            if not (is_finite(value) and value > 0.0):
                raise InvalidArgumentError(
                    f"{name} must be a finite positive number, got {value!r}"
                )
        if self.output_scale > _OUTPUT_SCALE_MAX:
            raise InvalidArgumentError(
                f"output_scale must be at most {_OUTPUT_SCALE_MAX!r}, got {self.output_scale!r}"
            )
        if not is_finite(self.mean_constant):
            raise InvalidArgumentError(
                f"mean_constant must be a finite number, got {self.mean_constant!r}"
            )

    @property
    def dim(self) -> int:
        return len(self.lengthscales)


class RegressionData:
    """Immutable GP data: the raw observations and their statistics
    collapsed to the distinct inputs, which the likelihood, the fit and
    the posterior work from. The collapse is exact, not an approximation
    (the replicate identity of Binois, Gramacy & Ludkovski 2018), and
    makes each factorization k x k however many observations there are.
    Inputs count as the same only when they are exactly equal, as repeated
    grid arms are.

    ``inputs`` (T, d) and ``targets`` (T,) hold the observations; empty
    data keep the dimension of (0, d) inputs. ``distinct_inputs`` holds
    the k distinct input rows in order of first appearance, grouped in one
    pass by equality of the row tuples (0.0 and -0.0 are one input, kept
    as first seen); ``counts`` and ``means`` the number of observations at
    each and their mean target; ``within_ss`` the sum of squared
    deviations of the targets from their input's mean, and
    ``log_count_sum`` the sum of the log counts. Targets at one input
    more than about 1e154 apart overflow ``within_ss`` to inf, which makes
    the likelihood -inf at every hyperparameter, so the fit keeps its warm
    start. An input whose targets sum past the float range has an infinite
    mean, which ``PosteriorGp`` refuses. ``diffs`` holds the (d, k, k)
    differences x_j - x'_j of the distinct inputs, one k x k array per
    dimension, computed once so that each factorization only scales,
    squares and sums them.
    """

    __slots__ = ("inputs", "targets", "distinct_inputs", "diffs", "counts", "means",
                 "within_ss", "log_count_sum")

    def __init__(self, inputs, targets):
        # copies: freezing the caller's own arrays would be a side effect
        X = np.array(inputs, dtype=float, ndmin=2)
        y = np.array(targets, dtype=float).ravel()
        if X.size == 0 and len(y) == 0:
            X = X.reshape(0, X.shape[1] or 1)
        if X.shape[0] != y.shape[0]:
            raise InvalidArgumentError(
                f"inputs ({X.shape[0]}) and targets ({y.shape[0]}) disagree in length"
            )
        if y.size and not np.all(np.isfinite(y)):
            raise InvalidArgumentError("targets must be finite")
        if X.size and not np.all(np.isfinite(X)):
            raise InvalidArgumentError("inputs must be finite")
        slots: dict[tuple[float, ...], int] = {}
        inverse = np.array([slots.setdefault(row, len(slots)) for row in map(tuple, X.tolist())],
                           dtype=np.intp)
        U = np.array(list(slots), dtype=float).reshape(len(slots), X.shape[1])
        self.inputs = X
        self.targets = y
        self.distinct_inputs = U
        self.diffs = U.T[:, :, None] - U.T[:, None, :]
        self.counts = np.bincount(inverse).astype(float)
        self.means = np.bincount(inverse, weights=y) / self.counts
        with np.errstate(over="ignore"):
            self.within_ss = float(np.sum((y - self.means[inverse]) ** 2))
        self.log_count_sum = float(np.sum(np.log(self.counts)))
        for array in (X, y, U, self.diffs, self.counts, self.means):
            array.setflags(write=False)

    def __len__(self) -> int:
        return self.targets.shape[0]

    @classmethod
    def empty(cls, dim: int) -> "RegressionData":
        return cls(np.zeros((0, dim)), np.zeros(0))


@dataclass(frozen=True)
class FitBudget:
    """Budget for the multi-start Type-II MLE search.

    ``restarts`` includes the warm start at the initial hyperparameters;
    additional starts perturb the initial point in log space. Each start
    runs at most ``max_evals`` evaluations; both must be at least 1.
    """

    restarts: int = 2
    max_evals: int = 60
    seed: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():
            # numpy seeds its generators from non-negative integers only
            least = 0 if name == "seed" else 1
            if not (is_integer(value) and value >= least):
                raise InvalidArgumentError(f"{name} must be an integer >= {least}, got {value!r}")


# ---------------------------------------------------------------------------
# kernels


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
    when given. A lengthscale is a number or an array that broadcasts
    against the differences: B points' (B, 1, 1) lengthscales give a stack
    of B distance arrays. Each term is the same for (x, x') and (x', x) and
    zero for equal points: a Gram matrix comes out exactly symmetric."""
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


def _kernel_from_sqdist(family: str, output_scale, d2: np.ndarray) -> np.ndarray:
    """Kernel values from squared lengthscale-scaled distances, at an
    output scale that is a number or, for a (B, k, k) stack, a (B, 1, 1)
    array.

    Consumes ``d2``: the values are computed in place and ``d2`` is
    returned. The operations are those of the textbook expressions, in
    their order (``output_scale * exp(-0.5 d2)``, and ``output_scale *
    (1 + s5r + 5/3 d2) * exp(-s5r)`` with s5r = sqrt(5 d2) taken as
    sqrt(5) * sqrt(d2)), so the bits are theirs; Matern-5/2 needs two
    buffers besides ``d2``. Matern-5/2 first clamps ``d2`` at
    ``_MATERN_SQDIST_MAX``, where the kernel is already exactly 0, so an
    overflowing distance gives 0, not (1 + inf) * 0.
    """
    if family == SQUARED_EXPONENTIAL:
        d2 *= -0.5
        np.exp(d2, out=d2)
        d2 *= output_scale
        return d2
    np.minimum(d2, _MATERN_SQDIST_MAX, out=d2)
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


def kernel_matrix(hp: GpHyperparams, X, X2=None) -> np.ndarray:
    """Kernel Gram matrix of X (``X2=None``) or cross matrix of X and X2.

    The matrix is filled a block of rows at a time (about
    ``_BLOCK_ELEMENTS`` entries), so the distance and kernel chain of a
    block stays in cache; every entry goes through the same operations
    whatever the block, so the values do not depend on it. The Gram
    matrix needs no mirroring: the distances are exactly symmetric, so it
    is too, and its diagonal is exactly the output scale (the kernels here
    are stationary).
    """
    X = _as_matrix(X, hp.dim)
    X2 = X if X2 is None else _as_matrix(X2, hp.dim)
    out = np.empty((X.shape[0], X2.shape[0]))
    rows = max(1, _BLOCK_ELEMENTS // max(X2.shape[0], 1))
    with np.errstate(over="ignore"):
        for start in range(0, X.shape[0], rows):
            block = X[start : start + rows]
            diffs = (x[:, None] - x2 for x, x2 in zip(block.T, X2.T))
            d2 = _sqdist(diffs, hp.lengthscales, out=out[start : start + rows])
            _kernel_from_sqdist(hp.kernel, hp.output_scale, d2)
    return out


def _gathered_gram(hp: GpHyperparams, space: ArmSpace,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The m x m Gram matrix ``K[a, b] = k(table[:, index[a, b]])`` of the
    space's ``distances``, into ``out`` when given. The table holds the c
    distinct combinations of per-dimension distances |x_j - x'_j| (9261 on
    a 9 x 9 x 9 grid, against its 531 441 pairs), and the index the
    combination of each pair. The kernel runs once on the table's c
    columns and is gathered a block of rows at a time, so no m x m
    ``intp`` array exists. The space built the index into its own table,
    so the gather need not check (nor buffer) each block.

    The bits are ``kernel_matrix``'s: the squared scaled term of -d
    equals that of d, ``_sqdist`` sums the dimensions in the same order,
    and the kernel chain is elementwise."""
    table, index = space.distances
    m = len(index)
    values = _kernel_from_sqdist(hp.kernel, hp.output_scale, _sqdist(table, hp.lengthscales))
    if out is None:
        out = np.empty((m, m))
    rows = max(1, _BLOCK_ELEMENTS // m)
    for start in range(0, m, rows):
        block = slice(start, start + rows)
        np.take(values, index[block], out=out[block], mode="clip")
    return out


# ---------------------------------------------------------------------------
# factorization

_FLAPACK = "scipy.linalg._flapack"


def _load_lapack():
    """scipy's ``dpotrf`` and ``dtrtrs``, from its ``_flapack`` extension
    loaded by file, without importing ``scipy`` or ``scipy.linalg``, or
    from ``scipy.linalg.lapack`` if the file is not found or does not load
    on its own (a platform whose extensions need the DLL directories
    scipy's ``__init__`` adds). sys.modules is left as it was: CPython
    files a single-phase extension there as it creates it, and a later
    ``import scipy.linalg`` loads its own module, with the same functions.

    This pair factors and solves every matrix of the module. It is called
    directly, as scipy's ``cholesky`` and ``solve_triangular`` call it
    inside their argument checking, so it gives the same bits at a
    fraction of the overhead for small factors. Importing ``scipy.linalg``
    (scipy 1.17, numpy 2.4) would cost every process that runs the GP
    stack about 0.2 s and 25 MB, mostly in the numpy modules it loads
    (``numpy.f2py``, ``numpy.testing``).
    """
    scipy_spec = importlib.util.find_spec("scipy")
    linalg = [os.path.join(path, "linalg")
              for path in getattr(scipy_spec, "submodule_search_locations", None) or ()]
    spec = importlib.machinery.PathFinder.find_spec(_FLAPACK, linalg)
    if spec is not None:
        filed = _FLAPACK in sys.modules
        try:
            flapack = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(flapack)
            return flapack.dpotrf, flapack.dtrtrs
        except ImportError:
            pass
        finally:
            if not filed:
                sys.modules.pop(_FLAPACK, None)
    from scipy.linalg import lapack

    return lapack.dpotrf, lapack.dtrtrs


dpotrf, dtrtrs = _load_lapack()


def _noisy_gram(family: str, lengthscales, output_scale, noises,
                data: RegressionData) -> np.ndarray:
    """K_UU + noise * diag(1/n) over the distinct inputs for each of B
    hyperparameter points, a (B, k, k) stack: from d per-dimension
    ``lengthscales`` and an ``output_scale``, each a number for one point
    or a (B, 1, 1) array for B, and a list of B noise variances. The noise
    goes on through a strided view of the B diagonals."""
    K = _kernel_from_sqdist(family, output_scale, _sqdist(data.diffs, lengthscales))
    B, k = len(noises), data.counts.shape[0]
    K.reshape(B, k * k)[:, :: k + 1] += np.divide.outer(noises, data.counts)
    return K.reshape(B, k, k)


def _factored_in_place(A: np.ndarray) -> bool:
    """Whether LAPACK ``potrf`` factored the C-contiguous A in place into
    its lower Cholesky factor; a failed attempt leaves A half-factored.

    LAPACK takes Fortran order, in which A's memory is A^T = A. ``potrf``
    factors that as U^T U, and U in Fortran order is L = U^T in C order,
    so A becomes L with no copy; ``clean`` zeroes the other triangle.

    A NaN pivot fails as a non-positive one does. Reference LAPACK stops
    at it; OpenBLAS's ``potrf`` factors on through it with ``info = 0``.
    Each later pivot subtracts the square of an entry that was divided by
    the NaN one, so it is NaN too: the diagonal holds a NaN exactly when
    the last pivot is one.
    """
    return dpotrf(A.T, lower=0, clean=1, overwrite_a=1)[1] == 0 and not math.isnan(A[-1, -1])


def _factor(family: str, lengthscales, output_scales, noises, data: RegressionData):
    """The one factorization behind the likelihood, the fit and the
    posterior, for B hyperparameter points at once: the (B, k, k) stack of
    lower Cholesky factors of K_UU + noise * diag(1/n), and the noise
    variance each slice was factored at. ``lengthscales`` holds B rows of
    d (a (B, d) array, or any sequence of one row); ``output_scales`` and
    ``noises`` B numbers each.

    The stack is built elementwise in the same operations and order as one
    point's matrix, so each slice has the bits it would have alone; one
    point's values go in as numbers, which broadcast as its (1, 1, 1)
    arrays would. Each slice is factored in place. A slice that fails
    climbs the jitter ladder alone, from a fresh rebuild of its matrix: it
    adds escalating extra noise variance, from ``_JITTER_START`` to
    ``_JITTER_MAX``, as jitter/n on the diagonal, so it is factored
    exactly at the larger noise, and its returned noise includes it. A
    slice that does not factor even at the top of the ladder is left as
    the identity, and its noise is None.
    """
    if len(noises) == 1:
        K = _noisy_gram(family, lengthscales[0], output_scales[0], noises, data)
    else:
        K = _noisy_gram(family, lengthscales.T[:, :, None, None],
                        np.array(output_scales)[:, None, None], noises, data)
    factored = list(noises)
    for b, A in enumerate(K):
        if _factored_in_place(A):
            continue
        rebuilt = _noisy_gram(family, lengthscales[b], output_scales[b], noises[b : b + 1],
                              data)[0]
        ladder = _jittered_cholesky(rebuilt.copy, _JITTER_START, data.counts)
        if ladder is None:
            A[...] = np.eye(len(A))
            factored[b] = None
        else:
            A[...], jitter = ladder
            factored[b] += jitter
    return K, factored


def _factor_point(hp: GpHyperparams, data: RegressionData):
    """``_factor`` at one hyperparameter point: its k x k factor and the
    noise it was factored at. Raises NumericalError if it does not factor."""
    L, (noise,) = _factor(hp.kernel, [hp.lengthscales], [hp.output_scale], [hp.noise_variance],
                          data)
    if noise is None:
        k = L.shape[1]
        raise NumericalError(
            f"Cholesky failed for {k}x{k} matrix even with jitter up to {_JITTER_MAX:g}"
        )
    return L[0], noise


def _jittered_cholesky(fill, jitter: float, divisor, jitter_max: float = _JITTER_MAX):
    """Lower Cholesky factor of A + diag(jitter / divisor) and the jitter
    it took, or None: the one jitter ladder of every factor in this
    module. The jitter grows tenfold after each failed factorization, and
    past ``jitter_max`` the ladder gives up. Each attempt factors
    ``fill()``, a C-contiguous A of its own, in place
    (``_factored_in_place``), so a failed attempt leaves it half-factored.
    """
    while jitter <= jitter_max:
        B = fill()
        B.flat[:: B.shape[0] + 1] += jitter / divisor
        if _factored_in_place(B):
            return B, jitter
        jitter *= 10.0
    return None


def _solve_chol(L: np.ndarray, b: np.ndarray, transposed: bool = False) -> np.ndarray:
    """Solve L x = b, or L^T x = b, for a lower-triangular L.

    LAPACK takes Fortran order. For a C-contiguous L, as ``potrf`` leaves
    it, L^T is an upper factor in Fortran order that it takes without a
    copy, and ``solve_triangular`` passes it the same way.
    """
    x, info = dtrtrs(L.T, b, lower=0, trans=0 if transposed else 1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (LAPACK trtrs info {info})")
    return x


def _record_terms(data: RegressionData) -> tuple:
    """What ``_collapsed_lml`` takes from the record alone: the means, k,
    (T - k)/2, the within-input sum of squares S, T/2 log(2 pi) and 1/2
    sum(log n). The fit takes them once for all its likelihood calls."""
    T, k = len(data), data.counts.shape[0]
    return (data.means, k, 0.5 * (T - k), data.within_ss, 0.5 * T * math.log(2.0 * math.pi),
            0.5 * data.log_count_sum)


def _collapsed_lml(L: np.ndarray, noises, mean_constants, terms: tuple) -> list:
    """Exact log marginal likelihood of all T observations for each slice
    of a (B, k, k) stack L of factors of K_UU + noise * diag(1/n), from the
    noise each was factored at, its prior mean constant and the record's
    ``_record_terms``:

        log N(means - mean constant; 0, K_UU + noise diag(1/n))
            - S / (2 noise) - (T - k)/2 log(2 pi noise) - 1/2 sum(log n)

    None for a slice whose noise is None (one that did not factor). The
    logs of all the stack's diagonals are taken in one call, and each row
    summed as ``sum()`` sums one; each slice then takes one triangular
    solve and one BLAS ``ddot``. The terms are those of the formula, in
    its order.
    """
    means, k, half_dof, within_ss, const_T, const_n = terms
    log_dets = np.add.reduce(np.log(L.reshape(len(L), k * k)[:, :: k + 1]), 1).tolist()
    lmls = []
    for factor, noise, mean_constant, log_det in zip(L, noises, mean_constants, log_dets):
        if noise is None:
            lmls.append(None)
            continue
        v = _solve_chol(factor, means - mean_constant)
        lmls.append(-0.5 * (float(v.dot(v)) + within_ss / noise) - log_det
                    - half_dof * math.log(noise) - const_T - const_n)
    return lmls


# ---------------------------------------------------------------------------
# marginal likelihood and fitting


def log_marginal_likelihood(hp: GpHyperparams, data: RegressionData) -> float:
    """Exact Gaussian log marginal likelihood of the targets under the prior."""
    if len(data) == 0:
        raise InvalidArgumentError("log marginal likelihood needs at least one observation")
    L, noise = _factor_point(hp, data)
    return _collapsed_lml(L[None], [noise], [hp.mean_constant], _record_terms(data))[0]


def _pack(hp: GpHyperparams) -> np.ndarray:
    """The fit's search vector [log lengthscales..., log output scale,
    log noise variance, mean constant]."""
    vec = [math.log(ls) for ls in hp.lengthscales]
    vec += [math.log(hp.output_scale), math.log(hp.noise_variance), hp.mean_constant]
    return np.array(vec)


def _unpacked_values(vecs: np.ndarray, template: GpHyperparams):
    """Lengthscales (B, d), output scales, noise variances and mean
    constants of a (B, d + 3) stack of packed vectors: the log-parameters
    clamped to +-_LOG_PARAM_BOUND and the noise floored at
    NOISE_VARIANCE_FLOOR. ``_unpack`` and the fit objective both read
    vectors through this. The lengthscales come from ``np.exp``; the output
    scales and noise variances from ``math.exp``, and the mean constants,
    are lists of floats, read in one pass.
    """
    d, bound = template.dim, _LOG_PARAM_BOUND
    lengthscales = np.exp(np.minimum(np.maximum(vecs[:, :d], -bound), bound))
    output_scales, noises, mean_constants = [], [], []
    for scale, noise, mean_constant in vecs[:, d:].tolist():
        output_scales.append(math.exp(min(max(scale, -bound), bound)))
        noises.append(max(math.exp(min(max(noise, -bound), bound)), NOISE_VARIANCE_FLOOR))
        mean_constants.append(mean_constant)
    return lengthscales, output_scales, noises, mean_constants


def _unpack(vec: np.ndarray, template: GpHyperparams) -> GpHyperparams:
    ls, (output_scale,), (noise,), (mean_constant,) = _unpacked_values(vec[None], template)
    return replace(template, lengthscales=tuple(ls[0].tolist()), output_scale=output_scale,
                   noise_variance=noise, mean_constant=mean_constant)


def _fit_objective(data: RegressionData, template: GpHyperparams):
    """Negative log marginal likelihood over a (B, d + 3) stack of packed
    log-parameter vectors, a list of one value per row.

    Row for row exactly ``-log_marginal_likelihood(_unpack(vec, template),
    data)``: the same unpacking, the same factor with its jitter ladder and
    the same likelihood, so the value a search ends on is the LML of the
    hyperparameters it returns. Only a matrix that does not factor even at
    the top of the ladder scores ``_FAILED_FIT_VALUE``.
    """
    family = template.kernel
    terms = _record_terms(data)

    def neg_lml(vecs: np.ndarray) -> list:
        lengthscales, output_scales, noises, mean_constants = _unpacked_values(vecs, template)
        L, noises = _factor(family, lengthscales, output_scales, noises, data)
        lmls = _collapsed_lml(L, noises, mean_constants, terms)
        return [_FAILED_FIT_VALUE if lml is None else -lml for lml in lmls]

    return neg_lml


def _heuristic_start(data: RegressionData, template: GpHyperparams) -> GpHyperparams:
    """Moment-matched starting point: mean and output scale from the
    targets, lengthscales from the per-dimension input spread."""
    y = data.targets
    with np.errstate(invalid="ignore"):  # a sum can overflow both ways: inf - inf
        mean = float(np.mean(y))
    if not math.isfinite(mean):
        raise NumericalError(f"the targets' mean overflows to {mean}")
    # finite targets and inputs can overflow their moments; the record takes bounded values
    var = min(max(float(np.var(y)), 1e-4), _OUTPUT_SCALE_MAX)
    spread = np.minimum(np.std(data.inputs, axis=0), sys.float_info.max)
    lengthscales = tuple(
        float(s) if s > 1e-6 else float(f) for s, f in zip(spread, template.lengthscales)
    )
    return replace(template, lengthscales=lengthscales, output_scale=var,
                   noise_variance=max(0.1 * var, NOISE_VARIANCE_FLOOR),
                   mean_constant=mean)


def _nelder_mead(x0: np.ndarray, max_evals: int):
    """The Nelder-Mead simplex method (Nelder & Mead 1965) from ``x0``
    with at most ``max_evals`` evaluations, as a generator that leaves the
    evaluations to its caller. It yields the points it needs next, each a
    list of floats: the initial simplex at once, then the one point of a
    step, or all the vertices a shrink moves. It is sent their values, in
    order, and returns the best vertex of the final simplex and the least
    value on it.

    Iterate for iterate this is ``scipy.optimize.minimize(fun, x0,
    method="Nelder-Mead", options={"maxfev": max_evals, "xatol":
    _NM_XATOL, "fatol": _NM_FATOL})`` (scipy 1.17; non-adaptive, no
    bounds): the same initial simplex, step coefficients, centroid sum
    (row after row), vertex order (numpy's default argsort, so ties
    resolve alike), stopping test and budget cut-off, so ``fun`` sees the
    same points in the same order. The vertex arithmetic runs on Python
    floats, whose + - * / round as numpy's do. An evaluation past the
    budget is refused, and the step that needed it is dropped as scipy
    drops it: an expansion or contraction is discarded, even after a
    better reflection, and a shrink leaves the vertices it already moved
    with their old values.

    It is kept here because importing ``scipy.optimize`` would cost every
    process that runs the GP stack about 0.3 s and 20 MB, and its wrapper
    about 16 us per simplex step. As a generator, it lets ``_lockstep``
    advance the searches of all restarts together.

    scipy sorts the simplex after every step. After a step that replaced
    only the worst vertex, the others are still in order, and where no
    value is NaN or tied the order is unique, so the new vertex is
    inserted where it belongs (``bisect``) instead: argsort would give the
    same order. The initial simplex, a shrink, and any step where the
    order is not unique are sorted by argsort.
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
    fsim[:evals] = yield sim[:evals]

    def ordered(sim, fsim):
        # np.argsort(fsim)'s quicksort, without its wrapper's overhead;
        # and whether the n best values strictly increase (no NaN, no tie)
        order = np.array(fsim).argsort().tolist()
        fsim = [fsim[i] for i in order]
        return [sim[i] for i in order], fsim, all(a < b for a, b in zip(fsim, fsim[1:n]))

    # scipy sorts the initial simplex twice; an unstable argsort need not
    # leave sorted ties in place
    sim, fsim, strict = ordered(*ordered(sim, fsim)[:2])
    while evals < max_evals:
        best, worst = sim[0], sim[-1]
        # fsim is sorted, NaN last: its spread is its last value less its first
        if fsim[-1] - fsim[0] <= _NM_FATOL and all(
            abs(a - b) <= _NM_XATOL for v in sim[1:] for a, b in zip(v, best)
        ):
            break
        # np.add.reduce's order, from its identity +0.0 (so -0.0 sums to 0.0)
        xbar = []
        for column in zip(*sim[:-1]):
            total = 0.0
            for a in column:
                total += a
            xbar.append(total / n)
        xr = [2 * c - w for c, w in zip(xbar, worst)]
        (fxr,) = yield [xr]
        evals += 1
        new = None  # the vertex that replaces the worst, and its value
        if fxr < fsim[0]:
            if evals < max_evals:
                xe = [3 * c - 2 * w for c, w in zip(xbar, worst)]
                (fxe,) = yield [xe]
                evals += 1
                new = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            new = xr, fxr
        elif evals < max_evals:
            if fxr < fsim[-1]:
                xc = [1.5 * c - 0.5 * w for c, w in zip(xbar, worst)]
                (fxc,) = yield [xc]
                shrink = not fxc <= fxr
            else:
                xc = [0.5 * c + 0.5 * w for c, w in zip(xbar, worst)]
                (fxc,) = yield [xc]
                shrink = not fxc < fsim[-1]
            evals += 1
            if not shrink:
                new = xc, fxc
            else:
                # the moved vertices do not depend on each other's values
                moved = []
                for j in range(1, n + 1):
                    sim[j] = [b + 0.5 * (a - b) for a, b in zip(sim[j], best)]
                    if evals == max_evals:
                        break
                    moved.append(j)
                    evals += 1
                if moved:
                    values = yield [sim[j] for j in moved]
                    for j, value in zip(moved, values):
                        fsim[j] = value
        if new is not None and strict:
            x, f = new
            # every value before i is below f; f < fsim[i] is false for a
            # NaN f and for a tie
            i = bisect.bisect_left(fsim, f, 0, n)
            if i == n or f < fsim[i]:
                del sim[-1], fsim[-1]
                sim.insert(i, x)
                fsim.insert(i, f)
                continue
        if new is not None:
            sim[-1], fsim[-1] = new
        sim, fsim, strict = ordered(sim, fsim)
    return np.array(sim[0]), float(np.min(fsim))


def _lockstep(objective, starts, max_evals: int, per_call: int) -> list:
    """Run a ``_nelder_mead`` search of ``max_evals`` from each start, as
    many at once as one call of ``objective`` can serve: each round, the
    points every live search waits for go to ``objective`` together, as
    (B, n) stacks of at most ``per_call`` rows, and each search is sent its
    own values. A round needs at most n + 1 points of a search, so at most
    ``per_call // (n + 1)`` searches are live (at least one, whose points
    then take several calls); a search that finishes makes room for the
    next start. Returns each search's (x, value), in start order. At a
    handful of distinct inputs a likelihood evaluation is mostly per-call
    overhead, which the searches then share.
    """
    room = max(1, per_call // (len(starts[0]) + 1))
    queued = enumerate(starts)
    live = []  # (start index, search, the points it waits for)
    results = [None] * len(starts)
    while True:
        for i, x0 in itertools.islice(queued, room - len(live)):
            search = _nelder_mead(x0, max_evals)
            live.append((i, search, next(search)))
        if not live:
            return results
        points = [x for _, _, wanted in live for x in wanted]
        values = []
        for first in range(0, len(points), per_call):
            values += objective(np.array(points[first : first + per_call]))
        waiting = []
        taken = 0
        for i, search, wanted in live:
            sent = values[taken : taken + len(wanted)]
            taken += len(sent)
            try:
                waiting.append((i, search, search.send(sent)))
            except StopIteration as stop:
                results[i] = stop.value
        live = waiting


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
    _NM_FATOL) or after ``budget.max_evals`` evaluations. The searches
    run in lockstep (``_lockstep``): each round's points go to the
    stacked objective in one call of at most ``_BLOCK_ELEMENTS`` matrix
    entries (k^2 per point, at least one point), and every search takes
    the steps it would take alone. Never returns hyperparameters with a
    lower marginal likelihood than ``init``; for fewer than two
    observations ``init`` is returned unchanged. A candidate replaces the
    incumbent only on strict improvement, so ties resolve to the earliest
    restart. Finite targets whose mean overflows raise ``NumericalError``.
    """
    if len(data) < 2:
        return init
    budget = budget or FitBudget()
    with np.errstate(over="ignore"):
        try:
            best_val = log_marginal_likelihood(init, data)
        except NumericalError:
            best_val = -math.inf
        best_hp = init

        x_init = _pack(init)
        x_heur = _pack(_heuristic_start(data, init))
        starts = [x_init, x_heur][: budget.restarts]
        if budget.restarts > 2:
            rng = np.random.default_rng(budget.seed)
            starts += [x_heur + rng.normal(0.0, 1.0, size=x_heur.shape)
                       for _ in range(budget.restarts - 2)]
        k = data.counts.shape[0]
        per_call = max(1, _BLOCK_ELEMENTS // (k * k))
        for x, value in _lockstep(_fit_objective(data, init), starts, budget.max_evals, per_call):
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

# Per arm space, the two m x m float64 buffers in which ``sample_joint``
# builds and factors the covariance; weakly keyed, so an entry goes with
# its space, and an equal space shares them.
_SAMPLE_BUFFERS = weakref.WeakKeyDictionary()


class PosteriorGp:
    """A fitted GP posterior with cached sufficient statistics.

    The statistics are over the k distinct inputs of the data:
    ``inputs`` holds them, ``chol_factor`` is the k x k lower Cholesky
    factor of K_UU + noise * diag(1/n) (n the replicate counts) and
    ``alpha`` solves that system for the per-input target means minus
    the prior mean. Immutable after construction; safe to share
    read-only. With empty data the posterior reproduces the prior
    exactly. Finite targets at one input whose sum overflows leave no
    finite mean there to condition on: they raise ``NumericalError``
    naming the input.
    """

    __slots__ = ("hyperparams", "inputs", "chol_factor", "alpha")

    def __init__(self, hyperparams: GpHyperparams, data: RegressionData):
        self.hyperparams = hyperparams
        if len(data) == 0:
            self.inputs = None
            self.chol_factor = None
            self.alpha = None
        else:
            if not np.isfinite(data.means).all():
                i = int(np.flatnonzero(~np.isfinite(data.means))[0])
                raise NumericalError(
                    f"the targets' mean at input {tuple(data.distinct_inputs[i].tolist())}"
                    f" overflows to {data.means[i]}"
                )
            hp = hyperparams
            with np.errstate(over="ignore"):
                L, _ = _factor_point(hp, data)
            v = _solve_chol(L, data.means - hp.mean_constant)
            alpha = _solve_chol(L, v, transposed=True)
            L.setflags(write=False)
            alpha.setflags(write=False)
            self.inputs = data.distinct_inputs
            self.chol_factor = L
            self.alpha = alpha

    def predict(self, queries, _buffers=None) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean vector and covariance matrix at the queries: an
        (m, d) array of points, or an ``environments.ArmSpace``, whose
        arms are the points and whose prior Gram matrix is gathered from
        its ``distances``, with the same bits as ``kernel_matrix``.

        The covariance is exactly symmetric without symmetrizing: the prior
        Gram matrix is, and numpy computes ``V.T @ V`` with BLAS ``syrk``,
        which fills one triangle and mirrors it. Its diagonal is clamped at
        zero. ``sample_joint`` passes an arm space's two m x m ``_buffers``:
        the Gram matrix, and so the covariance, is built in the first and
        ``V.T @ V`` in the second.
        """
        hp = self.hyperparams
        gram_out, vtv_out = _buffers or (None, None)
        with np.errstate(over="ignore"):
            if isinstance(queries, ArmSpace):
                # checked first: _sqdist would drop a missing dimension silently
                Q = _as_matrix(queries.array, hp.dim)
                Kqq = _gathered_gram(hp, queries, out=gram_out)
            else:
                Q = _as_matrix(queries, hp.dim)
                if Q.shape[0] == 0:
                    raise InvalidArgumentError("predict needs at least one query point")
                Kqq = kernel_matrix(hp, Q)
            prior_mean = np.full(Q.shape[0], hp.mean_constant)
            if self.chol_factor is None:
                return prior_mean, Kqq
            Ks = kernel_matrix(hp, self.inputs, Q)
            mean = prior_mean + Ks.T @ self.alpha
            V = _solve_chol(self.chol_factor, Ks)
            cov = Kqq
            cov -= np.matmul(V.T, V, out=vtv_out)
            np.fill_diagonal(cov, np.maximum(np.diag(cov), 0.0))
            return mean, cov

    def sample_joint(self, queries, rng: np.random.Generator) -> np.ndarray:
        """One draw from the joint posterior at the queries, points or an
        arm space as ``predict`` takes them; deterministic given the
        generator state. A numerically zero covariance degenerates to the
        predictive mean. The covariance's jitter ladder is relative: from
        1e-12 up to 1e-2 times its largest variance (or times 1, if that
        is smaller), so that a large posterior has a ladder too.

        An arm space's covariance is built and factored in the space's
        two m x m buffers (``_SAMPLE_BUFFERS``), so a draw allocates no
        m x m array after the space's first: arrays that large (4.25 MB at
        729 arms) are mapped afresh by the allocator each time, and every
        page of a fresh one faults once. The buffers never leave this
        method, whose draw is a new vector. Draws on one space share its
        buffers, so they must not run in several threads at once."""
        if not isinstance(queries, ArmSpace):
            mean, cov = self.predict(queries)
            fill = cov.copy
        else:
            buffers = _SAMPLE_BUFFERS.get(queries)
            if buffers is None:
                m = len(queries)
                buffers = _SAMPLE_BUFFERS[queries] = (np.empty((m, m)), np.empty((m, m)))
            mean, cov = self.predict(queries, buffers)
            # no copy: the first attempt factors the covariance where it
            # stands, and as a failed one leaves it half-factored, each
            # later attempt rebuilds it, bit for bit
            rebuilt = (self.predict(queries, buffers)[1] for _ in itertools.count())
            fill = itertools.chain([cov], rebuilt).__next__
        scale = float(np.max(np.diag(cov)))
        if scale < 1e-14:
            return mean.copy()
        scale = max(scale, 1.0)
        # ten tenfold steps from 1e-12 * scale can round to just above
        # 1e-2 * scale (at 1e200, for one); the margin keeps that top rung
        factored = _jittered_cholesky(fill, 1e-12 * scale, 1.0, 1.000001e-2 * scale)
        if factored is None:
            raise NumericalError("posterior covariance could not be factorized for sampling")
        return mean + factored[0] @ rng.standard_normal(mean.shape[0])
