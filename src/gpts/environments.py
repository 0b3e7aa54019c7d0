"""Black-box trainer stand-ins.

Each environment maps (arm, update budget) to a validation loss:

* ``SyntheticPretrainEnv`` — a desk-scale simulator of pre-training loss
  curves (exponential approach to a floor, with arm-dependent
  efficiency and a 1/(u+t) decay).
* ``NoisyTestFunctionEnv`` — a stationary 1-D multimodal function plus
  Gaussian noise, for regret benchmarking.
* ``ReplayEnv`` — verbatim playback of logged loss curves from CSV.

``init()`` returns the loss before interaction 1 and ``step`` the loss
after one more interaction; the run loop numbers the interactions. The
arm-space types (``Arm``, ``GridDim``, ``ArmSpace``, ``make_grid``)
live here, so a trainer process never imports the GP stack; ``bandit``
re-exports ``make_grid`` only because perfbench calls it from there.

Environments own their random stream (seeded at construction), keeping
environment randomness independent of policy randomness. Each instance
is single-owner and stateful; use distinct instances for parallel runs.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DataError, InvalidArgumentError, is_finite

__all__ = [
    "Arm",
    "GridDim",
    "ArmSpace",
    "make_grid",
    "MAX_ARMS",
    "SyntheticPretrainSpec",
    "SyntheticPretrainEnv",
    "NoisyTestFunctionEnv",
    "ReplaySpec",
    "ReplayEnv",
    "efficiency",
    "test_function",
    "TEST_FUNCTION_BASELINE",
    "load_replay_csv",
    "write_replay_csv",
    "REPLAY_CSV_HEADER",
    "REPLAY_INITIAL_ARM_INDEX",
]


# ---------------------------------------------------------------------------
# the arm space

Arm = tuple[float, ...]


@dataclass(frozen=True)
class GridDim:
    lower: float
    upper: float
    step: float
    name: str | None = None  # ArmSpace names an unnamed i-th dimension "psi<i>"


@dataclass(frozen=True)
class ArmSpace:
    """Finite arm set: the Cartesian product of dimension j's ``values[j]``,
    which strictly increase inside its open interval. Arm i is ``arms[i]``
    (lexicographic order, last dimension fastest) and row i of the read-only
    m x d ``array``; ``index_of(arms[i])`` is i.

    The dimension names, which label the CSV columns and the trainer's
    arm coordinates, must be distinct strings; an unnamed i-th dimension
    is named ``psi<i>``. A space of more than ``MAX_ARMS`` arms is
    rejected without building its arms."""

    dims: tuple[GridDim, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        dims = tuple(replace(d, name=f"psi{i}") if d.name is None else d
                     for i, d in enumerate(self.dims))
        object.__setattr__(self, "dims", dims)  # frozen
        if not all(isinstance(n, str) for n in self.names) or len(set(self.names)) < self.ndim:
            raise InvalidArgumentError(
                f"dimension names must be distinct strings, got {list(self.names)}"
            )
        for d, v in zip(self.dims, self.values, strict=True):
            if not (v and all(a < b for a, b in itertools.pairwise((d.lower, *v, d.upper)))):
                raise InvalidArgumentError(f"dimension {d.name!r}: its values (n={len(v)}) must be "
                                           f"distinct and strictly inside ({d.lower}, {d.upper})")
        n_arms = math.prod(map(len, self.values))
        if n_arms > MAX_ARMS:
            raise InvalidArgumentError(f"the arm space has {n_arms} arms, more than {MAX_ARMS}")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dims)

    def __len__(self) -> int:
        return len(self.arms)

    @functools.cached_property
    def arms(self) -> tuple[Arm, ...]:
        return tuple(itertools.product(*self.values))

    @functools.cached_property
    def array(self) -> np.ndarray:
        array = np.array(self.arms, dtype=float)
        array.setflags(write=False)
        return array

    @functools.cached_property
    def _positions(self) -> tuple[dict[float, int], ...]:
        return tuple({x: i for i, x in enumerate(v)} for v in self.values)

    def index_of(self, arm: Arm) -> int:
        index = 0  # mixed radix: one lookup per dimension
        try:
            for positions, x in zip(self._positions, arm, strict=True):
                index = index * len(positions) + positions[x]
        except (KeyError, ValueError):
            raise InvalidArgumentError(f"arm {arm!r} is not in the arm space") from None
        return index


# The most arms an arm space may have: ``ArmSpace`` and ``make_grid``
# reject a larger one before making its arms.
MAX_ARMS = 10_000


def make_grid(dims) -> ArmSpace:
    """Build the arm grid from per-dimension (lower, upper, step) specs: the
    values lower + k * step (k >= 1) below upper, rounded to 12 decimals.

    A grid of more than ``MAX_ARMS`` arms is rejected before more than
    that many values of any one dimension are made. An error names an
    unnamed dimension by its position.
    """
    dims = tuple(d if isinstance(d, GridDim) else GridDim(**d) for d in dims)
    value_lists: list[tuple[float, ...]] = []
    n_arms = 1
    for j, d in enumerate(dims):
        where = f"dimension {j}" if d.name is None else f"dimension {d.name!r}"
        bounds = {"lower": d.lower, "upper": d.upper, "step": d.step}
        if not all(map(is_finite, bounds.values())):
            raise InvalidArgumentError(f"{where}: needs finite numbers, got {bounds}")
        if not (d.step > 0.0):
            raise InvalidArgumentError(f"{where}: step must be positive")
        if not (d.lower < d.upper):
            raise InvalidArgumentError(f"{where}: lower must be below upper")
        eps = 1e-9 * d.step
        values = []
        i = 1
        while True:
            v = float(round(d.lower + i * d.step, 12))  # integer bounds give float arms too
            if v >= d.upper - eps:
                break
            values.append(v)
            if n_arms * len(values) > MAX_ARMS:
                raise InvalidArgumentError(
                    f"{where}: the grid would have more than {MAX_ARMS} arms"
                )
            i += 1
        if not values:
            raise InvalidArgumentError(
                f"{where}: step {d.step} leaves no interior grid points in "
                f"({d.lower}, {d.upper})"
            )
        value_lists.append(tuple(values))
        n_arms *= len(values)
    return ArmSpace(dims, tuple(value_lists))


@dataclass(frozen=True)
class SyntheticPretrainSpec:
    """Parameters of the synthetic pre-training loss simulator.

    Loss dynamics, per interaction t with arm psi and u updates:

        y_t = floor + (y_{t-1} - floor) * (1 - rate * g(psi) * u / (u + t)) + noise

    clamped below at ``floor``, where the efficiency
    g(psi) = exp(-sum_i ((psi_i - optimum_i) / width_i)^2) is in [0, 1].
    """

    initial_loss: float = 10.0
    floor: float = 1.5
    optimum: tuple[float, ...] = (0.3,)
    width: tuple[float, ...] = (0.08,)
    rate: float = 0.3
    noise_sd: float = 0.05

    def __post_init__(self):
        # YAML and JSON settings give their sequences as lists
        object.__setattr__(self, "optimum", tuple(self.optimum))
        object.__setattr__(self, "width", tuple(self.width))
        for name, value in vars(self).items():
            if not all(map(is_finite, value if isinstance(value, tuple) else (value,))):
                raise InvalidArgumentError(f"{name} needs finite numbers, got {value!r}")
        if len(self.optimum) != len(self.width):
            raise InvalidArgumentError("optimum and width must have equal dimension")
        if any(not (w > 0.0) for w in self.width):
            raise InvalidArgumentError("widths must be positive")
        if not (self.rate > 0.0):
            raise InvalidArgumentError("rate must be positive")
        if self.noise_sd < 0.0:
            raise InvalidArgumentError("noise_sd must be nonnegative")
        if not (self.floor < self.initial_loss):
            raise InvalidArgumentError("floor must lie below the initial loss")


def efficiency(spec: SyntheticPretrainSpec, arm: Arm) -> float:
    """Arm efficiency g(psi) in [0, 1]; 1 at the optimum."""
    if len(arm) != len(spec.optimum):
        raise InvalidArgumentError(
            f"arm has dimension {len(arm)}, environment expects {len(spec.optimum)}"
        )
    try:
        z = sum(((a - o) / w) ** 2 for a, o, w in zip(arm, spec.optimum, spec.width))
    except OverflowError:
        return 0.0  # ** raises on a Python float where numpy's gives inf; exp(-inf) is 0
    return math.exp(-z)


class SyntheticPretrainEnv:
    def __init__(self, spec: SyntheticPretrainSpec | None = None, seed: int = 0):
        self.spec = spec or SyntheticPretrainSpec()
        self._rng = np.random.default_rng(seed)
        self._t = 0  # steps taken, the t of the 1/(u+t) decay
        self._loss: float | None = None

    def init(self) -> float:
        if self._loss is not None:
            raise InvalidArgumentError("init() may be called only once")
        self._loss = float(self.spec.initial_loss)  # YAML may give an integer
        return self._loss

    def step(self, arm: Arm, u: int) -> float:
        if self._loss is None:
            raise InvalidArgumentError("init() must be called before step()")
        s = self.spec
        self._t += 1
        g = efficiency(s, arm)
        decay = 1.0 - s.rate * g * u / (u + self._t)
        loss = s.floor + (self._loss - s.floor) * decay
        if s.noise_sd > 0.0:
            loss += s.noise_sd * float(self._rng.standard_normal())
        self._loss = float(max(loss, s.floor))
        return self._loss


# ---------------------------------------------------------------------------
# stationary noisy test function

# h(x) = BASELINE - 1.2 exp(-((x - 0.35)/0.07)^2) - 0.6 exp(-((x - 0.12)/0.05)^2)
# Two wells on (0, 0.5); the global minimizer is x = 0.35 (the shallow well at
# 0.12 contributes ~e^-21 there).
TEST_FUNCTION_BASELINE = 2.0


def test_function(x: float) -> float:
    """The documented 1-D multimodal benchmark function (noiseless)."""
    try:
        return (
            TEST_FUNCTION_BASELINE
            - 1.2 * math.exp(-(((x - 0.35) / 0.07) ** 2))
            - 0.6 * math.exp(-(((x - 0.12) / 0.05) ** 2))
        )
    except OverflowError:
        # |x| > 6.7e152: both wells are 0 there, as exp(-inf) is, or as
        # exp underflows for the square that does not overflow
        return TEST_FUNCTION_BASELINE


class NoisyTestFunctionEnv:
    """Stationary bandit benchmark: loss = h(arm) + Gaussian noise.

    The initial loss is the baseline constant of h (no training
    dynamics exist here; the value anchors the telescoping identity).
    """

    def __init__(self, noise_sd: float = 0.1, seed: int = 0):
        if not (is_finite(noise_sd) and noise_sd >= 0.0):
            raise InvalidArgumentError(
                f"noise_sd must be a finite nonnegative number, got {noise_sd!r}"
            )
        self.noise_sd = noise_sd
        self._rng = np.random.default_rng(seed)
        self._started = False

    def init(self) -> float:
        if self._started:
            raise InvalidArgumentError("init() may be called only once")
        self._started = True
        return TEST_FUNCTION_BASELINE

    def step(self, arm: Arm, u: int) -> float:
        if not self._started:
            raise InvalidArgumentError("init() must be called before step()")
        if len(arm) != 1:
            raise InvalidArgumentError("the test function is one-dimensional")
        loss = test_function(arm[0])
        if self.noise_sd > 0.0:
            loss += self.noise_sd * float(self._rng.standard_normal())
        return loss


# ---------------------------------------------------------------------------
# replay

REPLAY_CSV_HEADER = ["arm_index", "interaction", "val_loss"]
# Row carrying the initial loss (interaction 0, before any arm is played).
REPLAY_INITIAL_ARM_INDEX = -1


@dataclass(frozen=True)
class ReplaySpec:
    """Logged loss table keyed by (arm_index, interaction)."""

    table: dict[tuple[int, int], float]
    initial_loss: float


def load_replay_csv(path) -> ReplaySpec:
    path = Path(path)
    table: dict[tuple[int, int], float] = {}
    initial_loss: float | None = None
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != REPLAY_CSV_HEADER:
                raise DataError(
                    f"{path}: expected header {','.join(REPLAY_CSV_HEADER)}, got {header}"
                )
            for row in filter(None, reader):  # blank lines hold no row
                if len(row) != len(REPLAY_CSV_HEADER):
                    raise DataError(
                        f"{path}: line {reader.line_num}: expected {len(REPLAY_CSV_HEADER)}"
                        f" fields, got {len(row)}"
                    )
                arm_index, t, loss = int(row[0]), int(row[1]), float(row[2])
                if arm_index == REPLAY_INITIAL_ARM_INDEX and t == 0:
                    if initial_loss is not None:
                        raise DataError(f"{path}: line {reader.line_num}: second initial-loss row")
                    initial_loss = loss
                elif (arm_index, t) in table:
                    raise DataError(
                        f"{path}: line {reader.line_num}: second row for arm {arm_index}"
                        f" at interaction {t}"
                    )
                else:
                    table[(arm_index, t)] = loss
    except OSError as exc:
        raise DataError(f"cannot read replay CSV {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"malformed replay CSV {path}: {exc}") from exc
    if initial_loss is None:
        raise DataError(f"{path}: missing initial-loss row (arm_index=-1, interaction=0)")
    return ReplaySpec(table=table, initial_loss=initial_loss)


def write_replay_csv(path, history, space: ArmSpace) -> None:
    """Export a run's loss curve in the replay CSV schema."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPLAY_CSV_HEADER)
        writer.writerow([REPLAY_INITIAL_ARM_INDEX, 0, repr(history.initial_loss)])
        for t, (arm, loss) in enumerate(zip(history.arms, history.losses_after, strict=True), 1):
            writer.writerow([space.index_of(arm), t, repr(loss)])


class ReplayEnv:
    """Plays back logged losses; missing (arm, interaction) pairs are errors."""

    def __init__(self, spec: ReplaySpec, space: ArmSpace):
        self.spec = spec
        self.space = space
        self._t = 0  # steps taken, the interaction of the table key
        self._started = False

    def init(self) -> float:
        if self._started:
            raise InvalidArgumentError("init() may be called only once")
        self._started = True
        return self.spec.initial_loss

    def step(self, arm: Arm, u: int) -> float:
        if not self._started:
            raise InvalidArgumentError("init() must be called before step()")
        self._t += 1
        arm_index = self.space.index_of(arm)
        key = (arm_index, self._t)
        if key not in self.spec.table:
            raise DataError(
                f"replay table has no entry for arm {arm_index} at interaction {self._t}"
            )
        return self.spec.table[key]
