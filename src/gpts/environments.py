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
re-exports them.

Environments own their random stream (seeded at construction), keeping
environment randomness independent of policy randomness. Each instance
is single-owner and stateful; use distinct instances for parallel runs.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import numpy as np

from .errors import DataError, InvalidArgumentError

__all__ = [
    "Arm",
    "GridDim",
    "ArmSpace",
    "make_grid",
    "Environment",
    "SyntheticPretrainSpec",
    "SyntheticPretrainEnv",
    "NoisyTestFunctionEnv",
    "ReplaySpec",
    "ReplayEnv",
    "PartialArmEnv",
    "efficiency",
    "test_function",
    "TEST_FUNCTION_MINIMIZER",
    "TEST_FUNCTION_MINIMUM",
    "TEST_FUNCTION_BASELINE",
    "load_replay_csv",
    "write_replay_csv",
    "REPLAY_CSV_HEADER",
    "REPLAY_INITIAL_ARM_INDEX",
]


# ---------------------------------------------------------------------------
# the Environment protocol and the types it speaks

Arm = tuple[float, ...]


@dataclass(frozen=True)
class GridDim:
    lower: float
    upper: float
    step: float
    name: str = "psi"


@dataclass(frozen=True)
class ArmSpace:
    """Finite arm set: the Cartesian product of regular per-dimension grids.

    Endpoints are excluded (the search intervals are open); arms are
    unique and enumerated in lexicographic order.
    """

    dims: tuple[GridDim, ...]
    arms: tuple[Arm, ...]

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dims)

    def __len__(self) -> int:
        return len(self.arms)

    def index_of(self, arm: Arm) -> int:
        try:
            return self.arms.index(tuple(arm))
        except ValueError:
            raise InvalidArgumentError(f"arm {arm!r} is not in the arm space") from None

    def as_array(self) -> np.ndarray:
        return np.array(self.arms, dtype=float)


def make_grid(dims) -> ArmSpace:
    """Materialize the arm grid from per-dimension (lower, upper, step) specs."""
    dims = tuple(d if isinstance(d, GridDim) else GridDim(**d) for d in dims)
    value_lists: list[list[float]] = []
    for d in dims:
        if not (d.step > 0.0):
            raise InvalidArgumentError(f"dimension {d.name!r}: step must be positive")
        if not (d.lower < d.upper):
            raise InvalidArgumentError(f"dimension {d.name!r}: lower must be below upper")
        eps = 1e-9 * d.step
        values = []
        i = 1
        while True:
            v = round(d.lower + i * d.step, 12)
            if v >= d.upper - eps:
                break
            values.append(v)
            i += 1
        if not values:
            raise InvalidArgumentError(
                f"dimension {d.name!r}: step {d.step} leaves no interior grid points in "
                f"({d.lower}, {d.upper})"
            )
        value_lists.append(values)
    arms = tuple(itertools.product(*value_lists))
    return ArmSpace(dims=dims, arms=arms)


class Environment(Protocol):
    def init(self) -> float: ...

    def step(self, arm: Arm, u: int) -> float: ...


@dataclass(frozen=True)
class SyntheticPretrainSpec:
    """Parameters of the synthetic pre-training loss simulator.

    Loss dynamics, per interaction t with arm psi and u updates:

        y_t = floor + (y_{t-1} - floor) * (1 - rate * g(psi) * u / (u + t)) + noise

    clamped below at ``floor``, where the efficiency
    g(psi) = exp(-sum_i ((psi_i - optimum_i) / width_i)^2) is in (0, 1].
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
    """Arm efficiency g(psi) in (0, 1]; 1 at the optimum."""
    if len(arm) != len(spec.optimum):
        raise InvalidArgumentError(
            f"arm has dimension {len(arm)}, environment expects {len(spec.optimum)}"
        )
    z = sum(((a - o) / w) ** 2 for a, o, w in zip(arm, spec.optimum, spec.width))
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
# 0.12 contributes ~e^-21 there), with minimum value TEST_FUNCTION_MINIMUM.
TEST_FUNCTION_BASELINE = 2.0
TEST_FUNCTION_MINIMIZER = 0.35


def test_function(x: float) -> float:
    """The documented 1-D multimodal benchmark function (noiseless)."""
    return (
        TEST_FUNCTION_BASELINE
        - 1.2 * math.exp(-(((x - 0.35) / 0.07) ** 2))
        - 0.6 * math.exp(-(((x - 0.12) / 0.05) ** 2))
    )


TEST_FUNCTION_MINIMUM = test_function(TEST_FUNCTION_MINIMIZER)


class NoisyTestFunctionEnv:
    """Stationary bandit benchmark: loss = h(arm) + Gaussian noise.

    The initial loss is the baseline constant of h (no training
    dynamics exist here; the value anchors the telescoping identity).
    """

    def __init__(self, noise_sd: float = 0.1, seed: int = 0):
        if noise_sd < 0.0:
            raise InvalidArgumentError("noise_sd must be nonnegative")
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
            reader = csv.DictReader(fh)
            if reader.fieldnames != REPLAY_CSV_HEADER:
                raise DataError(
                    f"{path}: expected header {','.join(REPLAY_CSV_HEADER)}, "
                    f"got {reader.fieldnames}"
                )
            for row in reader:
                arm_index = int(row["arm_index"])
                t = int(row["interaction"])
                loss = float(row["val_loss"])
                if arm_index == REPLAY_INITIAL_ARM_INDEX and t == 0:
                    initial_loss = loss
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


class PartialArmEnv:
    """Adapter exposing a lower-dimensional arm space over a wider environment.

    ``template`` has one entry per inner dimension; ``None`` marks free
    coordinates filled from the (lower-dimensional) arm in order, other
    entries are held fixed.
    """

    def __init__(self, inner, template):
        self.inner = inner
        self.template = tuple(template)
        self._free = sum(1 for v in self.template if v is None)

    def init(self) -> float:
        return self.inner.init()

    def step(self, arm: Arm, u: int) -> float:
        if len(arm) != self._free:
            raise InvalidArgumentError(
                f"arm has dimension {len(arm)}, template has {self._free} free slots"
            )
        it = iter(arm)
        full = tuple(next(it) if v is None else v for v in self.template)
        return self.inner.step(full, u)
