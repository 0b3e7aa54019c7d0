"""Exception types shared across the toolkit, and the integer and finite
number tests of the checks that raise them."""

import math
import numbers


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class NumericalError(RuntimeError):
    """A linear-algebra operation failed beyond recovery (e.g. Cholesky
    after jitter escalation)."""


class ConfigError(ValueError):
    """An experiment configuration is invalid."""


class DataError(RuntimeError):
    """An on-disk artifact (CSV log, config file) is missing or malformed."""


class EnvironmentFailure(RuntimeError):
    """A training environment failed mid-run."""


class BridgeError(RuntimeError):
    """Transport-level failure talking to an external trainer."""


class ProtocolError(BridgeError):
    """The external trainer violated the wire protocol."""


# The failures that end one run and no other: ``bandit.run_policy`` records
# them as the run's error, ``harness.run_experiment`` as the run's failure.
# Anything else (``InvalidArgumentError`` included) is a programming error.
RUN_FAILURES = (EnvironmentFailure, BridgeError, DataError, NumericalError)


def is_integer(value) -> bool:
    """Whether ``value`` is an integer; a bool, which Python counts as an
    ``int`` (``operator.index(True)`` is 1), is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """Whether ``value`` is a finite real number (an integer included); a
    bool, NaN and the infinities are not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and (
        -math.inf < value < math.inf
    )
