"""Test doubles and a CLI runner shared by more than one test module."""

import contextlib
import io

from gpts import cli
from gpts.errors import InvalidArgumentError


def run_cli(argv):
    """Run ``gpts`` with ``argv`` in this process: (exit code, stdout,
    stderr). Only ``SystemExit`` (argparse's usage errors and ``--help``)
    is caught, so any other exception fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


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

    def step(self, arm, u: int) -> float:
        if len(arm) != self._free:
            raise InvalidArgumentError(
                f"arm has dimension {len(arm)}, template has {self._free} free slots"
            )
        it = iter(arm)
        full = tuple(next(it) if v is None else v for v in self.template)
        return self.inner.step(full, u)
