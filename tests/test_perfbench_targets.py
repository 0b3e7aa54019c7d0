"""The benchmark's tracing wraps gpts entry points by name and reports a
missing one as absent rather than failing, so a rename in the program
would silently blind a per-layer metric. This checks that every target
still names a callable of the program."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import tracing  # noqa: E402


@pytest.mark.parametrize("name,owner,attr", tracing.TARGETS, ids=[t[0] for t in tracing.TARGETS])
def test_target_resolves(name, owner, attr):
    # tracing.patched looks targets up in the owner's own namespace
    assert callable(vars(owner).get(attr)), f"{name}: {owner.__name__}.{attr} is gone"
    module = owner.__module__ if isinstance(owner, type) else owner.__name__
    assert module.startswith("gpts.")
