"""The benchmark's tracing wraps gpts entry points by name and reports a
missing one as absent rather than failing, so a rename in the program
would silently blind a per-layer metric. This checks that every target
still names a callable of the program, and that the harness spans fire
when an experiment runs."""

import functools
import sys
from pathlib import Path

import pytest
import yaml

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import tracing  # noqa: E402

from gpts import harness  # noqa: E402


@pytest.mark.parametrize("name,owner,attr", tracing.TARGETS, ids=[t[0] for t in tracing.TARGETS])
def test_target_resolves(name, owner, attr):
    # tracing.patched looks targets up in the owner's own namespace
    assert callable(vars(owner).get(attr)), f"{name}: {owner.__name__}.{attr} is gone"
    module = owner.__module__ if isinstance(owner, type) else owner.__name__
    assert module.startswith("gpts.")


def test_harness_spans_fire(tmp_path):
    # a harness target bypassed by its caller (run_experiment calling
    # report.write_run_csv, say) still resolves but never records a span
    raw = harness.default_config_dict()
    raw.update(T=2, seeds=[0], output_dir=str(tmp_path / "runs"))
    raw["policies"] = [{"kind": "gp_ts"}, {"kind": "uniform_random"}]
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(raw))
    fired = set()

    def wrap(name, fn):
        @functools.wraps(fn)
        def recording(*args, **kwargs):
            fired.add(name)
            return fn(*args, **kwargs)

        return recording

    with tracing.patched(wrap):
        harness.run_experiment(harness.load_config(config))
        harness.summarize(raw["output_dir"])
    for name in ("load_config", "run_experiment", "write_run_csv", "summarize"):
        assert f"harness.{name}" in fired
