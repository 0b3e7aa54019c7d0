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

from gpts import bandit, harness  # noqa: E402


@pytest.mark.parametrize("name,owner,attr", tracing.TARGETS, ids=[t[0] for t in tracing.TARGETS])
def test_target_resolves(name, owner, attr):
    # tracing.patched looks targets up in the owner's own namespace
    assert callable(vars(owner).get(attr)), f"{name}: {owner.__name__}.{attr} is gone"
    module = owner.__module__ if isinstance(owner, type) else owner.__name__
    assert module.startswith("gpts.")


def test_config_grid_reads(tmp_path):
    # measure.py and setup_probe.py rebuild the grid from cfg.arm_dims, and
    # the regret check reads space.arms and space.names
    raw = harness.default_config_dict()
    raw["arm_space"] = [{"name": n, "lower": 0.0, "upper": 0.4, "step": 0.1} for n in "ab"]
    raw["environment"]["synthetic"].update(optimum=[0.3, 0.3], width=[0.1, 0.1])
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(raw))
    cfg = harness.load_config(config)
    space = cfg.space
    assert bandit.make_grid(cfg.arm_dims) == space
    assert space.names == ("a", "b")
    assert len(space) == len(space.arms) == 9
    assert len(cfg.policies) == 2 + len(space)  # a fixed_arm "all" is one per arm


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


def test_decisions_are_tagged_with_their_policy(tmp_path):
    # the decision clock reads the policy kind off run_policy's second
    # positional argument, so run_experiment must pass (space, policy) so
    raw = harness.default_config_dict()
    raw.update(T=3, seeds=[0], output_dir=str(tmp_path / "runs"))
    raw["policies"] = [{"kind": "gp_ts"}, {"kind": "uniform_random"}]
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(raw))
    clock = tracing.DecisionClock()
    with tracing.patched(clock.wrap):
        harness.run_experiment(harness.load_config(config))
    assert [kind for kind, _ in clock.decisions] == ["gp_ts"] * 3 + ["uniform_random"] * 3
