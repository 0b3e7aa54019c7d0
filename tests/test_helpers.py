"""Tests of the shared test doubles in ``helpers``."""

import pytest
from helpers import PartialArmEnv

from gpts import environments as envs
from gpts.errors import InvalidArgumentError


class TestPartialArmEnv:
    def test_pads_fixed_coordinates(self):
        spec = envs.SyntheticPretrainSpec(optimum=(0.2, 0.1, 0.1), width=(0.05,) * 3)
        inner = envs.SyntheticPretrainEnv(spec, seed=0)
        env = PartialArmEnv(inner, (None, 0.1, 0.1))
        env.init()
        loss = env.step((0.2,), 100)  # equals the optimum after padding
        ref = envs.SyntheticPretrainEnv(spec, seed=0)
        ref.init()
        assert loss == ref.step((0.2, 0.1, 0.1), 100)

    def test_wrong_free_dimension_rejected(self):
        inner = envs.SyntheticPretrainEnv(envs.SyntheticPretrainSpec(), seed=0)
        env = PartialArmEnv(inner, (None,))
        env.init()
        with pytest.raises(InvalidArgumentError):
            env.step((0.1, 0.2), 1)
