"""Child process timed by the benchmark for ``setup_s``: imports numpy,
scipy and gpts, loads an experiment config, builds its arm grid and
prints the number of arms.

Usage: python3 setup_probe.py CONFIG.yaml (with gpts on PYTHONPATH)
"""

import sys

import numpy  # noqa: F401
import scipy  # noqa: F401

from gpts import bandit, harness

cfg = harness.load_config(sys.argv[1])
print(len(bandit.make_grid(cfg.arm_dims)), flush=True)
