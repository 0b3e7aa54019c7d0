"""Gaussian-process Thompson sampling for online tuning of training
hyperparameters: exact GP regression, the loss-delta bandit, desk-scale
training environments, an external-trainer bridge, an experiment
harness, and the run-CSV report.

Submodules load when they are imported (``from gpts import bandit``), not
with the package, so a trainer process that imports only ``bridge`` and
``environments`` stays free of scipy and the GP stack. The exceptions
are imported from ``gpts.errors``.
"""

__all__ = [
    "bandit",
    "bridge",
    "environments",
    "gp",
    "harness",
    "report",
]

__version__ = "0.1.0"
