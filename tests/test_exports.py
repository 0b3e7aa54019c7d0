"""Every name a gpts module lists in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import gpts

MODULES = ["gpts", *(f"gpts.{m.name}" for m in pkgutil.iter_modules(gpts.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    # a star import raises AttributeError for a name in __all__ that the
    # module does not define; for the package it imports the submodules
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(getattr(importlib.import_module(module), "__all__", ())) <= namespace.keys()
