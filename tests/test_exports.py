"""The public surface: every name a gpts module lists in ``__all__``
resolves, and README's library example runs."""

import importlib
import pkgutil
from pathlib import Path

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


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("## Library use")[1].split("```python\n")[1].split("```")[0]
    exec(example, {})
    assert len(capsys.readouterr().out.splitlines()) == 2
