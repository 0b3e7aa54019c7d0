"""The public surface: every name a gpts module lists in ``__all__``
resolves and is used outside the tests, and README's library example
runs."""

import importlib
import io
import itertools
import pkgutil
import re
import tokenize
from pathlib import Path

import pytest

import gpts

MODULES = ["gpts", *(f"gpts.{m.name}" for m in pkgutil.iter_modules(gpts.__path__))]
ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    # a star import raises AttributeError for a name in __all__ that the
    # module does not define; for the package it imports the submodules
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(getattr(importlib.import_module(module), "__all__", ())) <= namespace.keys()


def code(source: str) -> str:
    """Python source without its comments and docstrings: every comment,
    and every string that begins a statement."""
    starts = [0, *itertools.accumulate(map(len, source.splitlines(keepends=True)))]
    kept, end, statement = [], 0, True
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT or (tok.type == tokenize.STRING and statement):
            kept.append(source[end : starts[tok.start[0] - 1] + tok.start[1]])
            end = starts[tok.end[0] - 1] + tok.end[1]
        if tok.type not in (tokenize.COMMENT, tokenize.NL):
            statement = tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
    return "".join(kept) + source[end:]


def test_code_drops_comments_and_docstrings():
    source = 'def f():\n    """uses x"""\n    # uses y\n    return g("z")  # w\n'
    assert code(source).split() == ["def", "f():", "return", 'g("z")']


def test_every_exported_name_is_used_outside_the_tests():
    # a name that only the tests use belongs in the tests; its own
    # __all__ entry and its definition do not count as uses, nor does a
    # mention in a comment or docstring
    modules = {m: importlib.import_module(m) for m in MODULES[1:]}
    sources = {m: code(Path(module.__file__).read_text()) for m, module in modules.items()}
    readers = [code(p.read_text()) for p in (ROOT / "perfbench").glob("*.py")]
    readers.append((ROOT / "README.md").read_text())
    unused = []
    for m, module in modules.items():
        own = re.sub(r"^__all__ = \[.*?^\]", "", sources[m], flags=re.M | re.S)
        others = [text for other, text in sources.items() if other != m] + readers
        for name in getattr(module, "__all__", ()):
            uses = re.sub(rf"^(?:def |class )?{name}\b.*", "", own, count=1, flags=re.M)
            if not any(re.search(rf"\b{name}\b", text) for text in [uses, *others]):
                unused.append(f"{m}.{name}")
    assert unused == []


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    example = readme.split("## Library use")[1].split("```python\n")[1].split("```")[0]
    exec(example, {})
    assert len(capsys.readouterr().out.splitlines()) == 2
