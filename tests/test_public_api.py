"""Every name the package and its modules export through ``__all__``
resolves, so a name deleted while its ``__all__`` entry stays fails the
suite, not the next ``from blochest... import *``.  The package imports
nothing outside the standard library but numpy."""

from __future__ import annotations

import ast
import importlib
import pathlib
import pkgutil
import sys

import pytest

import blochest

MODULES = ["blochest"] + sorted(
    f"blochest.{info.name}" for info in pkgutil.iter_modules(blochest.__path__)
)


def test_modules_are_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate __all__ entries"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_imports_only_numpy_and_the_standard_library():
    sources = sorted(pathlib.Path(blochest.__path__[0]).glob("*.py"))
    assert len(sources) >= 9
    allowed = sys.stdlib_module_names | {"numpy"}
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed]
    assert outside == []
