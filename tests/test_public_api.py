"""Every name the package and its modules export through ``__all__``
resolves, so a name deleted while its ``__all__`` entry stays fails the
suite, not the next ``from blochest... import *``."""

from __future__ import annotations

import importlib
import pkgutil

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
