"""Every name the package and its modules export through ``__all__``
resolves, so a name deleted while its ``__all__`` entry stays fails the
suite, not the next ``from blochest... import *``.  The package imports
nothing outside the standard library but numpy, at the version
``pyproject.toml`` declares."""

from __future__ import annotations

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re
import sys

import pytest

import blochest

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
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


def test_numpy_floor_has_vecdot():
    """The greedy policy calls ``np.vecdot``, which numpy added in 2.0."""
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as handle:
        dependencies = tomllib.load(handle)["project"]["dependencies"]
    [numpy] = [d for d in dependencies if re.match(r"numpy\b", d)]
    floor = re.fullmatch(r"numpy>=(\d+)\.(\d+)", numpy)
    assert floor is not None, numpy
    assert tuple(map(int, floor.groups())) >= (2, 0)


# The scalar per-outcome API: the evaluator's count tables and guess rule
# give every outcome at once, and tests check them against the oracles.
# Then the wrappers that only forwarded to one evaluation: a sweep is a
# comprehension over exact_fidelity, tomography with discarding is its
# "tomography" estimator, and the constants need only the scaled ImK.
# Then the second full-ball grid: the prior's own angular rule is the
# polar-cosine rule the collective engine integrates on.
RETIRED = {
    "blochest.core": ["EmbeddedBloch", "embed", "fidelity", "RadialRule", "radial_rule", "sphere_grid"],
    "blochest.schemes": [
        "LocalOutcome", "CollectiveOutcome", "OutcomeSet", "local_probability",
        "collective_probability", "collective_weight", "enumerate_outcomes",
    ],
    "blochest.estimators": [
        "TomographicGuess", "MLGuess", "tomography_estimate", "ml_estimate",
        "optimal_estimate", "random_estimate",
    ],
    "blochest.evaluator": ["sweep", "SweepResult", "tomography_with_discard"],
    "blochest.asymptotics": ["im_k_quarter_negative"],
}


def test_retired_names_stay_gone():
    names = {n for group in RETIRED.values() for n in group}
    assert len(names) == 23
    exported = {n for m in MODULES for n in importlib.import_module(m).__all__}
    assert names & exported == set()
    lingering = [
        f"{m}.{n}" for m, group in RETIRED.items() for n in group
        if hasattr(importlib.import_module(m), n) or hasattr(blochest, n)
    ]
    assert lingering == []


def test_monte_carlo_takes_its_grid_from_the_prior():
    """Monte Carlo never refines, so it has no quadrature-order options."""
    from blochest.evaluator import monte_carlo_fidelity

    params = inspect.signature(monte_carlo_fidelity).parameters
    assert not {"radial_order", "angular_order"} & set(params)
    keyword_only = [p.name for p in params.values() if p.kind is p.KEYWORD_ONLY]
    assert keyword_only == ["enumeration_limit"]
