"""Shared fixtures: priors at the frozen production orders and the heavy
exact sweeps that several test modules (including the acceptance suite)
analyze.  Session scope keeps each expensive computation to a single run;
build durations are recorded in BUILD_SECONDS so the acceptance suite can
report honest wall-clock figures for work it shares with other modules.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import settings

from blochest.core import PriorKind, build_prior
from blochest.evaluator import exact_fidelity
from blochest.schemes import SchemeKind, SchemeSpec

# Frozen quadrature orders used for every headline number.  128 radial x 256
# angular is the converged working point: doubling both changes the collective
# N = 1024 fidelity by < 1e-12 and the local sweep values by < 1e-10.
RADIAL_ORDER = 128
ANGULAR_ORDER = 256

EXPONENT_NS = (64, 128, 256, 512, 1024)
EVEN_NS = tuple(range(2, 21, 2))

# Property tests draw the same examples on every run and have no per-example
# time limit, so Tier-1 is deterministic on slow or loaded machines.
settings.register_profile("blochest", deadline=None, derandomize=True)
settings.load_profile("blochest")

# fixture name -> wall-clock seconds spent building it (this process).
BUILD_SECONDS: dict[str, float] = {}


def _timed(name, builder):
    start = time.perf_counter()
    value = builder()
    BUILD_SECONDS[name] = time.perf_counter() - start
    return value


@pytest.fixture(scope="session")
def eq_prior():
    return build_prior(PriorKind.EQUATORIAL_BURES, RADIAL_ORDER, ANGULAR_ORDER)


@pytest.fixture(scope="session")
def full_prior():
    return build_prior(PriorKind.FULL_BURES, RADIAL_ORDER, ANGULAR_ORDER)


@pytest.fixture(scope="session")
def eq_prior_small():
    return build_prior(PriorKind.EQUATORIAL_BURES, 32, 64)


@pytest.fixture(scope="session")
def full_prior_small():
    return build_prior(PriorKind.FULL_BURES, 32, 24)


def _sweep(scheme_kind, estimator, prior, ns):
    """(N, exact report) pairs at the frozen orders."""
    orders = {"radial_order": RADIAL_ORDER, "angular_order": ANGULAR_ORDER}
    return [(n, exact_fidelity(SchemeSpec(scheme_kind, n), estimator, prior, **orders)) for n in ns]


@pytest.fixture(scope="session")
def local_optimal_sweep(eq_prior):
    return _timed(
        "local_optimal_sweep",
        lambda: _sweep(SchemeKind.LOCAL_XY, "optimal", eq_prior, EXPONENT_NS),
    )


@pytest.fixture(scope="session")
def local_ml_sweep(eq_prior):
    return _timed(
        "local_ml_sweep",
        lambda: _sweep(SchemeKind.LOCAL_XY, "ml", eq_prior, EXPONENT_NS),
    )


@pytest.fixture(scope="session")
def tomography_sweep(eq_prior):
    return _timed(
        "tomography_sweep",
        lambda: _sweep(SchemeKind.LOCAL_XY, "tomography", eq_prior, EXPONENT_NS),
    )


@pytest.fixture(scope="session")
def collective_sweep(full_prior):
    return _timed(
        "collective_sweep",
        lambda: _sweep(SchemeKind.COLLECTIVE, "optimal", full_prior, EXPONENT_NS),
    )


@pytest.fixture(scope="session")
def even_n_curves(eq_prior):
    """Exact optimal and ML fidelities at every even N <= 20."""

    def build():
        opt = _sweep(SchemeKind.LOCAL_XY, "optimal", eq_prior, EVEN_NS)
        ml = _sweep(SchemeKind.LOCAL_XY, "ml", eq_prior, EVEN_NS)
        return opt, ml

    return _timed("even_n_curves", build)


@pytest.fixture(scope="session")
def the_constants():
    from blochest.asymptotics import constants

    return _timed("the_constants", constants)
