"""The windowed collective table engine against the dense per-label sum."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from blochest.core import Prior, PriorKind, build_prior
from blochest.evaluator import (
    _WINDOW_CUT_NATS,
    _collective_exact_value,
    _support_windows,
    collective_tables,
)
from blochest.quadrature import gauss_legendre
from oracles import collective_tables_dense

FIELDS = ("prob", "v_t", "v_par")
TABLE_TOL = 1e-13  # relative to the total mass
FIDELITY_TOL = 1e-14
BENCH_FIDELITY_TOL = 1e-15


def _radial_prior(radial_order: int) -> Prior:
    # collective_tables reads only the radial rule; the cosine order is its own
    return build_prior(PriorKind.FULL_BURES, radial_order, 2)


def _hand_built(r, t, w) -> Prior:
    base = _radial_prior(2)
    return Prior(
        kind=PriorKind.FULL_BURES,
        radial_r=r,
        radial_t=t,
        radial_w=w / w.sum(),
        directions=base.directions,
        angular_w=base.angular_w,
    )


def _check_against_dense(total_copies, prior, cos_order, fidelity_tol=FIDELITY_TOL):
    with np.errstate(divide="raise", invalid="raise"):
        fast = collective_tables(total_copies, prior, cos_order)
    slow = collective_tables_dense(total_copies, prior, cos_order)
    np.testing.assert_array_equal(fast.k_values, slow.k_values)
    scale = TABLE_TOL * float(slow.prob.sum())
    for field in FIELDS:
        assert np.abs(getattr(fast, field) - getattr(slow, field)).max() <= scale, field
    f_fast = _collective_exact_value(fast)
    f_slow = _collective_exact_value(slow)
    assert abs(f_fast - f_slow) <= fidelity_tol


def _check_windows(total_copies, prior, cos_order):
    """Outside each window every entry's bound lies below the floor, and so
    does the window's first column when the window starts past column 0."""
    r, t = prior.radial_r, prior.radial_t
    c, gw = gauss_legendre(cos_order)
    with np.errstate(divide="ignore"):
        log_wr = np.log(prior.radial_w)
        log_quarter = 2.0 * np.log(t) - math.log(4.0)
    log_cos = np.log(0.5 * (1.0 + np.outer(r, c)))
    log_wc_max = math.log(gw.max() / 2.0)
    log_wc_last = math.log(gw[-1] / 2.0)
    ks, lcs, _, i0, i1, j0s = _support_windows(total_copies, prior, cos_order)
    for k, lc, start, stop, j0 in zip(ks, lcs, i0, i1, j0s):
        hk = total_copies / 2.0 - k
        logd = lc + (2.0 * k) * log_cos
        if hk > 0:
            logd = logd + hk * log_quarter[:, None]
        bound = logd + log_wr[:, None] + log_wc_max
        floor = float(np.max(logd[:, -1] + log_wr)) + log_wc_last - _WINDOW_CUT_NATS
        rows = slice(start, stop)
        inside = np.zeros(bound.shape, dtype=bool)
        inside[rows, j0:] = True
        assert np.all(bound[~inside] < floor)
        if k == 0:
            assert j0 == 0
        if j0 > 0:
            assert np.all(bound[rows, j0] < floor)  # one column of margin
        # the window is no wider than that: its edges reach the floor
        # (up to round-off in the inversion)
        if j0 + 1 < c.size:
            assert np.any(bound[rows, j0 + 1] >= floor - 1e-9)
        assert bound[start].max() >= floor - 1e-9
        assert bound[stop - 1].max() >= floor - 1e-9


@given(
    n=st.integers(1, 64),
    radial=st.integers(2, 48),
    cos_order=st.integers(2, 96),
)
@example(n=255, radial=48, cos_order=96)
@example(n=256, radial=40, cos_order=80)
@example(n=257, radial=31, cos_order=64)
@example(n=1023, radial=48, cos_order=96)
def test_tables_match_dense_sum(n, radial, cos_order):
    prior = _radial_prior(radial)
    _check_against_dense(n, prior, cos_order)
    _check_windows(n, prior, cos_order)


@pytest.mark.parametrize("orders", [(128, 256), (256, 512)])
def test_benchmark_points_match_dense_sum(orders):
    radial, cos_order = orders
    prior = _radial_prior(radial)
    for n in (256, 512, 768, 1024):
        _check_against_dense(n, prior, cos_order, fidelity_tol=BENCH_FIDELITY_TOL)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 40, 255])
def test_hand_built_prior_with_zero_radius(n):
    base = _radial_prior(12)
    prior = _hand_built(
        np.concatenate(([0.0], base.radial_r)),
        np.concatenate(([1.0], base.radial_t)),
        np.concatenate(([0.05], base.radial_w)),
    )
    _check_against_dense(n, prior, 24)
    _check_windows(n, prior, 24)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 40, 255])
def test_hand_built_prior_with_zero_weight(n):
    base = _radial_prior(12)
    w = base.radial_w.copy()
    w[[0, 6, 11]] = 0.0
    prior = _hand_built(base.radial_r, base.radial_t, w)
    _check_against_dense(n, prior, 24)
    _check_windows(n, prior, 24)
