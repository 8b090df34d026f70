"""The collective table engine against the dense and the windowed per-label sums."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from blochest import evaluator
from blochest.core import Prior, PriorKind, build_prior
from blochest.evaluator import (
    _WINDOW_CUT_NATS,
    _collective_exact_value,
    _support_windows,
    collective_tables,
)
from blochest.quadrature import gauss_legendre
import oracles
from oracles import collective_tables_dense, collective_tables_windowed, support_windows_per_entry

FIELDS = ("prob", "v_t", "v_par")
TABLE_TOL = 1e-13  # relative to the total mass
FIDELITY_TOL = 1e-14
BENCH_FIDELITY_TOL = 1e-15


def _full(radial_order: int, cos_order: int) -> Prior:
    # the full-ball prior's angular rule is the polar-cosine rule
    return build_prior(PriorKind.FULL_BURES, radial_order, cos_order)


def _hand_built(r, t, w, cos_order) -> Prior:
    base = _full(2, cos_order)
    return Prior(
        kind=PriorKind.FULL_BURES,
        radial_r=r,
        radial_t=t,
        radial_w=w / w.sum(),
        directions=base.directions,
        angular_w=base.angular_w,
    )


def _check_against_dense(total_copies, prior, fidelity_tol=FIDELITY_TOL):
    with np.errstate(divide="raise", invalid="raise"):
        fast = collective_tables(total_copies, prior)
    slow = collective_tables_dense(total_copies, prior, prior.angular_order)
    np.testing.assert_array_equal(fast.k_values, slow.k_values)
    scale = TABLE_TOL * float(slow.prob.sum())
    for field in FIELDS:
        assert np.abs(getattr(fast, field) - getattr(slow, field)).max() <= scale, field
    f_fast = _collective_exact_value(fast)
    f_slow = _collective_exact_value(slow)
    assert abs(f_fast - f_slow) <= fidelity_tol


def _check_windows(total_copies, prior):
    """Outside each window every entry's bound lies below the floor, and so
    does the window's first column when the window starts past column 0."""
    r, t = prior.radial_r, prior.radial_t
    c, gw = gauss_legendre(prior.angular_order)
    with np.errstate(divide="ignore"):
        log_wr = np.log(prior.radial_w)
        log_quarter = 2.0 * np.log(t) - math.log(4.0)
    log_cos = np.log(0.5 * (1.0 + np.outer(r, c)))
    log_wc_max = math.log(gw.max() / 2.0)
    log_wc_last = math.log(gw[-1] / 2.0)
    ks, lcs, _, i0, i1, j0s = _support_windows(total_copies, prior)
    # one search per label finds the windows of one search per kept entry
    per_entry = support_windows_per_entry(total_copies, prior, prior.angular_order)
    for got, want in zip((ks, i0, i1, j0s), per_entry):
        np.testing.assert_array_equal(got, want)
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
    prior = _full(radial, cos_order)
    _check_against_dense(n, prior)
    _check_windows(n, prior)


@pytest.mark.parametrize("orders", [(128, 256), (256, 512)])
def test_benchmark_points_match_dense_sum(orders):
    prior = _full(*orders)
    for n in (256, 512, 768, 1024):
        _check_against_dense(n, prior, fidelity_tol=BENCH_FIDELITY_TOL)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 40, 255])
def test_hand_built_prior_with_zero_radius(n):
    base = _full(12, 24)
    prior = _hand_built(
        np.concatenate(([0.0], base.radial_r)),
        np.concatenate(([1.0], base.radial_t)),
        np.concatenate(([0.05], base.radial_w)),
        24,
    )
    _check_against_dense(n, prior)
    _check_windows(n, prior)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 40, 255])
def test_hand_built_prior_with_zero_weight(n):
    base = _full(12, 24)
    w = base.radial_w.copy()
    w[[0, 6, 11]] = 0.0
    prior = _hand_built(base.radial_r, base.radial_t, w, 24)
    _check_against_dense(n, prior)
    _check_windows(n, prior)


def test_zero_radius_row_at_the_floor_keeps_every_column():
    """An r = 0 row is flat in c.  With this weight it sits right at label
    k = 100's floor (N = 400), where its cosine bound's numerator
    2 e^need - 1 rounds to 2^-52 and cannot be divided by r = 0: the row
    is kept, and so is every column, although the other rows alone start
    at column 6."""
    base = _full(12, 24)
    prior = Prior(
        kind=PriorKind.FULL_BURES,
        radial_r=np.concatenate(([0.0], base.radial_r)),
        radial_t=np.concatenate(([1.0], base.radial_t)),
        radial_w=np.concatenate(([float.fromhex("0x1.9348ab7a15eb8p-20")], base.radial_w)),
        directions=base.directions,
        angular_w=base.angular_w,
    )
    at = 100
    ks, _, _, i0, _, j0 = _support_windows(400, prior)
    assert ks[at] == 100.0 and i0[at] == 0 and j0[at] == 0
    assert _support_windows(400, base)[5][at] == 6
    _check_windows(400, prior)
    _check_against_dense(400, prior)


def _check_labels_against_windowed(total_copies, prior):
    """Every label's sums against the engine that exponentiates each window
    entry, within the first-order round-off bound derived in
    ``collective_tables``: (5 A + 10 k Lambda + 3 i + n_c + n_r + n_r n_c + 13) u
    times prob[k]."""
    cos_order = prior.angular_order
    fast = collective_tables(total_copies, prior)
    slow = collective_tables_windowed(total_copies, prior, cos_order)
    ks, lc, hk_lq, i0, i1, j0 = evaluator._support_windows(total_copies, prior)
    c, _ = gauss_legendre(cos_order)
    log_x = np.log(0.5 * (1.0 + np.outer(prior.radial_r, c)))
    u = 2.0**-53
    for i, k in enumerate(ks):
        rows = slice(i0[i], i1[i])
        n_r, n_c = i1[i] - i0[i], cos_order - j0[i]
        a = np.max(abs(lc[i]) + np.abs(hk_lq[i, rows]) + np.abs(2.0 * k * log_x[rows, -1]))
        lam = np.max(np.abs(log_x[rows, j0[i]:] - log_x[rows, -1:]))
        bound = (5 * a + 10 * k * lam + 3 * i + n_c + n_r + n_r * n_c + 13) * u * slow.prob[i]
        for field in FIELDS:
            assert abs(getattr(fast, field)[i] - getattr(slow, field)[i]) <= bound, (field, k)


@pytest.mark.parametrize("orders", [(128, 256), (256, 512)])
def test_labels_match_window_engine(orders):
    """N = 2048, the default enumeration limit, on the benchmark's grids."""
    prior = _full(*orders)
    _check_labels_against_windowed(2048, prior)
    # the windows only move up the grid there, so rows are carried, not reseeded
    _, _, _, i0, i1, j0 = _support_windows(2048, prior)
    for edge in (i0, i1, j0):
        assert np.all(np.diff(edge) >= 0)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [9, 16])
def test_random_windows_match_window_engine(monkeypatch, n, seed):
    """Both engines summed over the same random windows, which move down,
    up, left and right from label to label: rows the engine cannot carry
    are reseeded.  At this N every grid entry carries weight."""
    cos_order = 8
    prior = _full(6, cos_order)
    ks, lc, hk_lq, _, _, _ = _support_windows(n, prior)
    rng = np.random.default_rng(seed)
    i0 = rng.integers(0, 5, ks.size)
    i1 = i0 + 1 + rng.integers(0, 6 - i0)
    j0 = rng.integers(0, cos_order, ks.size)
    monkeypatch.setattr(
        evaluator, "_support_windows", lambda *_: (ks, lc, hk_lq.copy(), i0, i1, j0)
    )
    monkeypatch.setattr(oracles, "support_windows_per_entry", lambda *_: (ks, i0, i1, j0))
    _check_labels_against_windowed(n, prior)
