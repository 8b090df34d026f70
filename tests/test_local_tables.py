"""The symmetry-wedge local table engine against the full per-node sum."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from blochest.core import Prior, PriorKind, build_prior
from blochest.evaluator import _local_exact_value, _symmetry_wedge, local_tables
from blochest.schemes import SchemeKind, SchemeSpec
from oracles import local_tables_per_node

FIELDS = ("prob", "v_t", "v_x", "v_y")
TABLE_TOL = 1e-14


def _table_diffs(spec, prior):
    fast = local_tables(spec, prior)
    slow = local_tables_per_node(spec, prior)
    diff = max(float(np.abs(getattr(fast, f) - getattr(slow, f)).max()) for f in FIELDS)
    return diff, fast, slow


def _hand_built(angles, weights, radial_order=9):
    base = build_prior(PriorKind.EQUATORIAL_BURES, radial_order, 4)
    directions = np.column_stack([np.cos(angles), np.sin(angles), np.zeros(angles.size)])
    return Prior(
        kind=PriorKind.EQUATORIAL_BURES,
        radial_r=base.radial_r,
        radial_t=base.radial_t,
        radial_w=base.radial_w,
        directions=directions,
        angular_w=weights / weights.sum(),
    )


def _uniform_angles(count, offset=0.0):
    return 2.0 * np.pi * np.arange(count) / count + offset


@given(
    n=st.integers(1, 40),
    radial=st.integers(2, 24),
    angular=st.integers(2, 48),
)
@example(n=1, radial=2, angular=7)  # odd: G = {id, y-flip}
@example(n=40, radial=24, angular=46)  # 2 mod 4: the four sign flips
@example(n=13, radial=5, angular=12)  # 4 mod 8: all of D4, no diagonal nodes
@example(n=7, radial=3, angular=48)  # 0 mod 8: all of D4
def test_tables_match_per_node_sum(n, radial, angular):
    prior = build_prior(PriorKind.EQUATORIAL_BURES, radial, angular)
    diff, _, _ = _table_diffs(SchemeSpec(SchemeKind.LOCAL_XY, 2 * n), prior)
    assert diff <= TABLE_TOL


@pytest.mark.parametrize(
    "angular, group_order, wedge_size",
    [(7, 2, 4), (6, 4, 2), (12, 8, 2), (16, 8, 3), (256, 8, 33)],
)
def test_uniform_grid_symmetry(angular, group_order, wedge_size):
    group, reps, rep_w = _symmetry_wedge(build_prior(PriorKind.EQUATORIAL_BURES, 4, angular))
    assert (len(group), reps.size) == (group_order, wedge_size)
    assert rep_w.sum() * len(group) == pytest.approx(1.0, abs=1e-15)


def test_default_wedge_halves_the_mirror_lines():
    _, reps, rep_w = _symmetry_wedge(build_prior(PriorKind.EQUATORIAL_BURES, 4, 256))
    assert reps.tolist() == list(range(33))  # theta in [0, pi/4]
    expected = np.full(33, 1.0 / 256)
    expected[[0, 32]] /= 2.0
    np.testing.assert_allclose(rep_w, expected, rtol=1e-15, atol=0.0)


def test_rotated_grid_has_no_symmetry():
    prior = _hand_built(_uniform_angles(25, offset=math.sqrt(2.0) / 10.0), np.ones(25))
    group, reps, _ = _symmetry_wedge(prior)
    assert (len(group), reps.size) == (1, 25)
    diff, _, _ = _table_diffs(SchemeSpec(SchemeKind.LOCAL_XY, 22), prior)
    assert diff <= TABLE_TOL


def test_unequal_mirror_weights_shrink_the_group():
    # 1 + 0.3 sin(theta) survives x -> -x only: y-flip and swap change it.
    angles = _uniform_angles(16)
    prior = _hand_built(angles, 1.0 + 0.3 * np.sin(angles))
    group, reps, _ = _symmetry_wedge(prior)
    assert group == [(1, 1, False), (-1, 1, False)]
    assert reps.size == 9  # 7 mirror pairs and the two nodes on the y axis
    diff, _, _ = _table_diffs(SchemeSpec(SchemeKind.LOCAL_XY, 30), prior)
    assert diff <= TABLE_TOL


def test_frozen_grid_at_n384(eq_prior):
    spec = SchemeSpec(SchemeKind.LOCAL_XY, 384)
    diff, fast, slow = _table_diffs(spec, eq_prior)
    assert diff <= TABLE_TOL
    assert abs(_local_exact_value(fast, None) - _local_exact_value(slow, None)) <= 1e-15
