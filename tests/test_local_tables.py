"""The local table engine against its oracles: the full per-node sum, the
dense wedge engine that multiplies every binomial row, and the full-row tile
engine that folds the finished tables."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from blochest import evaluator
from blochest.core import Prior, PriorKind, build_prior
from blochest.evaluator import _local_exact_value, _symmetry_wedge, _tile_spans, local_tables
from blochest.schemes import SchemeKind, SchemeSpec, binom_log_pmf_matrix
from oracles import (
    fold_in_place,
    generated_group,
    image_sum,
    local_tables_dense,
    local_tables_full_rows,
    local_tables_per_node,
)

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
    gens, reps, rep_w = _symmetry_wedge(build_prior(PriorKind.EQUATORIAL_BURES, 4, angular))
    assert (len(set(generated_group(gens))), reps.size) == (group_order, wedge_size)
    assert rep_w.sum() * group_order == pytest.approx(1.0, abs=1e-15)


X_FLIP, Y_FLIP, SWAP = evaluator._REFLECTIONS
# Every set of reflections that can fix a prior; all three keep the bare
# table size as their test id.
REFLECTION_SETS = {
    "none": [],
    "x": [X_FLIP],
    "y": [Y_FLIP],
    "swap": [SWAP],
    "xy": [X_FLIP, Y_FLIP],
    "": [X_FLIP, Y_FLIP, SWAP],
}


@pytest.mark.parametrize(
    "gens, K",
    [
        pytest.param(gens, K, id=f"{name}-{K}" if name else str(K))
        for name, gens in REFLECTION_SETS.items()
        for K in (1, 2, 5, 64)
    ],
)
def test_in_place_fold_is_the_d4_image_sum(gens, K):
    """The full-row oracle's in-place fold against the sum of the images under the generated group."""
    group = generated_group(gens)
    assert len(set(group)) == 2 ** len(gens)
    wedge = np.random.default_rng(K).standard_normal((4, K, K))
    images = np.array([image_sum([g], wedge) for g in group])
    folded = wedge.copy()
    fold_in_place(folded, gens)
    # both are sums of the same |G| terms, in another order
    bound = len(group) * np.finfo(float).eps * np.abs(images).sum(axis=0)
    assert np.all(np.abs(folded - images.sum(axis=0)) <= bound)


# Angular weights on 16 uniform angles that each reflection set, and no
# larger one, maps onto themselves.
REFLECTION_BUMPS = {
    "none": lambda a: 0.3 * np.cos(a) + 0.2 * np.sin(a),
    "x": np.sin,
    "y": np.cos,
    "swap": lambda a: np.cos(a) + np.sin(a),
    "xy": lambda a: np.cos(2.0 * a),
    "": lambda a: 0.0 * a,
}


def _reflection_prior(name, radial, pure=False):
    """A 16-angle prior fixed by ``REFLECTION_SETS[name]``; ``pure`` adds a radial node at r = 1."""
    angles = _uniform_angles(16)
    prior = _hand_built(angles, 1.0 + 0.3 * REFLECTION_BUMPS[name](angles), radial)
    if pure:
        # q = 1 (and, off the wedge, q = 0) columns: one 0^0 = 1 entry each
        prior = dataclasses.replace(
            prior,
            radial_r=np.append(prior.radial_r, 1.0),
            radial_t=np.append(prior.radial_t, 0.0),
            radial_w=np.append(prior.radial_w, 0.25) / 1.25,
        )
    assert _symmetry_wedge(prior)[0] == REFLECTION_SETS[name]
    return prior


@given(
    name=st.sampled_from(list(REFLECTION_SETS)),
    n=st.integers(1, 70),
    radial=st.integers(2, 12),
    pure=st.booleans(),
    force_tiles=st.booleans(),
)
@example(name="", n=1, radial=2, pure=True, force_tiles=False)  # N = 2
@example(name="xy", n=2, radial=3, pure=False, force_tiles=True)
@example(name="", n=64, radial=12, pure=True, force_tiles=True)  # 4 cells per axis
@example(name="swap", n=33, radial=5, pure=True, force_tiles=True)
@example(name="x", n=48, radial=7, pure=False, force_tiles=True)
@example(name="y", n=17, radial=4, pure=True, force_tiles=True)
@example(name="none", n=50, radial=6, pure=True, force_tiles=True)
def test_folded_tiles_match_full_rows_and_per_node_sum(name, n, radial, pure, force_tiles):
    prior = _reflection_prior(name, radial, pure)
    spec = SchemeSpec(SchemeKind.LOCAL_XY, 2 * n)
    with pytest.MonkeyPatch.context() as mp:
        if force_tiles:
            mp.setattr(evaluator, "_tiles_pay", lambda n: True)
        fast = local_tables(spec, prior)
        full_rows = local_tables_full_rows(spec, prior)
    per_node = local_tables_per_node(spec, prior)
    for f in FIELDS:
        assert np.isfinite(getattr(fast, f)).all()
        assert np.abs(getattr(fast, f) - getattr(full_rows, f)).max() <= TABLE_TOL
        assert np.abs(getattr(fast, f) - getattr(per_node, f)).max() <= TABLE_TOL


@pytest.mark.parametrize("name", list(REFLECTION_SETS))
@pytest.mark.parametrize("n", [1, 2, 7, 8, 40, 41])
def test_folded_tables_are_exactly_symmetric(name, n):
    """Each reflection the prior has holds bit for bit: the folded rows are mirrored copies."""
    gens = REFLECTION_SETS[name]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "_tiles_pay", lambda n: True)
        tables = local_tables(SchemeSpec(SchemeKind.LOCAL_XY, 2 * n), _reflection_prior(name, 5, True))
    prob, v_t, v_x, v_y = (getattr(tables, f) for f in FIELDS)
    for axis, flip, odd, other in ((0, X_FLIP, v_x, v_y), (1, Y_FLIP, v_y, v_x)):
        if flip not in gens:
            continue
        for a in (prob, v_t, other):
            assert np.array_equal(a, np.flip(a, axis))
        assert np.array_equal(odd, -np.flip(odd, axis))
        if n % 2 == 0:
            assert not np.take(odd, n // 2, axis=axis).any()
    if SWAP in gens:
        assert np.array_equal(prob, prob.T)
        assert np.array_equal(v_t, v_t.T)
        assert np.array_equal(v_x, v_y.T)


def test_default_wedge_halves_the_mirror_lines():
    _, reps, rep_w = _symmetry_wedge(build_prior(PriorKind.EQUATORIAL_BURES, 4, 256))
    assert reps.tolist() == list(range(33))  # theta in [0, pi/4]
    expected = np.full(33, 1.0 / 256)
    expected[[0, 32]] /= 2.0
    np.testing.assert_allclose(rep_w, expected, rtol=1e-15, atol=0.0)


def test_rotated_grid_has_no_symmetry():
    prior = _hand_built(_uniform_angles(25, offset=math.sqrt(2.0) / 10.0), np.ones(25))
    gens, reps, _ = _symmetry_wedge(prior)
    assert (generated_group(gens), reps.size) == ([(1, 1, False)], 25)
    diff, _, _ = _table_diffs(SchemeSpec(SchemeKind.LOCAL_XY, 22), prior)
    assert diff <= TABLE_TOL


def test_unequal_mirror_weights_shrink_the_group():
    # 1 + 0.3 sin(theta) survives x -> -x only: y-flip and swap change it.
    angles = _uniform_angles(16)
    prior = _hand_built(angles, 1.0 + 0.3 * np.sin(angles))
    gens, reps, _ = _symmetry_wedge(prior)
    assert generated_group(gens) == [(1, 1, False), (-1, 1, False)]
    assert reps.size == 9  # 7 mirror pairs and the two nodes on the y axis
    diff, _, _ = _table_diffs(SchemeSpec(SchemeKind.LOCAL_XY, 30), prior)
    assert diff <= TABLE_TOL


@pytest.mark.parametrize(
    "bump, half_turn",
    [
        # cos + sin survives the swap only: both flips change it
        pytest.param(lambda a: np.cos(a) + np.sin(a), False, id="swap-only"),
        # sin 2 theta also survives the half turn and the anti-diagonal
        # swap, which no reflection of the three generates
        pytest.param(lambda a: np.sin(2.0 * a), True, id="beyond-the-reflections"),
    ],
)
def test_swap_symmetric_weights_fold_the_transpose(bump, half_turn):
    angles = _uniform_angles(16)
    prior = _hand_built(angles, 1.0 + 0.3 * bump(angles))
    xy = prior.directions[:, :2]
    turned = evaluator._direction_permutation(xy, prior.angular_w, (-1, -1, False))
    assert (turned is not None) == half_turn
    gens, reps, rep_w = _symmetry_wedge(prior)
    assert gens == [SWAP]
    assert reps.size == 9  # 7 swapped pairs and the two nodes on the diagonal
    assert rep_w.sum() * 2 == pytest.approx(1.0, abs=1e-15)
    for n in (3, 30):
        diff, fast, slow = _table_diffs(SchemeSpec(SchemeKind.LOCAL_XY, 2 * n), prior)
        assert diff <= TABLE_TOL
        assert abs(_local_exact_value(fast, None) - _local_exact_value(slow, None)) <= 1e-15


def test_round_off_never_pairs_one_flip_with_the_swap():
    """One D4 orbit nudged by up to 0.7e-14 per coordinate: x -> -x and the
    swap each map it onto itself within the 1e-14 tolerance, y -> -y (their
    product, conjugated) does not.  Folding over {x, swap} would sum four
    of the eight images; the x-flip alone is a true subgroup."""
    a, b = math.cos(0.3), math.sin(0.3)
    signs = [(1, 1), (-1, 1), (1, -1), (-1, -1)]
    xy = np.array([(sx * a, sy * b) for sx, sy in signs] + [(sy * b, sx * a) for sx, sy in signs])
    nudge = [[1, -1], [-1, -1], [0, 1], [1, 1], [-1, 1], [-1, 0], [0, 0], [0, 0]]
    xy += 0.7e-14 * np.array(nudge)
    prior = dataclasses.replace(
        _hand_built(np.zeros(8), np.ones(8)), directions=np.column_stack([xy, np.zeros(8)])
    )
    assert [evaluator._direction_permutation(xy, prior.angular_w, g) is not None
            for g in evaluator._REFLECTIONS] == [True, False, True]
    gens, reps, _ = _symmetry_wedge(prior)
    assert (gens, reps.size) == ([X_FLIP], 4)
    for n in (3, 30):
        diff, _, _ = _table_diffs(SchemeSpec(SchemeKind.LOCAL_XY, 2 * n), prior)
        assert diff <= TABLE_TOL


def test_frozen_grid_at_n384(eq_prior):
    spec = SchemeSpec(SchemeKind.LOCAL_XY, 384)
    diff, fast, slow = _table_diffs(spec, eq_prior)
    assert diff <= TABLE_TOL
    assert abs(_local_exact_value(fast, None) - _local_exact_value(slow, None)) <= 1e-15


# ---------------------------------------------------------------------------
# binomial support tiles against the dense wedge engine


def _tile_diffs(spec, prior, force_tiles=False):
    """Largest table difference and |ΔF| between the tile and dense engines.

    ``force_tiles`` tiles the tables even where every tile would span them.
    """
    with pytest.MonkeyPatch.context() as mp:
        if force_tiles:
            mp.setattr(evaluator, "_tiles_pay", lambda n: True)
        fast = local_tables(spec, prior)
    dense = local_tables_dense(spec, prior)
    diff = max(float(np.abs(getattr(fast, f) - getattr(dense, f)).max()) for f in FIELDS)
    return diff, abs(_local_exact_value(fast, None) - _local_exact_value(dense, None))


@given(
    n=st.integers(1, 64),
    radial=st.integers(2, 24),
    angular=st.integers(2, 48),
)
@example(n=1, radial=2, angular=7)  # odd: G = {id, y-flip}
@example(n=64, radial=24, angular=46)  # 2 mod 4: the four sign flips
@example(n=37, radial=17, angular=48)  # 0 mod 8: all of D4, 3 cells per axis
def test_tiles_match_dense_engine(n, radial, angular):
    prior = build_prior(PriorKind.EQUATORIAL_BURES, radial, angular)
    diff, dF = _tile_diffs(SchemeSpec(SchemeKind.LOCAL_XY, 2 * n), prior, force_tiles=True)
    assert diff <= TABLE_TOL
    assert dF <= TABLE_TOL


def test_tiles_without_symmetry_match_dense_engine():
    prior = _hand_built(_uniform_angles(25, offset=math.sqrt(2.0) / 10.0), np.ones(25))
    assert _symmetry_wedge(prior)[0] == []  # G = {id}
    for n in (5, 40, 150):
        diff, dF = _tile_diffs(SchemeSpec(SchemeKind.LOCAL_XY, 2 * n), prior, force_tiles=True)
        assert diff <= TABLE_TOL
        assert dF <= TABLE_TOL


@pytest.mark.parametrize("weights", [np.ones(8), np.arange(1.0, 9.0)])
def test_pure_state_columns_match_dense_engine(weights):
    # A radial node at r = 1 puts q = 1 (and, without the D4 wedge, q = 0)
    # in some columns, where each binomial table is one 0^0 = 1 entry.
    angles = _uniform_angles(8)
    prior = Prior(
        kind=PriorKind.EQUATORIAL_BURES,
        radial_r=np.array([0.6, 1.0]),
        radial_t=np.array([0.8, 0.0]),
        radial_w=np.array([0.5, 0.5]),
        directions=np.column_stack([np.cos(angles), np.sin(angles), np.zeros(8)]),
        angular_w=weights / weights.sum(),
    )
    for n in (1, 2, 6, 40, 240):
        fast = local_tables(SchemeSpec(SchemeKind.LOCAL_XY, 2 * n), prior)
        dense = local_tables_dense(SchemeSpec(SchemeKind.LOCAL_XY, 2 * n), prior)
        for f in FIELDS:
            assert np.isfinite(getattr(fast, f)).all()
            assert np.abs(getattr(fast, f) - getattr(dense, f)).max() <= TABLE_TOL


@pytest.mark.parametrize("copies", [256, 1024, 2048])
def test_tiles_at_default_orders(eq_prior, copies):
    assert evaluator._tiles_pay(copies // 2)
    diff, dF = _tile_diffs(SchemeSpec(SchemeKind.LOCAL_XY, copies), eq_prior)
    assert diff <= TABLE_TOL
    assert dF <= TABLE_TOL


def test_tiles_pay_from_the_support_width():
    # sqrt(2 n ln 1e22) < n + 1 from n = 100 on
    assert not evaluator._tiles_pay(99)
    assert evaluator._tiles_pay(100)


@given(
    n=st.integers(1, 300),
    qs=st.lists(
        st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 0.5, 1e-9, 1.0 - 1e-9])),
        min_size=1,
        max_size=40,
    ),
    cuts=st.sets(st.integers(1, 39), max_size=6),
    flip=st.booleans(),
)
@example(n=2, qs=[0.5], cuts=set(), flip=True)  # the middle row is its own mirror
@example(n=40, qs=[0.02, 0.98, 0.5], cuts={1, 2}, flip=True)
def test_tile_spans_skip_only_rows_below_the_cut(n, qs, cuts, flip):
    """A folded row k stands for rows k and n - k: it is skipped only when both are below the cut."""
    log_pmf = binom_log_pmf_matrix(n, np.array(qs))
    starts = np.array([0] + sorted(c for c in cuts if c < len(qs)))
    lo, hi, mid = _tile_spans(log_pmf, starts, flip)
    floor = log_pmf.max(axis=0) + math.log(evaluator._SUPPORT_CUT)
    ends = np.append(starts[1:], len(qs))
    kept = (n + 1) // 2 if flip else 0
    rows = np.arange(kept, n + 1)
    for a, b, x0, x1, m1 in zip(starts, ends, lo, hi, mid):
        tile = log_pmf[:, a:b]
        direct = tile > floor[a:b]
        mirror = tile[::-1] > floor[a:b] if flip else np.zeros_like(direct)
        assert kept <= x0 <= m1 <= x1 <= n + 1
        skipped = (rows < x0) | (rows >= x1)
        # every skipped kept row has its own and its mirror's pmf below the cut, in every column
        assert not direct[rows[skipped]].any() and not mirror[rows[skipped]].any()
        # the span is the hull: each edge row or its mirror is in some column's support
        assert (direct | mirror)[x0].any() and (direct | mirror)[x1 - 1].any()
        # mirrors are in the support only before mid, and mid is their hull's end
        assert not mirror[m1:].any()
        assert m1 == x0 or mirror[m1 - 1].any()
