"""The ML and tomography guess rule against the guess tables it replaced.

``_count_guesses`` guesses per outcome for any arrays of counts.  Over
every outcome of the (n+1) x (n+1) table it must equal, with ``==``, the
tables that solved the D4 wedge and unfolded it
(``oracles.ml_guess_tables_unfolded``) and the tomography tables, and stay
within 1e-12 of the table that solved every unphysical outcome
(``oracles.ml_guess_tables_full``).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochest.evaluator import _REFLECTIONS, _count_guesses, _to_wedge
from oracles import (
    d4_table_image,
    generated_group,
    ml_guess_tables_full,
    ml_guess_tables_unfolded,
    ml_wedge,
    physical_mask,
    tomography_guess_tables,
)

TABLE_TOL = 1e-12
# cos(pi/4) and sin(pi/4) differ by one ulp
ULP_HALF = 2.0**-53


def _table_guesses(estimator: str, n: int):
    return _count_guesses(estimator, n, *np.indices((n + 1, n + 1)))


def _assert_tables_match(n: int) -> None:
    # The full tables hold every outcome: odd and even n, the diagonal,
    # the k_y = n/2 row and the corners.
    guesses, kept = _table_guesses("ml", n)
    assert kept is None
    for fast, slow in zip(guesses, ml_guess_tables_full(n)):
        assert fast.shape == (n + 1, n + 1)
        assert np.abs(fast - slow).max() <= TABLE_TOL


@settings(max_examples=50)
@given(n=st.integers(1, 128))
@example(n=1)
@example(n=2)
@example(n=3)
@example(n=128)
def test_unfolded_tables_match_full_solve(n):
    _assert_tables_match(n)


@pytest.mark.parametrize("n", [255, 256, 384, 1024])
def test_unfolded_tables_match_full_solve_large(n):
    _assert_tables_match(n)


@pytest.mark.parametrize("n", [*range(1, 130), 192, 255, 256, 274, 384, 512, 1024])
def test_rule_equals_the_former_tables(n):
    """Bit for bit over every outcome; n = 274 has outcomes on the circle."""
    guesses, _ = _table_guesses("ml", n)
    for rule, table in zip(guesses, ml_guess_tables_unfolded(n)):
        assert np.array_equal(rule, table)
    guesses, kept = _table_guesses("tomography", n)
    *tables, phys = tomography_guess_tables(n)
    assert np.array_equal(kept, phys)
    for rule, table in zip(guesses, tables):
        assert np.array_equal(rule[kept], table[phys])


@given(n=st.integers(1, 300))
@example(n=1)
@example(n=2)
def test_wedge_images_cover_the_unphysical_outcomes(n):
    phys = physical_mask(n)
    wedge = ml_wedge(phys)
    kx, ky = np.nonzero(~phys)
    wx, wy, flip_x, flip_y, swap = _to_wedge(n, kx, ky)
    image = np.zeros_like(wedge)
    image[wx, wy] = True
    assert np.array_equal(image, wedge)  # into the wedge, and onto it
    assert np.array_equal(np.stack(_to_wedge(n, *np.nonzero(wedge))[:2]), np.nonzero(wedge))
    # undoing the swap, then the flips, gives the outcome back
    bx, by = np.where(swap, wy, wx), np.where(swap, wx, wy)
    assert np.array_equal(np.where(flip_x, n - bx, bx), kx)
    assert np.array_equal(np.where(flip_y, n - by, by), ky)

    zeros = np.zeros(wedge.shape)
    group = generated_group(_REFLECTIONS)
    assert len(set(group)) == 8
    images = [d4_table_image(g, (wedge, zeros, zeros))[0] for g in group]
    assert np.array_equal(np.logical_or.reduce(images), ~phys)
    k = np.arange(n + 1)
    assert wedge[n, n]  # the corner: R = sqrt 2
    assert not wedge[k[:, None] < k[None, :]].any()
    assert not wedge[:, : (n + 1) // 2].any()


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_guesses_are_pure_states_off_the_disc(n):
    (tg, gx, gy), _ = _table_guesses("ml", n)
    unphys = ~physical_mask(n)
    assert np.all(tg[unphys] == 0.0)
    assert np.abs(gx[unphys] ** 2 + gy[unphys] ** 2 - 1.0).max() <= 1e-15


@st.composite
def count_arrays(draw):
    """n and count pairs, with the edges of each drawn pair added.

    Each drawn (a, b) brings the corners, its diagonal and anti-diagonal
    points (a, a) and (a, n - a), the k = n/2 row and the k = n - 1 row.
    """
    n = draw(st.one_of(st.integers(1, 64), st.integers(1, 2**24)))
    k = st.integers(0, n)
    pairs = draw(st.lists(st.tuples(k, k), min_size=1, max_size=30))
    edges = [(0, 0), (n, n), (0, n), (n, 0)]
    for a, b in pairs:
        edges += [(a, a), (a, n - a), (a, n // 2), ((n + 1) // 2, b), (n - 1, b), (a, n - 1)]
    kx, ky = np.array(pairs + edges).T
    return n, kx, ky


def _image(g: str, n: int, kx, ky, guesses):
    """Counts mapped by a generating reflection, and the guesses mapped with them."""
    t, x, y = guesses
    if g == "x-flip":
        return (n - kx, ky), (t, -x, y)
    if g == "y-flip":
        return (kx, n - ky), (t, x, -y)
    return (ky, kx), (t, y, x)


@settings(max_examples=60, deadline=None)
@given(case=count_arrays())
@example(case=(1, np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])))
@example(case=(2, np.array([0, 1, 2, 1, 2]), np.array([0, 1, 2, 2, 1])))
@example(case=(2**24, np.array([2**24, 2**24 - 1, 2**23]), np.array([2**23, 2**23, 2**23])))
def test_rule_on_count_arrays(case):
    """Pure off the disc, the tomographic point on it, and D4-equivariant.

    Off the disc the flips carry the guesses bit for bit, and so does the
    swap unless the outcome is on a diagonal (k_x = k_y or k_x + k_y = n),
    whose orbit holds four outcomes: there the two ways round the orbit
    differ by cos(pi/4) - sin(pi/4), one ulp.  On the disc the tomographic
    point itself rounds differently under a flip, so only the kept mask is
    checked there.
    """
    n, kx, ky = case
    (t, x, y), _ = _count_guesses("ml", n, kx, ky)
    _, kept = _count_guesses("tomography", n, kx, ky)
    exact = [(2 * a - n) ** 2 + (2 * b - n) ** 2 <= n * n for a, b in zip(kx.tolist(), ky.tolist())]
    assert kept.tolist() == exact
    off = ~kept
    if n == 1:
        assert not kept.any()

    assert np.all(t[off] == 0.0)
    assert np.abs(x[off] ** 2 + y[off] ** 2 - 1.0).max(initial=0.0) <= 1e-15

    for i in np.flatnonzero(kept):
        px = 2.0 * (int(kx[i]) / n) - 1.0
        py = 2.0 * (int(ky[i]) / n) - 1.0
        assert (x[i], y[i]) == (px, py)
        assert t[i] == math.sqrt(max(0.0, 1.0 - (px * px + py * py)))

    on_diagonal = (kx == ky) | (kx + ky == n)
    for g in ("x-flip", "y-flip", "swap"):
        counts, mapped = _image(g, n, kx, ky, (t, x, y))
        _, kept2 = _count_guesses("tomography", n, *counts)
        assert np.array_equal(kept2, kept)
        guesses, _ = _count_guesses("ml", n, *counts)
        exact_here = off & ~on_diagonal if g == "swap" else off
        for got, want in zip(guesses, mapped):
            assert np.array_equal(got[exact_here], want[exact_here])
            assert np.abs(got[off] - want[off]).max(initial=0.0) <= ULP_HALF

    # an outcome's guess does not depend on the outcomes passed with it
    (tr, xr, yr), _ = _count_guesses("ml", n, kx[::-1], ky[::-1])
    assert np.array_equal(tr[::-1], t) and np.array_equal(xr[::-1], x)
    assert np.array_equal(yr[::-1], y)
