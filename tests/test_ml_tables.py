"""The ML guess tables, solved on the D4 wedge and unfolded, against the
former table that solved every unphysical outcome."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochest.evaluator import _REFLECTIONS, _ml_guess_tables, _ml_wedge, _physical_mask
from oracles import d4_table_image, generated_group, ml_guess_tables_full

TABLE_TOL = 1e-12


def _assert_tables_match(n: int) -> None:
    # The full tables hold every outcome: odd and even n, the diagonal,
    # the k_y = n/2 row and the corners.
    for fast, slow in zip(_ml_guess_tables(n), ml_guess_tables_full(n)):
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


@given(n=st.integers(1, 300))
@example(n=1)
@example(n=2)
def test_wedge_images_cover_the_unphysical_outcomes(n):
    wedge = _ml_wedge(_physical_mask(n))
    zeros = np.zeros(wedge.shape)
    group = generated_group(_REFLECTIONS)
    assert len(set(group)) == 8
    images = [d4_table_image(g, (wedge, zeros, zeros))[0] for g in group]
    assert np.array_equal(np.logical_or.reduce(images), ~_physical_mask(n))
    k = np.arange(n + 1)
    assert wedge[n, n]  # the corner: R = sqrt 2
    assert not wedge[k[:, None] < k[None, :]].any()
    assert not wedge[:, : (n + 1) // 2].any()


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_guesses_are_pure_states_off_the_disc(n):
    tg, gx, gy = _ml_guess_tables(n)
    unphys = ~_physical_mask(n)
    assert np.all(tg[unphys] == 0.0)
    assert np.abs(gx[unphys] ** 2 + gy[unphys] ** 2 - 1.0).max() <= 1e-15
