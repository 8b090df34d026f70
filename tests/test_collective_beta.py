"""The collective tables of the full Bures ball in closed form (``evaluator._beta_tables``).

Three routes that share no code with the float form: mpmath quadrature of
the defining double integral, 40-digit sums of the Beta forms, and the
masses as exact fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blochest.core import PriorKind, build_prior
from blochest.evaluator import (
    _beta_loss,
    _beta_tables,
    _collective_exact_value,
    collective_tables,
)
from oracles import collective_beta_label, collective_beta_sums, collective_label_quadrature

FIELDS = ("prob", "v_t", "v_par")
# Measured against the 40-digit sums over the N below: every label's fields
# within 4.0e-14 relative (N = 4096), 1 - F from the loss within 4.8e-16
# relative, F within 2.0e-16
LABEL_RTOL = 1e-13
LOSS_RTOL = 1e-15
FIDELITY_TOL = 5e-16


@pytest.mark.parametrize("n, k", [(1, 0.5), (2, 1), (5, 1.5), (8, 4), (9, 2.5)])
def test_beta_forms_match_the_double_integral(n, k):
    quad = collective_label_quadrature(n, k, dps=20)
    beta = collective_beta_label(n, k, dps=20)
    for got, want in zip(quad, beta):
        assert abs(got - want) <= 1e-18 * abs(want)


@pytest.mark.parametrize("n", [1, 2, 8, 40, 1025])
def test_40_digit_sums_follow_the_beta_forms(n):
    """The sums' label-to-label ratios against each label's own Beta functions."""
    prob, v_t, v_par, _, _ = collective_beta_sums(n)
    labels = range(len(prob)) if n <= 40 else (0, 1, len(prob) // 2, len(prob) - 2)
    ks = _beta_tables(n).k_values
    for i in labels:
        for got, want in zip((prob[i], v_t[i], v_par[i]), collective_beta_label(n, ks[i])):
            assert abs(got - want) <= 1e-38 * abs(want)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 255, 1024, 4096, 4097, 16383, 16384])
def test_float_form_against_40_digit_sums(n):
    tables = _beta_tables(n)
    prob, v_t, v_par, fidelity, loss = collective_beta_sums(n)
    for field, exact in zip(FIELDS, (prob, v_t, v_par)):
        want = np.array([float(x) for x in exact])
        got = getattr(tables, field)
        assert np.all(np.abs(got - want) <= LABEL_RTOL * want), field
    g = np.hypot(tables.v_t, tables.v_par) / tables.prob
    one_minus_f = 0.5 * float(np.sum(tables.prob * _beta_loss(n, tables.k_values) / (1.0 + g)))
    assert abs(one_minus_f - loss) <= LOSS_RTOL * loss
    assert abs(_collective_exact_value(tables) - fidelity) <= FIDELITY_TOL


def _exact_masses(n: int) -> list[Fraction]:
    """prob[k] as fractions: with m = N/2 + k, the Beta form's Gamma
    functions at half-integers give B(m + 3/2, N - m + 1/2) = pi (2a)! (2b)!
    / (4^(a+b) a! b! (N + 1)!), a = m + 1, b = N - m."""
    masses = []
    for m in range((n + 1) // 2, n + 1):
        ck = Fraction(math.comb(n, m) * (2 * m - n + 1) ** 2, m + 1)
        a, b = m + 1, n - m
        beta_over_pi = Fraction(
            math.factorial(2 * a) * math.factorial(2 * b),
            4 ** (a + b) * math.factorial(a) * math.factorial(b) * math.factorial(n + 1),
        )
        masses.append(4 * ck * beta_over_pi / (n + 2))
    return masses


@given(st.integers(1, 200))
def test_masses_sum_to_one(n):
    """The exact masses sum to 1, which licenses the float form's
    normalisation, and its masses are theirs within 1e-14 (5.5e-15
    measured over N <= 200)."""
    exact = _exact_masses(n)
    assert sum(exact) == 1
    prob = _beta_tables(n).prob
    assert abs(float(prob.sum()) - 1.0) <= 4 * np.finfo(float).eps
    for got, want in zip(prob.tolist(), exact):
        assert abs(Fraction(got) - want) <= Fraction(1, 10**14) * want


# F on the 256 x 512 grid less the exact F, measured: 6.2e-13, 1.12e-12,
# 1.60e-12 and 2.43e-12, from numpy's Gauss-Legendre weights on the cosine
# rule; the benchmark's reference values are the grid's
@pytest.mark.parametrize("n", [256, 512, 768, 1024])
def test_grid_excess_over_the_exact_value(n):
    grid = _collective_exact_value(collective_tables(n, build_prior(PriorKind.FULL_BURES, 256, 512)))
    excess = grid - _collective_exact_value(_beta_tables(n))
    assert 0.0 < excess < 3e-12
