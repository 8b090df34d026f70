"""Measurement models: per-copy x/y statistics and the joint all-copies family."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from blochest import evaluator
from blochest.core import PriorKind, build_prior, sample_states
from blochest.evaluator import local_tables
from blochest.quadrature import gauss_legendre
from blochest.schemes import (
    EnumerationLimitError,
    SchemeKind,
    SchemeSpec,
    _log_binom_coefficients,
    binom_log_pmf_matrix,
    check_enumerable,
    collective_k_values,
    collective_log_weight,
)
from oracles import (
    _collective_density,
    binom_log_pmf_matrix_uncached,
    collective_weight_exact,
    log_binom_coefficients_uncached,
)


def _direction_grid(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit sphere nodes and weights for the normalized direction measure."""
    c, wc = gauss_legendre(order)
    phis = 2.0 * math.pi * np.arange(2 * order) / (2 * order)
    s = np.sqrt(1.0 - c**2)
    dirs = np.stack(
        [
            np.outer(s, np.cos(phis)).ravel(),
            np.outer(s, np.sin(phis)).ravel(),
            np.outer(c, np.ones_like(phis)).ravel(),
        ],
        axis=1,
    )
    w = np.outer(wc / 2.0, np.full(phis.shape, 1.0 / len(phis))).ravel()
    return dirs, w


def _random_states(count: int, kind: PriorKind = PriorKind.FULL_BURES) -> list[np.ndarray]:
    rng = np.random.default_rng(1234)
    _, vecs = sample_states(kind, count, rng)
    out = [v for v in vecs]
    out.append(np.zeros(3))                     # maximally mixed
    out.append(np.array([1.0, 0.0, 0.0]))       # pure, equatorial
    if kind is PriorKind.FULL_BURES:
        out.append(np.array([0.0, 0.0, 1.0]))   # pure, off the equator
    return out


def _local_pmf(n: int, state) -> np.ndarray:
    """The (n+1) x (n+1) count law at an equatorial state: the outer product
    of the two binomial tables that the local tables multiply."""
    b = np.exp(binom_log_pmf_matrix(n, 0.5 * (1.0 + np.asarray(state, dtype=float)[:2])))
    return np.outer(b[:, 0], b[:, 1])


class TestLocalProbability:
    def test_single_copy_unbiased(self):
        assert _local_pmf(1, np.zeros(3))[1, 1] == pytest.approx(0.25, abs=1e-15)

    def test_hand_computed_case(self):
        # q_x = 0.9 with both x outcomes up, q_y = 1/2 with both y outcomes
        # down: C(2,2) 0.9^2 * C(2,0) 0.5^2.
        p = _local_pmf(2, np.array([0.8, 0.0, 0.0]))[2, 0]
        assert p == pytest.approx(0.9**2 * 0.5**2, rel=1e-13)

    def test_completeness_five_per_axis(self):
        total = _local_pmf(5, np.array([0.6, 0.3, 0.0])).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_degenerate_axis(self):
        # r_x = 1 makes the x counts deterministic; 0^0 = 1 keeps the
        # distribution well formed.
        pmf = _local_pmf(3, np.array([1.0, 0.0, 0.0]))
        assert pmf[3, 2] > 0.0
        assert pmf[2, 2] == 0.0

    def test_axis_exchange_symmetry(self):
        state = np.array([0.3, -0.5, 0.0])
        sw = np.array([-0.5, 0.3, 0.0])
        np.testing.assert_allclose(_local_pmf(3, state), _local_pmf(3, sw).T, rtol=1e-14, atol=0)

    def test_non_negative_everywhere(self):
        for state in _random_states(10, PriorKind.EQUATORIAL_BURES):
            assert np.all(_local_pmf(4, state) >= 0.0)

    def test_off_equator_state_rejected(self):
        # the local tables integrate the equatorial ensemble only
        with pytest.raises(ValueError, match="equatorial ensemble"):
            local_tables(SchemeSpec(SchemeKind.LOCAL_XY, 2), build_prior(PriorKind.FULL_BURES, 4, 4))


class TestLocalCompleteness:
    @pytest.mark.parametrize("n_per_axis", [1, 2, 5, 10])
    def test_many_states(self, n_per_axis):
        q = 0.5 * (1.0 + np.array(_random_states(20, PriorKind.EQUATORIAL_BURES)))
        bx = np.exp(binom_log_pmf_matrix(n_per_axis, q[:, 0]))
        by = np.exp(binom_log_pmf_matrix(n_per_axis, q[:, 1]))
        total = np.einsum("is,js->s", bx, by)
        assert np.abs(total - 1.0).max() <= 1e-9


class TestBinomLogPmfMatrix:
    @pytest.mark.parametrize("n", [1, 7, 30])
    def test_against_direct_products(self, n):
        # rows are counts, columns follow the probability array
        qs = np.array([0.07, 0.4, 0.5, 0.93])
        mat = binom_log_pmf_matrix(n, qs)
        assert mat.shape == (n + 1, len(qs))
        for i, q in enumerate(qs):
            for k in range(n + 1):
                direct = math.comb(n, k) * q**k * (1.0 - q) ** (n - k)
                assert math.exp(mat[k, i]) == pytest.approx(direct, rel=1e-10)

    def test_degenerate_probabilities(self):
        mat = binom_log_pmf_matrix(4, np.array([0.0, 1.0]))
        p0 = np.exp(mat[:, 0])
        p1 = np.exp(mat[:, 1])
        assert p0 == pytest.approx([1, 0, 0, 0, 0], abs=1e-300)
        assert p1 == pytest.approx([0, 0, 0, 0, 1], abs=1e-300)


    @given(n=st.integers(0, 2048))
    @example(n=512)
    @example(n=4)
    def test_bit_identical_to_uncached_formula(self, n):
        # the cached log C(n, k) are the per-call lgamma sums, bit for bit
        cached = _log_binom_coefficients(n)
        assert cached.tobytes() == log_binom_coefficients_uncached(n).tobytes()

    @given(
        n=st.integers(0, 8192),
        q=st.lists(
            st.one_of(
                st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53]),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    @example(n=512, q=[0.3, 0.5, 0.99])  # every q inside (0, 1)
    @example(n=4, q=[0.0, 0.5, 1.0])  # the 0^0 = 1 convention
    @example(n=8192, q=[5e-324, 1.0 - 2.0**-53, 0.5])
    def test_matrix_product_within_rounding_of_uncached_formula(self, n, q):
        # The product sums k log q, (n - k) log1p(-q) and log C(n, k) in
        # another order (and possibly fused), so each entry may differ by a
        # few roundings of its terms' magnitudes S; the -inf and 0 entries
        # of the 0^0 = 1 convention must be exact.
        q = np.array(q)
        fast = binom_log_pmf_matrix(n, q)
        slow = binom_log_pmf_matrix_uncached(n, q)
        assert np.array_equal(np.isneginf(fast), np.isneginf(slow))
        assert np.array_equal(fast == 0.0, slow == 0.0)
        rest = np.isfinite(slow) & (slow != 0.0)
        assert np.isfinite(fast[rest]).all()
        k = np.arange(n + 1, dtype=float)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = (
                k * np.abs(np.log(q))
                + (n - k) * np.abs(np.log1p(-q))
                + np.abs(_log_binom_coefficients(n))[:, None]
            )
        assert np.all(np.abs(fast[rest] - slow[rest]) <= 4.0 * 2.0**-53 * scale[rest])

    @pytest.mark.parametrize("q", [0.0, 0.25, 1.0])
    def test_scalar_probability_gives_one_column(self, q):
        mat = binom_log_pmf_matrix(6, q)
        assert mat.shape == (7, 1)
        slow = binom_log_pmf_matrix_uncached(6, np.array([q]))
        np.testing.assert_allclose(mat, slow, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("q", [[0.25], [0.0, 0.25]])
    def test_returned_table_is_the_callers_own(self, q):
        first = binom_log_pmf_matrix(9, np.array(q)).copy()
        binom_log_pmf_matrix(9, np.array(q))[:] = 0.0
        assert np.array_equal(binom_log_pmf_matrix(9, np.array(q)), first)


class TestCollectiveWeight:
    def test_stated_values(self):
        assert collective_weight_exact(2, 2) == 3
        assert collective_weight_exact(2, 1) == 1
        assert math.exp(collective_log_weight(1.0, 2)) == pytest.approx(3.0, rel=1e-14)
        assert math.exp(collective_log_weight(0.0, 2)) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 4, 8, 14, 20])
    def test_top_sector_multiplicity(self, n):
        assert collective_weight_exact(n, n) == n + 1
        assert math.exp(collective_log_weight(n / 2.0, n)) == pytest.approx(n + 1, rel=1e-13)

    def test_log_form_consistent(self):
        for n in (2, 6, 12, 30):
            for k in collective_k_values(n):
                w = collective_weight_exact(n, round(n / 2 + k))
                assert collective_log_weight(float(k), n) == pytest.approx(
                    math.log(w), rel=1e-12
                )

    def test_large_n_stays_finite_in_log_space(self):
        # Direct multiplicities overflow floats near n ~ 1100; the log form
        # must keep working far beyond that.
        val = collective_log_weight(600.0, 2400)
        assert math.isfinite(val)
        assert val == pytest.approx(math.log(collective_weight_exact(2400, 1800)), rel=1e-12)

    def test_k_values_grid(self):
        assert collective_k_values(3).tolist() == [0.5, 1.5]
        assert collective_k_values(4).tolist() == [0.0, 1.0, 2.0]


def _density(n: int, k: float, state, dirs: np.ndarray) -> np.ndarray:
    """p(k, m̂ | r⃗) at each row m̂ of ``dirs``, from log c_k."""
    v = np.asarray(state, dtype=float)
    t = math.sqrt(max(0.0, 1.0 - float(v @ v)))
    return _collective_density(n, float(k), t, dirs @ v)


class TestCollectiveProbability:
    def test_unpolarized_two_copies(self):
        z = np.array([[0.0, 0.0, 1.0]])
        assert _density(2, 0.0, np.zeros(3), z)[0] == pytest.approx(0.25, rel=1e-12)
        assert _density(2, 1.0, np.zeros(3), z)[0] == pytest.approx(0.75, rel=1e-12)

    def test_pure_state_kills_low_sectors(self):
        state = np.array([0.0, 0.0, 1.0])
        m = np.array([[1.0, 0.0, 0.0]])
        for k in (0.0, 1.0):
            assert _density(4, k, state, m)[0] == 0.0
        assert _density(4, 2.0, state, state[None, :])[0] > 0.0

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_completeness_by_quadrature(self, n):
        dirs, w = _direction_grid(24)
        for state in _random_states(4):
            total = sum(float(w @ _density(n, k, state, dirs)) for k in collective_k_values(n))
            assert abs(total - 1.0) <= 1e-9

    def test_four_copies_half_radius_completeness(self):
        dirs, w = _direction_grid(32)
        state = np.array([0.5, 0.0, 0.0])
        total = sum(float(w @ _density(4, k, state, dirs)) for k in collective_k_values(4))
        assert abs(total - 1.0) <= 1e-10

    def test_rotational_covariance(self):
        rng = np.random.default_rng(77)
        angle = 0.7
        c, s = math.cos(angle), math.sin(angle)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        for _ in range(5):
            state = rng.normal(size=3)
            state *= rng.uniform(0, 1) / np.linalg.norm(state)
            m = rng.normal(size=3)
            m /= np.linalg.norm(m)
            for k in (0.0, 1.0, 2.0):
                a = _density(4, k, state, m[None, :])[0]
                b = _density(4, k, rot @ state, (rot @ m)[None, :])[0]
                assert a == pytest.approx(b, rel=1e-12, abs=1e-15)

    def test_non_negative(self):
        dirs, _ = _direction_grid(6)
        for state in _random_states(5):
            for k in collective_k_values(5):
                assert np.all(_density(5, k, state, dirs[::7]) >= 0.0)


class TestEnumerateOutcomes:
    """Exact enumeration's copy-number limit and the even split it needs."""

    def test_enumeration_limit_enforced(self):
        # the evaluator's check and error: one class, re-exported unchanged
        assert evaluator.EnumerationLimitError is EnumerationLimitError
        assert issubclass(EnumerationLimitError, ValueError)
        check_enumerable(50, 50)
        with pytest.raises(EnumerationLimitError, match="exceeds the enumeration limit 50"):
            check_enumerable(200, 50)

    def test_odd_local_copies_rejected(self):
        with pytest.raises(ValueError):
            SchemeSpec(SchemeKind.LOCAL_XY, 3)


class TestSchemeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SchemeSpec(SchemeKind.LOCAL_XY, 0)
        with pytest.raises(ValueError):
            SchemeSpec(SchemeKind.COLLECTIVE, -2)

    def test_local_splits_copies_evenly(self):
        spec = SchemeSpec(SchemeKind.LOCAL_XY, 8)
        assert spec.total_copies == 8
