"""Special functions against high-precision oracles (mpmath, test-only dep)."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given

from blochest.special import bessel_i, bessel_i_tail, bessel_k
from blochest.schemes import _log_binom_coefficients
from oracles import assert_batch_independent, batch_abscissae, float_neighbours

mp.mp.dps = 30


class TestLogBinomial:
    """log C(n, k) as the binomial tables read it (``schemes._log_binom_coefficients``)."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 40, 64])
    def test_matches_exact_combinatorics(self, n):
        vals = _log_binom_coefficients(n)
        for k in range(n + 1):
            assert vals[k] == pytest.approx(math.log(math.comb(n, k)), rel=1e-13, abs=1e-13)

    def test_vectorized_argument(self):
        ks = np.arange(0, 21)
        vals = _log_binom_coefficients(20)
        ref = [math.log(math.comb(20, int(k))) for k in ks]
        assert vals.shape == ks.shape
        assert np.allclose(vals, ref, rtol=1e-13, atol=1e-13)


# The branch switches: the connection formula for K below x = 2, the
# ascending series for I up to x = 50, each checked on both sides.
BESSEL_GRID = [
    1e-3, 0.01, 0.1, 0.5, 1.0, *float_neighbours(2.0), 5.0, 10.0, 20.0, 49.0,
    *float_neighbours(50.0), 60.0, 200.0, 600.0,
]


class TestBessel:
    @pytest.mark.parametrize("nu", [0.25, 1.25])
    @pytest.mark.parametrize("x", [math.nextafter(50.0, math.inf), 60.0, 600.0, 1e4])
    def test_tail_against_oracle(self, nu, x):
        # S itself, not 1 + S: the b1 integrand reads it past x = 500
        ref = float(mp.sqrt(2 * mp.pi * x) * mp.exp(-x) * mp.besseli(nu, x) - 1)
        assert float(bessel_i_tail(nu, x)) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("nu", [-0.25, 0.25, 1.25])
    @pytest.mark.parametrize("x", BESSEL_GRID)
    def test_i_scaled_against_oracle(self, nu, x):
        ref = float(mp.besseli(nu, x) * mp.exp(-x))
        assert float(bessel_i(nu, x)) == pytest.approx(ref, rel=2e-12)

    @pytest.mark.parametrize("nu", [0.25])
    @pytest.mark.parametrize("x", BESSEL_GRID)
    def test_k_scaled_against_oracle(self, nu, x):
        ref = float(mp.besselk(nu, x) * mp.exp(x))
        assert float(bessel_k(nu, x)) == pytest.approx(ref, rel=2e-12)

    @pytest.mark.parametrize("x", [1e4, 1e6, 1e8])
    def test_k_scaled_at_large_abscissae(self, x):
        # the trapezoid's steps shrink like 1/sqrt(x) there; measured within
        # 3.4e-15 of the 30-digit value at 1e4, 1e6 and 1e8
        ref = float(mp.besselk(0.25, x) * mp.exp(x))
        assert abs(float(bessel_k(0.25, x)) - ref) <= 1e-14 * ref

    @staticmethod
    def _wronskian(x: float) -> float:
        # x (I_(1/4) K_(5/4) + I_(5/4) K_(1/4)) = 1, through the scaled forms
        # so the exponentials cancel; the order-5/4 partners come from mpmath
        i54 = float(mp.besseli(1.25, x) * mp.exp(-x))
        k54 = float(mp.besselk(1.25, x) * mp.exp(x))
        return x * (float(bessel_i(0.25, x)) * k54 + i54 * float(bessel_k(0.25, x)))

    @pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 20.0])
    def test_wronskian_stated_points(self, x):
        assert abs(self._wronskian(x) - 1.0) <= 1e-10

    def test_wronskian_log_grid(self):
        # Same identity over a wide logarithmic grid.
        for x in np.geomspace(1e-2, 600.0, 41):
            assert abs(self._wronskian(float(x)) - 1.0) <= 1e-10

    def test_array_shape_kept(self):
        xs = np.array([[0.5, 2.0, 60.0], [1e-3, 49.0, 600.0]])
        for values in (bessel_i(0.25, xs), bessel_k(0.25, xs), bessel_i_tail(0.25, xs + 50.0)):
            assert values.shape == xs.shape
        assert bessel_i(0.25, 3.0).shape == ()

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_abscissae(self, x):
        with pytest.raises(ValueError):
            bessel_i(0.25, [1.0, x])
        with pytest.raises(ValueError):
            bessel_k(0.25, [1.0, x])

    @pytest.mark.parametrize("nu", [0.0, 1.0, 1.25, -1.5])
    def test_k_rejects_orders_outside_unit_interval(self, nu):
        with pytest.raises(ValueError):
            bessel_k(nu, 1.0)

    def test_i_rejects_orders_at_or_below_minus_one(self):
        with pytest.raises(ValueError):
            bessel_i(-1.0, 1.0)


class TestBatchIndependence:
    """An element's value does not depend on the rest of the array."""

    @given(batch_abscissae)
    def test_bessel_i(self, xs):
        xs = [x for x in xs if x > 0.0] or [1.0]
        assert_batch_independent(lambda x: bessel_i(-0.25, x), xs)
        assert_batch_independent(lambda x: bessel_i(0.25, x), xs)

    @given(batch_abscissae)
    def test_bessel_k(self, xs):
        xs = [x for x in xs if x > 0.0] or [1.0]
        assert_batch_independent(lambda x: bessel_k(0.25, x), xs)

    @given(batch_abscissae)
    def test_bessel_i_tail(self, xs):
        xs = [x for x in xs if x > 50.0] or [60.0]
        assert_batch_independent(lambda x: bessel_i_tail(0.25, x), xs)
