"""Special functions against high-precision oracles (mpmath, test-only dep)."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from blochest.special import bessel_i, bessel_i_tail, bessel_k
from blochest.schemes import _log_binom_coefficients

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


BESSEL_GRID = [1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 49.0, 60.0, 200.0, 600.0]


class TestBessel:
    @pytest.mark.parametrize("nu", [0.25, 1.25])
    @pytest.mark.parametrize("x", [60.0, 600.0, 1e4])
    def test_tail_against_oracle(self, nu, x):
        # S itself, not 1 + S: the b1 integrand reads it past x = 500
        ref = float(mp.sqrt(2 * mp.pi * x) * mp.exp(-x) * mp.besseli(nu, x) - 1)
        assert bessel_i_tail(nu, x) == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("nu", [0.25, 1.25])
    @pytest.mark.parametrize("x", BESSEL_GRID)
    def test_i_scaled_against_oracle(self, nu, x):
        ref = float(mp.besseli(nu, x) * mp.exp(-x))
        assert bessel_i(nu, x, scaled=True) == pytest.approx(ref, rel=2e-12)

    @pytest.mark.parametrize("nu", [0.25, 1.25])
    @pytest.mark.parametrize("x", BESSEL_GRID)
    def test_k_scaled_against_oracle(self, nu, x):
        ref = float(mp.besselk(nu, x) * mp.exp(x))
        assert bessel_k(nu, x, scaled=True) == pytest.approx(ref, rel=2e-12)

    @pytest.mark.parametrize("nu", [0.25, 1.25])
    @pytest.mark.parametrize("x", [0.1, 1.0, 30.0])
    def test_unscaled_consistent(self, nu, x):
        assert bessel_i(nu, x) == pytest.approx(
            bessel_i(nu, x, scaled=True) * math.exp(x), rel=1e-13
        )
        assert bessel_k(nu, x) == pytest.approx(
            bessel_k(nu, x, scaled=True) * math.exp(-x), rel=1e-13
        )

    @pytest.mark.parametrize("x", [0.5, 1.0, 5.0, 20.0])
    def test_wronskian_stated_points(self, x):
        w = bessel_i(0.25, x) * bessel_k(1.25, x) + bessel_i(1.25, x) * bessel_k(0.25, x)
        assert abs(x * w - 1.0) <= 1e-10

    def test_wronskian_log_grid(self):
        # Same identity over a wide logarithmic grid, evaluated through the
        # scaled forms so the exponentials cancel analytically.
        for x in np.geomspace(1e-2, 600.0, 41):
            w = bessel_i(0.25, x, scaled=True) * bessel_k(1.25, x, scaled=True)
            w += bessel_i(1.25, x, scaled=True) * bessel_k(0.25, x, scaled=True)
            assert abs(x * w - 1.0) <= 1e-10
