"""Special functions against high-precision oracles (mpmath, test-only dep)."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from blochest.special import (
    bessel_i,
    bessel_k,
    erfc_fn,
    erfcx_fn,
    gamma_fn,
    log_gamma,
    scaled_erfc_product,
)
from blochest.schemes import _log_binom_coefficients

mp.mp.dps = 30


class TestGamma:
    def test_half_integer(self):
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)

    def test_factorial(self):
        assert gamma_fn(5.0) == pytest.approx(24.0, rel=1e-14)

    @pytest.mark.parametrize("x", [0.1, 0.25, 0.75, 1.25, 2.5, 7.3, 15.0, 41.5])
    def test_against_oracle(self, x):
        assert gamma_fn(x) == pytest.approx(float(mp.gamma(x)), rel=1e-13)

    @pytest.mark.parametrize("x", [0.25, 1.0, 12.5, 100.0, 1000.5, 1e6])
    def test_log_form(self, x):
        assert log_gamma(x) == pytest.approx(float(mp.loggamma(x)), rel=1e-13, abs=1e-13)

    def test_quarter_value_used_by_constants(self):
        # Gamma(1/4) enters every asymptotic prefactor; pin it hard.
        assert gamma_fn(0.25) == pytest.approx(3.6256099082219083119, rel=1e-14)


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


class TestErfc:
    def test_at_zero(self):
        assert erfc_fn(0.0) == 1.0

    @pytest.mark.parametrize("x", [0.1, 0.7, 1.3, 2.9, 4.2])
    def test_reflection_sums_to_two(self, x):
        assert erfc_fn(x) + erfc_fn(-x) == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("x", [-5.0, -1.0, 0.0, 0.3, 1.0, 2.0, 5.0, 10.0, 20.0, 26.0])
    def test_against_oracle(self, x):
        # Worst case sits at the series/continued-fraction crossover (9e-14
        # relative at x = 2); the contract promises 1e-13.
        assert erfc_fn(x) == pytest.approx(float(mp.erfc(x)), rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("x", [0.0, 0.5, 1.0, 3.0, 10.0, 40.0, 100.0])
    def test_scaled_form_against_oracle(self, x):
        ref = float(mp.erfc(x) * mp.exp(x * x))
        assert erfcx_fn(x) == pytest.approx(ref, rel=5e-14)


def _scaled_product_series(x: float) -> float:
    """Asymptotic series for e^x erfc(sqrt(2x)): e^(-x)/sqrt(2 pi x) times
    sum (-1)^k (2k-1)!! / (4x)^k.  Truncation error < 1e-10 for x >= 50."""
    total, term = 1.0, 1.0
    for k in range(1, 8):
        term *= -(2 * k - 1) / (4.0 * x)
        total += term
    return math.exp(-x) / math.sqrt(2.0 * math.pi * x) * total


class TestScaledErfcProduct:
    def test_at_zero(self):
        assert scaled_erfc_product(0.0) == 1.0

    @pytest.mark.parametrize("x", [0.2, 1.0, 10.0, 100.0])
    def test_matches_direct_product(self, x):
        direct = math.exp(x) * float(mp.erfc(mp.sqrt(2 * x)))
        assert scaled_erfc_product(x) == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("x", [50.0, 120.0, 300.0, 500.0, 700.0])
    def test_no_overflow_and_series_agreement(self, x):
        val = scaled_erfc_product(x)
        assert math.isfinite(val) and val > 0.0
        assert val == pytest.approx(_scaled_product_series(x), rel=1e-8)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            scaled_erfc_product(-0.1)


BESSEL_GRID = [1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 49.0, 60.0, 200.0, 600.0]


class TestBessel:
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
