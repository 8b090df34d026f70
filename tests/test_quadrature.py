"""Gauss rules, the adaptive panel integrator, and the half-line transform."""

from __future__ import annotations

import math

import numpy as np
import pytest

from blochest import quadrature
from blochest.quadrature import (
    STORED_ORDERS,
    QuadratureError,
    QuadResult,
    adaptive_quad,
    gauss_legendre,
    integrate_half_line,
)
import oracles

# How far numpy's leggauss weights may lie from the exact rule, per stored
# order, as a relative bound: twice the larger of two measured gaps, rounded
# up.  One is the stored weights' error against the reference rule
# (oracles.gauss_legendre_reference, refined in np.longdouble), from 8.2e-16
# at n = 4 to 1.1e-10 at 512 and 6.3e-8 at 2048.  The other is how far they
# move when leggauss's eigenvalues are perturbed by up to 4 eps before its
# Newton step, as another LAPACK build may round them: from 3.8e-15 at n = 4
# to 6.6e-11 at 512 and 2.2e-9 at 2048.  The weights follow the eigenvalues'
# last bits because leggauss evaluates the derivative at the unrefined
# eigenvalues; the nodes moved by at most eps/2.
LEGGAUSS_WEIGHT_ERROR = {
    2: 1e-15, 4: 8e-15, 8: 4e-14, 16: 1e-13, 32: 5e-13, 64: 3e-12,
    128: 3e-11, 256: 6e-11, 512: 3e-10, 1024: 3e-9, 2048: 2e-7,
}


@pytest.fixture
def fresh_rules():
    """Empty the rule caches, so the next lookup reads or computes anew."""
    quadrature._rule.cache_clear()
    quadrature._stored_rules.cache_clear()
    yield
    quadrature._rule.cache_clear()
    quadrature._stored_rules.cache_clear()


class TestGaussLegendre:
    def test_basic_structure(self):
        x, w = gauss_legendre(7)
        assert x.shape == w.shape == (7,)
        assert np.all(np.diff(x) > 0)
        assert np.allclose(x, -x[::-1], atol=1e-15)
        assert w.sum() == pytest.approx(2.0, abs=1e-14)
        assert np.all(w > 0)

    @pytest.mark.parametrize("n", sorted({5, 11, *STORED_ORDERS}))
    def test_polynomial_exactness(self, n):
        # An n-point rule integrates monomials exactly through degree 2n-1
        # (checked up to degree 60).  numpy's weight errors (see
        # LEGGAUSS_WEIGHT_ERROR) show at n = 2048: even an exactly rounded
        # sum (math.fsum) of its 2048-point rule misses the monomials by up
        # to 3.0e-13.
        tol = 1e-13 if n <= 1024 else 1e-12
        x, w = gauss_legendre(n)
        for k in range(min(2 * n - 1, 60) + 1):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            assert float(w @ x**k) == pytest.approx(exact, abs=tol), k

    def test_cached_arrays_read_only(self):
        # a stored order and a computed one
        for n in (4, 37):
            for arr in gauss_legendre(n):
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_order_validated(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)


class TestStoredRules:
    @pytest.mark.parametrize("n", STORED_ORDERS)
    def test_rule_structure(self, n):
        x, w = gauss_legendre(n)
        assert x.shape == w.shape == (n,)
        assert x.dtype == w.dtype == np.float64
        assert np.all(np.diff(x) > 0)
        assert -1.0 < x[0] and x[-1] < 1.0
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("n", STORED_ORDERS)
    def test_matches_reference_rule(self, n):
        # Against a rule that does not depend on numpy's build: the nodes
        # lie within 0.29 eps of it, the weights within the error that
        # LEGGAUSS_WEIGHT_ERROR bounds.
        x, w = gauss_legendre(n)
        xr, wr = oracles.gauss_legendre_reference(n)
        nodes, weights = x[n // 2 :].astype(np.longdouble), w[n // 2 :].astype(np.longdouble)
        assert np.max(np.abs(nodes - xr)) <= np.finfo(np.float64).eps
        assert np.max(np.abs(weights - wr) / wr) <= LEGGAUSS_WEIGHT_ERROR[n]

    @pytest.mark.parametrize("n", STORED_ORDERS)
    def test_agrees_with_installed_leggauss(self, n):
        # Bitwise equal with the numpy the file was written from.  Another
        # build may round its eigenvalue solve differently.  Its nodes then
        # move by at most one ulp of the largest node; when its weights are
        # as accurate as LEGGAUSS_WEIGHT_ERROR says, the two rules' weights
        # differ by at most twice that bound.
        x, w = gauss_legendre(n)
        xn, wn = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - xn)) <= 2 * np.spacing(np.abs(xn).max())
        np.testing.assert_allclose(w, wn, rtol=2 * LEGGAUSS_WEIGHT_ERROR[n], atol=0)

    def test_stored_orders_never_call_leggauss(self, monkeypatch, fresh_rules):
        def refuse(n):
            raise AssertionError(f"leggauss({n}) was called for a stored order")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        for n in STORED_ORDERS:
            x, w = gauss_legendre(n)
            assert x.shape == (n,) and not x.flags.writeable and not w.flags.writeable

    @pytest.mark.parametrize("n", [37, 96])
    def test_other_orders_call_leggauss_once(self, n, monkeypatch, fresh_rules):
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(order):
            calls.append(order)
            return leggauss(order)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        first = gauss_legendre(n)
        second = gauss_legendre(n)
        assert calls == [n]
        assert second[0] is first[0] and second[1] is first[1]
        xn, wn = leggauss(n)
        assert first[0].tobytes() == xn.tobytes() and first[1].tobytes() == wn.tobytes()

    def test_truncated_file_is_refused(self, tmp_path, monkeypatch, fresh_rules):
        short = tmp_path / "gauss_legendre.f64"
        short.write_bytes(quadrature.STORED_PATH.read_bytes()[:-8])
        monkeypatch.setattr(quadrature, "STORED_PATH", short)
        with pytest.raises(RuntimeError, match="expected 4094"):
            gauss_legendre(4)


class TestAdaptiveQuad:
    def test_smooth_exponential(self):
        res = adaptive_quad(np.exp, 0.0, 1.0, abs_tol=1e-12)
        assert isinstance(res, QuadResult)
        assert res.value == pytest.approx(math.e - 1.0, abs=1e-13)
        assert res.error <= 1e-12
        assert res.intervals >= 1

    def test_integrable_endpoint_singularity(self):
        res = adaptive_quad(lambda s: 1.0 / (2.0 * np.sqrt(s)), 0.0, 1.0, abs_tol=1e-9)
        assert res.value == pytest.approx(1.0, abs=5e-9)

    def test_oscillatory(self):
        res = adaptive_quad(lambda x: np.sin(40.0 * x), 0.0, 1.0, abs_tol=1e-12)
        assert res.value == pytest.approx((1.0 - math.cos(40.0)) / 40.0, abs=1e-12)

    def test_initial_splits_hit_interior_kink(self):
        f = lambda x: np.abs(x - 0.3) ** 0.5
        exact = (0.3**1.5 + 0.7**1.5) / 1.5
        res = adaptive_quad(f, 0.0, 1.0, abs_tol=1e-10, initial_splits=(0.3,))
        assert res.value == pytest.approx(exact, abs=1e-9)

    def test_limit_exhaustion_reports_partial_result(self):
        # A hard singularity with an absurdly small panel budget must fail
        # loudly and carry the best value/error pair in the exception.
        with pytest.raises(QuadratureError) as exc:
            adaptive_quad(lambda s: 1.0 / np.sqrt(np.abs(s)), 0.0, 1.0,
                          abs_tol=1e-14, limit=4)
        assert exc.value.value is not None
        assert exc.value.error is not None
        assert str(exc.value.value) in str(exc.value)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            adaptive_quad(np.exp, 1.0, 0.0)


class TestIntegrateHalfLine:
    def test_unit_exponential(self):
        res = integrate_half_line(lambda x: np.exp(-x), abs_tol=1e-11)
        assert res.value == pytest.approx(1.0, abs=1e-11)

    def test_gamma_moment(self):
        res = integrate_half_line(lambda x: x**3 * np.exp(-x), abs_tol=1e-10)
        assert res.value == pytest.approx(6.0, abs=1e-9)

    def test_heavy_tail(self):
        # x^(-2) tail: integral of 1/(1+x)^2 from 0 to infinity is 1.
        res = integrate_half_line(lambda x: 1.0 / (1.0 + x) ** 2, abs_tol=1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_x_max_truncates(self):
        # With a cutoff the transform integrates [0, x_max] only.
        res = integrate_half_line(lambda x: np.exp(-x), abs_tol=1e-11, x_max=2.0)
        assert res.value == pytest.approx(1.0 - math.exp(-2.0), abs=1e-10)

    def test_gaussian_half_line(self):
        res = integrate_half_line(lambda x: np.exp(-0.5 * x * x), abs_tol=1e-10)
        assert res.value == pytest.approx(math.sqrt(0.5 * math.pi), abs=1e-9)
