"""Rate constants: tail integrals, closed forms, and power-law fitting."""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
import pytest

from blochest.asymptotics import (
    AsymptoticConstants,
    DegenerateSweepError,
    _im_scaled,
    appendix_integrals,
    assemble_xi_o,
    b1_integrand,
    b2_integrand,
    b3_integrand,
    constants,
    fit_exponent,
)

mp.mp.dps = 40

# Nine-digit anchors for the published values the integrals must reproduce.
B1_PRINTED, B2_PRINTED, B3_PRINTED = 0.197241, 1.61451, 0.31400
XI_O_PRINTED = 0.17083
XI_ML_PRINTED = 0.2256
COLLECTIVE_PRINTED = 1.17441


def _imk_oracle(x: float) -> float:
    """e^(-x) Im K_(1/4)(x e^(i pi)), to 40 digits."""
    x = mp.mpf(x)
    return float(-mp.e**-x * (mp.sin(mp.pi / 4) * mp.besselk(mp.mpf(1) / 4, x)
                              + mp.pi * mp.besseli(mp.mpf(1) / 4, x)))


def _f1_oracle(x: float) -> float:
    xm = mp.mpf(x)
    imk = -(mp.sin(mp.pi / 4) * mp.besselk(mp.mpf(1) / 4, xm)
            + mp.pi * mp.besseli(mp.mpf(1) / 4, xm))
    return float(mp.e**xm / (xm ** mp.mpf("0.75") * imk)
                 + mp.sqrt(2) / (mp.sqrt(mp.pi) * xm ** mp.mpf("0.25")))


def _f2_oracle(x: float) -> float:
    xm = mp.mpf(x)
    imk = -(mp.sin(mp.pi / 4) * mp.besselk(mp.mpf(1) / 4, xm)
            + mp.pi * mp.besseli(mp.mpf(1) / 4, xm))
    e = mp.erfc(mp.sqrt(2 * xm))
    return float(mp.e**xm * (e - 4) * e / (xm ** mp.mpf("0.75") * imk))


def _f3_oracle(x: float) -> float:
    xm = mp.mpf(x)
    e = mp.erfc(mp.sqrt(2 * xm))
    return float(mp.e**xm * e * e / (xm ** mp.mpf("0.75") * mp.besselk(mp.mpf(1) / 4, xm)))


class TestImKContinuation:
    def test_strictly_negative_on_log_grid(self):
        for x in np.geomspace(1e-3, 600.0, 50):
            assert _im_scaled(float(x)) < 0.0

    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 30.0, 100.0, 600.0])
    def test_against_oracle(self, x):
        assert _im_scaled(x) == pytest.approx(_imk_oracle(x), rel=1e-13)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            _im_scaled(0.0)


class TestTailIntegrands:
    @pytest.mark.parametrize("x", [0.5, 5.0, 30.0, 200.0, 499.0, 501.0, 5000.0, 1e8])
    def test_first_integrand_against_oracle(self, x):
        # spans both evaluation branches; the crossover sits at x = 500
        assert float(b1_integrand(x)) == pytest.approx(_f1_oracle(x), rel=1e-11)

    @pytest.mark.parametrize("x", [0.3, 2.0, 3.0, 10.0, 40.0])
    def test_other_integrands_against_oracle(self, x):
        assert float(b2_integrand(x)) == pytest.approx(_f2_oracle(x), rel=1e-11)
        assert float(b3_integrand(x)) == pytest.approx(_f3_oracle(x), rel=1e-11)

    def test_exponential_integrands_underflow_to_zero(self):
        # erfc(sqrt(2x)) underflows from x ~ 369.6 and e^x overflows past
        # x ~ 709.78: both integrands are 0.0 there without forming e^x
        for x in (372.0, 400.0, 709.0, 710.0, 1e16):
            assert float(b2_integrand(x)) == 0.0
            assert float(b3_integrand(x)) == 0.0

    def test_branch_switch_is_seamless(self):
        # both sides of the x = 500 evaluation switch must sit on the same
        # smooth curve; compare each to the oracle rather than to each other
        # (the integrand itself falls ~5e-6 over this step)
        for x in (499.999, 500.001):
            assert float(b1_integrand(x)) == pytest.approx(_f1_oracle(x), rel=1e-11)

    def test_first_integrand_magnitude_and_decay(self):
        # the combined integrand is small by x = 30 and decays like x^(-5/4)
        assert float(b1_integrand(30.0)) == pytest.approx(1.082072700567649e-3, rel=1e-9)
        assert abs(float(b1_integrand(40.0))) < 1e-3
        mags = [abs(float(b1_integrand(x))) for x in (30.0, 50.0, 100.0, 1000.0)]
        assert mags == sorted(mags, reverse=True)

    def test_integrable_origin(self):
        # x^(-1/2) behaviour at the origin: halving x doubles the value
        assert float(b1_integrand(0.0)) == 0.0
        ratio = float(b1_integrand(1e-8)) / float(b1_integrand(4e-8))
        assert ratio == pytest.approx(2.0, rel=0.02)

    def test_vector_evaluation(self):
        xs = np.array([0.5, 5.0, 0.0, 30.0])
        vals = b1_integrand(xs)
        assert vals.shape == (4,)
        assert vals[2] == 0.0
        assert vals[0] == float(b1_integrand(0.5))


class TestAppendixIntegrals:
    def test_printed_anchors(self, the_constants):
        c = the_constants
        assert c.b1 == pytest.approx(B1_PRINTED, abs=1e-4)
        assert c.b2 == pytest.approx(B2_PRINTED, abs=1e-4)
        assert c.b3 == pytest.approx(B3_PRINTED, abs=1e-4)

    def test_forty_digit_reference(self, the_constants):
        # independently computed high-precision values of the three integrals
        assert the_constants.b1 == pytest.approx(0.1972410668399220, abs=5e-8)
        assert the_constants.b2 == pytest.approx(1.614508535, abs=5e-7)
        assert the_constants.b3 == pytest.approx(0.314003597, abs=5e-7)

    def test_tighter_tolerance_converges(self):
        b1, b2, b3 = appendix_integrals(abs_tol=1e-7)
        assert b1 == pytest.approx(0.1972410668399220, abs=1e-7)
        assert b2 == pytest.approx(1.614508535, abs=1e-7)
        assert b3 == pytest.approx(0.314003597, abs=1e-7)


class TestAssembledConstants:
    def test_xi_o_formula(self):
        # Gamma(1/4)^2/(48 pi) (4 b1 + b2 - sqrt(2) b3) on reference inputs
        val = assemble_xi_o(0.1972410668399220, 1.6145085356, 0.3140035974)
        pref = float(mp.gamma(mp.mpf(1) / 4) ** 2 / (48 * mp.pi))
        ref = pref * (4 * 0.1972410668399220 + 1.6145085356 - math.sqrt(2) * 0.3140035974)
        assert val == pytest.approx(ref, rel=1e-12)

    def test_xi_o_printed(self, the_constants):
        assert the_constants.xi_o == pytest.approx(XI_O_PRINTED, abs=2e-4)

    def test_xi_ml_closed_form(self, the_constants):
        ref = float(mp.gamma(mp.mpf(1) / 4) ** 3 / (2 ** mp.mpf("1.25") * 9 * mp.pi**2))
        assert the_constants.xi_ml == pytest.approx(ref, rel=1e-13)
        assert the_constants.xi_ml == pytest.approx(XI_ML_PRINTED, abs=5e-4)

    def test_collective_coefficient(self, the_constants):
        assert the_constants.collective_coeff == 0.75 + 4.0 / (3.0 * math.pi)
        assert the_constants.collective_coeff == pytest.approx(COLLECTIVE_PRINTED, abs=1e-5)

    def test_assembly_identity_bit_for_bit(self, the_constants):
        c = the_constants
        assert c.xi_o == assemble_xi_o(c.b1, c.b2, c.b3)

    def test_rate_ordering(self, the_constants):
        # the jointly-optimal scheme must beat the boundary-projected one
        assert the_constants.xi_o < the_constants.xi_ml

    def test_inconsistent_assembly_rejected(self, the_constants):
        c = the_constants
        with pytest.raises(ValueError):
            AsymptoticConstants(
                collective_coeff=c.collective_coeff,
                xi_ml=c.xi_ml,
                xi_o=c.xi_o + 1e-6,
                b1=c.b1,
                b2=c.b2,
                b3=c.b3,
            )

    def test_reconstruction_is_deterministic(self, the_constants):
        again = constants()
        assert again == the_constants


class TestFitExponent:
    def test_exact_inverse_law(self):
        pts = [(n, 1.0 - 2.0 / n) for n in (10, 20, 40, 80, 160)]
        fit = fit_exponent(pts)
        assert fit.exponent == pytest.approx(1.0, abs=1e-13)
        assert fit.coefficient == pytest.approx(2.0, rel=1e-12)
        assert fit.residual < 1e-12
        assert fit.n_range == (10, 160)

    def test_exact_fractional_law(self):
        pts = [(n, 1.0 - 0.7 * n**-0.75) for n in (16, 32, 64, 128)]
        fit = fit_exponent(pts)
        assert fit.exponent == pytest.approx(0.75, abs=1e-12)
        assert fit.coefficient == pytest.approx(0.7, rel=1e-11)
        assert fit.residual < 1e-12

    def test_accepts_report_pairs(self, collective_sweep):
        fit = fit_exponent(collective_sweep)
        fit2 = fit_exponent([(n, r.fidelity) for n, r in collective_sweep])
        assert fit.exponent == fit2.exponent

    def test_too_few_points(self):
        with pytest.raises(DegenerateSweepError):
            fit_exponent([(10, 0.9), (20, 0.95), (40, 0.975)])

    def test_non_increasing_n(self):
        with pytest.raises(DegenerateSweepError):
            fit_exponent([(10, 0.9), (20, 0.95), (20, 0.96), (40, 0.97)])

    def test_saturated_fidelity(self):
        with pytest.raises(DegenerateSweepError):
            fit_exponent([(10, 0.9), (20, 0.95), (40, 1.0), (80, 0.99)])

    def test_non_decaying_error(self):
        with pytest.raises(DegenerateSweepError):
            fit_exponent([(10, 0.9), (20, 0.85), (40, 0.95), (80, 0.97)])


class TestSweepExponents:
    def test_collective_rate(self, collective_sweep):
        fit = fit_exponent(collective_sweep)
        assert 0.95 <= fit.exponent <= 1.05

    def test_collective_prefactor_endpoint(self, collective_sweep, the_constants):
        n, report = collective_sweep[-1]
        assert n == 1024
        endpoint = n * (1.0 - report.fidelity)
        assert endpoint == pytest.approx(the_constants.collective_coeff, rel=0.05)

    def test_local_optimal_rate_band(self, local_optimal_sweep):
        fit = fit_exponent(local_optimal_sweep)
        assert 0.65 <= fit.exponent <= 0.85
