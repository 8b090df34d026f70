"""Asymptotic rate constants and decay-exponent fits.

The large-copy-number laws for the mean estimation fidelity compared in
this package are

    collective optimal:        1 - F ~ (3/4 + 4/(3 pi)) / N
    local x/y, ML guess:       1 - F ~ xi_ml / N^(3/4)
    local x/y, optimal guess:  1 - F ~ xi_o  / N^(3/4)

xi_ml is a closed form in Gamma(1/4); xi_o is assembled from three
half-line integrals b1, b2, b3 whose integrands combine exp(x) with the
imaginary part of K_(1/4) continued to negative argument and with
complementary-error-function tails; they are elementwise array functions.
Gamma and erfc come from ``math``, the scaled modified Bessel functions from
:mod:`blochest.special`, and the adaptive integrator from
:mod:`blochest.quadrature`.

:func:`fit_exponent` extracts (exponent, coefficient) pairs from measured
fidelity sweeps so the laws above can be checked against direct numerics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import integrate_half_line
from .special import bessel_i, bessel_i_tail, bessel_k, join_branches

__all__ = [
    "AsymptoticConstants",
    "ExponentFit",
    "DegenerateSweepError",
    "b1_integrand",
    "b2_integrand",
    "b3_integrand",
    "appendix_integrals",
    "assemble_xi_o",
    "constants",
    "fit_exponent",
]

class DegenerateSweepError(ValueError):
    """Raised when a sweep cannot support a decay-law fit."""


def assemble_xi_o(b1: float, b2: float, b3: float) -> float:
    """The local-optimal rate constant from the three tail integrals.

    xi_o = Gamma(1/4)^2 / (48 pi) * (4 b1 + b2 - sqrt(2) b3).  This is the
    only place the combination is formed, so any xi_o in the package is
    bit-for-bit reproducible from its (b1, b2, b3).
    """
    return math.gamma(0.25) ** 2 / (48.0 * math.pi) * (4.0 * b1 + b2 - math.sqrt(2.0) * b3)


@dataclass(frozen=True)
class AsymptoticConstants:
    """The six rate constants; construction enforces the assembly identity."""

    collective_coeff: float
    xi_ml: float
    xi_o: float
    b1: float
    b2: float
    b3: float

    def __post_init__(self):
        if self.xi_o != assemble_xi_o(self.b1, self.b2, self.b3):
            raise ValueError("xi_o must equal the single-path assembly from (b1, b2, b3)")
        if not self.xi_o < self.xi_ml:
            raise ValueError("the optimal-guess constant must lie below the ML constant")


@dataclass(frozen=True)
class ExponentFit:
    """Power-law fit 1 - F = coefficient / N^exponent over a sweep."""

    exponent: float
    coefficient: float
    residual: float
    n_range: tuple[int, int]

    def __post_init__(self):
        if self.residual < 0.0:
            raise ValueError("residual must be nonnegative")


def _im_scaled(x) -> np.ndarray:
    """e^(-x) Im K_(1/4)(x e^(i pi)), elementwise for x > 0.

    K_nu(x e^(i pi)) = e^(-i nu pi) K_nu(x) - i pi I_nu(x) on the principal
    branch, and K_nu = (pi/2) (I_(-nu) - I_nu) / sin(nu pi), so the
    imaginary part is -(pi/2) (I_(-1/4)(x) + I_(1/4)(x)): no K, strictly
    negative, and growing like -pi e^x / sqrt(2 pi x).
    """
    return -0.5 * math.pi * (bessel_i(-0.25, x) + bessel_i(0.25, x))


# Past x = 50, bessel_i reads I_(-1/4) and I_(1/4) from one asymptotic
# series (their difference, a multiple of e^(-2x) K, is below double
# precision), so ImK = -pi (1 + S)/sqrt(2 pi x), S = bessel_i_tail(1/4, x),
# and the b1 integrand is sqrt(2/pi) x^(-1/4) S/(1+S).  Beyond this point it
# is evaluated in that form, which stays accurate long after the naive
# difference of the two O(x^(-1/4)) pieces has sunk into round-off.
_B1_TAIL_SWITCH = 500.0

_erfc = np.vectorize(math.erfc, otypes=[float])  # numpy has no erfc


def b1_integrand(x) -> np.ndarray:
    """e^x / (x^(3/4) ImK) + sqrt(2)/(sqrt(pi) x^(1/4)), elementwise; 0 at x <= 0.

    The two pieces diverge separately as x -> inf and must be combined
    before integrating; written with the scaled ImK so e^x never
    materializes.
    """
    x = np.asarray(x, dtype=float)
    positive = x > 0.0
    head = np.where(positive, x, 1.0)
    values = join_branches(head < _B1_TAIL_SWITCH, head, _B1_TAIL_SWITCH, _b1_direct, _b1_combined)
    return np.where(positive, values, 0.0)


def _b1_direct(x: np.ndarray) -> np.ndarray:
    return 1.0 / (x**0.75 * _im_scaled(x)) + math.sqrt(2.0) / (math.sqrt(math.pi) * x**0.25)


def _b1_combined(x: np.ndarray) -> np.ndarray:
    s = bessel_i_tail(0.25, x)
    return math.sqrt(2.0 / math.pi) * x**-0.25 * s / (1.0 + s)


def _erfc_integrand(x, form) -> np.ndarray:
    # form(e, x) with e = erfc(sqrt(2x)) where e is nonzero at x > 0, else 0
    x = np.asarray(x, dtype=float)
    e = _erfc(np.sqrt(2.0 * np.maximum(x, 0.0)))
    live = (x > 0.0) & (e > 0.0)
    return np.where(live, form(e, np.where(live, x, 1.0)), 0.0)


def b2_integrand(x) -> np.ndarray:
    """e^x (erfc(sqrt(2x)) - 4) erfc(sqrt(2x)) / (x^(3/4) ImK), elementwise.

    The erfc factor decays like e^(-2x), so one plain erfc value is safe
    and the whole integrand dies exponentially: 0 where erfc underflows,
    and at x <= 0.
    """
    return _erfc_integrand(x, lambda e, x: (e - 4.0) * e / (x**0.75 * _im_scaled(x)))


def b3_integrand(x) -> np.ndarray:
    """e^x erfc(sqrt(2x))^2 / (x^(3/4) K_(1/4)(x)), elementwise.

    Formed as E^2 / (x^(3/4) e^x K) with E = e^x erfc(sqrt(2x)); decays
    like e^(-2x).  erfc underflows (from x ~ 370) long before e^x
    overflows (x ~ 710), so E is formed only while erfc is nonzero; the
    integrand is 0 beyond, and at x <= 0.
    """
    return _erfc_integrand(x, lambda e, x: np.square(np.exp(x) * e) / (x**0.75 * bessel_k(0.25, x)))


# Split point for b1: quadrature below, analytic series tail above.
_B1_CUT = 1e6
# Subdivision budget of each appendix integral.
_APPENDIX_LIMIT = 900


def _b1_analytic_tail(x_cut: float) -> float:
    """integral_(x_cut)^inf of the combined b1 integrand, by its series.

    Termwise integration of sqrt(2/pi) x^(-1/4) (c1/x + c2/x^2 + c3/x^3):
    the c_k come from expanding S/(1+S) = S - S^2 + S^3 - ... with the
    series of :func:`blochest.special.bessel_i_tail` (c1 = 3/32, c2 = 87/2048,
    c3 = 8667/196608).  At x_cut = 1e6 the first omitted term is below
    1e-18, far inside any requested tolerance.
    """
    c1 = 3.0 / 32.0
    c2 = 87.0 / 2048.0
    c3 = 8667.0 / 196608.0
    return math.sqrt(2.0 / math.pi) * (
        4.0 * c1 * x_cut**-0.25
        + (4.0 / 5.0) * c2 * x_cut**-1.25
        + (4.0 / 9.0) * c3 * x_cut**-2.25
    )


def appendix_integrals(abs_tol: float = 1e-6) -> tuple[float, float, float]:
    """The three half-line tail integrals (b1, b2, b3) behind xi_o.

    Each is integrated over (0, inf) after the x = t/(1-t) change of
    variables, with adaptive subdivision grading the mesh into the
    x^(-1/2)-type endpoint singularity at 0.  b2 and b3 die exponentially
    and converge to the requested tolerance outright.  b1's integrand only
    decays like x^(-5/4), which the mapped variable turns into a
    (1-t)^(-3/4) endpoint singularity that double precision cannot grade
    into; its x > 1e6 tail is therefore added analytically from the same
    cancellation-structure series the large-x integrand evaluation uses,
    with truncation error ~1e-18.  ``abs_tol`` bounds each integral's
    estimated absolute error (b1's head gets half of it), within
    ``_APPENDIX_LIMIT`` subintervals each.
    """
    b1_head = integrate_half_line(
        b1_integrand, abs_tol=0.5 * abs_tol, limit=_APPENDIX_LIMIT, x_max=_B1_CUT
    )
    b1 = b1_head.value + _b1_analytic_tail(_B1_CUT)
    b2 = integrate_half_line(b2_integrand, abs_tol=abs_tol, limit=_APPENDIX_LIMIT).value
    b3 = integrate_half_line(b3_integrand, abs_tol=abs_tol, limit=_APPENDIX_LIMIT).value
    return b1, b2, b3


def constants() -> AsymptoticConstants:
    """All six rate constants, computed from scratch.

    collective_coeff is the closed form 3/4 + 4/(3 pi); xi_ml the closed
    form Gamma(1/4)^3 / (2^(5/4) 9 pi^2); xi_o is assembled from freshly
    integrated (b1, b2, b3).
    """
    b1, b2, b3 = appendix_integrals()
    return AsymptoticConstants(
        collective_coeff=0.75 + 4.0 / (3.0 * math.pi),
        xi_ml=math.gamma(0.25) ** 3 / (2.0**1.25 * 9.0 * math.pi**2),
        xi_o=assemble_xi_o(b1, b2, b3),
        b1=b1,
        b2=b2,
        b3=b3,
    )


def fit_exponent(points) -> ExponentFit:
    """Least-squares power-law fit of a fidelity sweep.

    Fits log(1 - F) = log(coefficient) - exponent * log(N) over ``points``,
    an iterable of (N, fidelity) or (N, report) pairs, where a report is
    anything with a ``fidelity`` attribute, such as a
    :class:`~blochest.evaluator.FidelityReport`.
    Needs at least 4 points, strictly increasing N, every F < 1, and
    log(1 - F) non-increasing (a decay law); otherwise raises
    :class:`DegenerateSweepError`.
    """
    pairs = [(float(n), float(getattr(f, "fidelity", f))) for n, f in points]
    if len(pairs) < 4:
        raise DegenerateSweepError("need at least 4 sweep points for a fit")
    ns = np.array([n for n, _ in pairs])
    fs = np.array([f for _, f in pairs])
    if np.any(np.diff(ns) <= 0):
        raise DegenerateSweepError("sweep copy numbers must be strictly increasing")
    if np.any(fs >= 1.0):
        raise DegenerateSweepError("fit needs F < 1 at every point")
    y = np.log1p(-fs)
    if np.any(np.diff(y) > 1e-12):
        raise DegenerateSweepError("log(1 - F) must be non-increasing across the sweep")
    x = np.log(ns)
    slope, intercept = np.polyfit(x, y, 1)
    fit_y = slope * x + intercept
    residual = float(np.sqrt(np.mean((y - fit_y) ** 2)))
    return ExponentFit(
        exponent=float(-slope),
        coefficient=float(math.exp(intercept)),
        residual=residual,
        n_range=(int(round(ns[0])), int(round(ns[-1]))),
    )
