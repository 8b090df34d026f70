"""Scaled modified Bessel functions of fractional order, on numpy arrays.

The rate constant xi_o reads I_nu at nu = ±1/4 and K_nu at nu = 1/4 inside
integrands that multiply them against e^(±x), so each function returns the
scaled value, finite at every x > 0:

* ``bessel_i``       -- e^(-x) I_nu(x): ascending series for x <= 50,
                        asymptotic expansion beyond;
* ``bessel_k``       -- e^x K_nu(x): connection formula through I_{±nu} for
                        x < 2, an exponentially convergent trapezoidal
                        integral representation for x >= 2;
* ``bessel_i_tail``  -- the sum S_nu(x) of the asymptotic expansion's
                        correction terms, which the b1 integrand needs on
                        its own.

Each maps an array of abscissae elementwise (:func:`join_branches`), so an
element's value does not depend on the other elements of the call, bit for
bit: the adaptive integrator evaluates panels in batches.  The test-suite
pins the accuracy (near machine precision on the stated domains) against
mpmath.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "bessel_i",
    "bessel_i_tail",
    "bessel_k",
]


_I_SERIES_CUT = 50.0
_K_CONNECTION_CUT = 2.0
# Fixed lengths: at x = 50 the 62nd ascending-series term falls below 1e-18
# of the sum, at x = 2 the 13th; the 24th asymptotic term falls below 1e-23
# of S.  The trapezoid's integrand falls below e^(-45) at
# t = acosh(1 + 45/x), within 16 steps at every x >= 2.
_I_SERIES_TERMS = 64
_K_SERIES_TERMS = 16
_I_TAIL_TERMS = 24
_K_STEPS = np.arange(1.0, 17.0)


@functools.cache
def _series_ratios(nu: float, terms: int) -> np.ndarray:
    # 1 / (k (k + nu)) for k = 1, ..., terms - 1
    k = np.arange(1.0, terms)
    ratios = 1.0 / (k * (k + nu))
    ratios.flags.writeable = False
    return ratios


def _i_series(nu: float, x: np.ndarray, terms: int) -> np.ndarray:
    # unscaled I_nu(x) = (x/2)^nu / Gamma(nu + 1) sum_(k < terms) t_k with
    # t_0 = 1 and t_k = t_(k-1) (x/2)^2 / (k (k + nu)); all terms positive,
    # no cancellation.  x^nu 2^-nu, as x/2 rounds to 0 at the least subnormal.
    half = 0.5 * x
    t = np.cumprod((half * half)[..., None] * _series_ratios(nu, terms), axis=-1)
    return (1.0 + t.sum(axis=-1)) * (x**nu * (0.5**nu / math.gamma(nu + 1.0)))


def bessel_i_tail(nu: float, x) -> np.ndarray:
    """S_nu(x) = sqrt(2 pi x) e^(-x) I_nu(x) - 1 by its asymptotic series.

    S_nu(x) = sum_(k>=1) prod_(j<=k) ((2j-1)^2 - 4 nu^2) / (8 j x), summed
    over the first 24 terms; meant for x > 50, where the terms shrink fast.
    ``bessel_i`` reads (1 + S)/sqrt(2 pi x) there; the b1 integrand needs
    S itself, which forming 1 + S first would lose to round-off.
    """
    k = np.arange(1.0, _I_TAIL_TERMS + 1)
    ratios = ((2.0 * k - 1.0) ** 2 - 4.0 * nu * nu) / (8.0 * k * np.asarray(x, dtype=float)[..., None])
    return np.cumprod(ratios, axis=-1).sum(axis=-1)


def join_branches(below: np.ndarray, x: np.ndarray, cut: float, low, high) -> np.ndarray:
    """low(min(x, cut)) where ``below`` holds, high(max(x, cut)) elsewhere.

    Both branches map arrays elementwise and run on every element, at
    abscissae clamped to their side of ``cut``, so no element's value
    depends on the others and a discarded branch cannot overflow; a branch
    that no element takes is skipped.
    """
    if below.all():
        return low(np.minimum(x, cut))
    if not below.any():
        return high(np.maximum(x, cut))
    return np.where(below, low(np.minimum(x, cut)), high(np.maximum(x, cut)))


def bessel_i(nu: float, x) -> np.ndarray:
    """e^(-x) I_nu(x), elementwise, for x > 0 and real order nu > -1."""
    x = np.asarray(x, dtype=float)
    if nu <= -1.0 or not (x > 0.0).all():
        raise ValueError("bessel_i requires nu > -1 and x > 0")
    return join_branches(
        x <= _I_SERIES_CUT, x, _I_SERIES_CUT,
        lambda small: _i_series(nu, small, _I_SERIES_TERMS) * np.exp(-small),
        lambda large: (1.0 + bessel_i_tail(nu, large)) / np.sqrt(2.0 * np.pi * large),
    )


def _k_connection(nu: float, x: np.ndarray) -> np.ndarray:
    # e^x K_nu = e^x pi/2 (I_{-nu} - I_nu)/sin(nu pi); the cancellation is
    # mild for x < 2
    difference = _i_series(-nu, x, _K_SERIES_TERMS) - _i_series(nu, x, _K_SERIES_TERMS)
    return 0.5 * math.pi * difference / math.sin(nu * math.pi) * np.exp(x)


def _k_trapezoid(nu: float, x: np.ndarray) -> np.ndarray:
    # e^x K_nu(x) = int_0^inf e^{-x (cosh t - 1)} cosh(nu t) dt.
    # The integrand is smooth and decays doubly exponentially, so the
    # trapezoidal rule converges exponentially fast in the step size.
    # cosh t - 1 = 2 sinh^2(t/2), which keeps its digits at the small steps
    # t ~ sqrt(0.58/x) of large x, where cosh t - 1 would cancel
    h = np.minimum(0.25, np.sqrt(0.58 / x))
    t = h[..., None] * _K_STEPS
    nodes = np.exp(-2.0 * x[..., None] * np.square(np.sinh(0.5 * t))) * np.cosh(nu * t)
    return (0.5 + nodes.sum(axis=-1)) * h  # t = 0: integrand 1, half weight


def bessel_k(nu: float, x) -> np.ndarray:
    """e^x K_nu(x), elementwise, for x > 0 and non-integer order 0 < |nu| < 1."""
    nu = abs(nu)
    x = np.asarray(x, dtype=float)
    if not 0.0 < nu < 1.0 or not (x > 0.0).all():
        raise ValueError("bessel_k requires 0 < |nu| < 1 and x > 0")
    return join_branches(
        x < _K_CONNECTION_CUT, x, _K_CONNECTION_CUT,
        lambda small: _k_connection(nu, small),
        lambda large: _k_trapezoid(nu, large),
    )
