"""Modified Bessel functions of fractional order, on top of ``math``.

The asymptotic-constant computations need I_nu and K_nu at nu = 1/4 (and
the Wronskian partner nu = 5/4), including scaled variants that stay
finite when multiplied against e^x inside integrands:

* ``bessel_i``                   -- ascending series (x <= 50), asymptotic
                                    expansion beyond;
* ``bessel_k``                   -- connection formula through I_{±nu} for
                                    x < 2, an exponentially convergent
                                    trapezoidal integral representation for
                                    x >= 2, and forward recurrence in the
                                    order for nu > 1;
* ``bessel_i_tail``              -- the sum S_nu(x) of the asymptotic
                                    expansion's correction terms, which the
                                    b1 integrand needs on its own.

Gamma, log Gamma and erfc come from the standard library's ``math``.
All functions accept scalars; accuracy targets (relative 1e-10 on (0, 50]
for the unscaled functions, near machine precision for the scaled ones on
their stated domains) are pinned by the test-suite against independent
references.
"""

from __future__ import annotations

import math

__all__ = [
    "bessel_i",
    "bessel_i_tail",
    "bessel_k",
]


_I_SERIES_CUT = 50.0


def _bessel_i_series(nu: float, x: float) -> float:
    # ascending series: sum_k (x/2)^(2k+nu) / (k! Gamma(k + nu + 1));
    # all terms positive, no cancellation.  Valid for nu > -1.
    if nu <= -1.0:
        raise ValueError("series requires nu > -1")
    x2 = 0.25 * x * x
    term = math.exp(nu * math.log(0.5 * x) - math.lgamma(nu + 1.0))
    total = term
    k = 0
    while True:
        k += 1
        term *= x2 / (k * (k + nu))
        total += term
        if term < 1e-18 * total:
            break
        if k > 600:  # pragma: no cover
            break
    return total


def bessel_i_tail(nu: float, x: float) -> float:
    """S_nu(x) = sqrt(2 pi x) e^(-x) I_nu(x) - 1 by its asymptotic series.

    S_nu(x) = sum_(k>=1) prod_(j<=k) ((2j-1)^2 - 4 nu^2) / (8 j x), summed
    until a term falls to 1e-20 of the sum, over at most 39 terms; meant
    for x > 50, where the terms shrink fast.  ``bessel_i`` reads
    (1 + S)/sqrt(2 pi x) there; the b1 integrand needs S itself, which
    forming 1 + S first would lose to round-off.
    """
    mu = 4.0 * nu * nu
    term = (1.0 - mu) / (8.0 * x)
    total = term
    for k in range(2, 40):
        term *= ((2 * k - 1) ** 2 - mu) / (8.0 * k * x)
        total += term
        if abs(term) <= 1e-20 * abs(total):
            break
    return total


def bessel_i(nu: float, x: float, scaled: bool = False) -> float:
    """Modified Bessel function I_nu(x) for x > 0 (any real nu > -1, plus
    negative non-integer orders via the series).

    With ``scaled=True`` returns e^(-x) I_nu(x), finite for arbitrarily
    large x.
    """
    if x <= 0.0:
        raise ValueError("bessel_i requires x > 0")
    if x <= _I_SERIES_CUT:
        val = _bessel_i_series(nu, x)
        return val * math.exp(-x) if scaled else val
    val = (1.0 + bessel_i_tail(nu, x)) / math.sqrt(2.0 * math.pi * x)
    return val if scaled else val * math.exp(x)


def _bessel_k_small(nu: float, x: float) -> float:
    # connection formula K_nu = pi/2 (I_{-nu} - I_nu)/sin(nu pi),
    # non-integer 0 < nu < 1, accurate for x < 2 where cancellation is mild.
    return 0.5 * math.pi * (_bessel_i_series(-nu, x) - _bessel_i_series(nu, x)) / math.sin(nu * math.pi)


def _bessel_k_integral_scaled(nu: float, x: float) -> float:
    # e^x K_nu(x) = int_0^inf e^{-x (cosh t - 1)} cosh(nu t) dt.
    # The integrand is smooth and decays doubly exponentially, so the
    # trapezoidal rule converges exponentially fast in the step size.
    t_max = math.acosh(1.0 + 45.0 / x)
    h = min(0.25, math.sqrt(0.58 / x))
    n = int(t_max / h) + 1
    total = 0.5  # t = 0 endpoint: integrand is exactly 1, half weight
    for i in range(1, n + 1):
        t = i * h
        total += math.exp(-x * (math.cosh(t) - 1.0)) * math.cosh(nu * t)
    return total * h


def bessel_k(nu: float, x: float, scaled: bool = False) -> float:
    """Modified Bessel function K_nu(x) for x > 0, 0 <= |nu| < 2 non-integer.

    With ``scaled=True`` returns e^x K_nu(x).  Orders in (1, 2) are reduced
    to the principal range through the recurrence
    K_{nu}(x) = K_{nu-2}(x) + 2(nu-1)/x K_{nu-1}(x).
    """
    if x <= 0.0:
        raise ValueError("bessel_k requires x > 0")
    nu = abs(nu)
    if nu >= 2.0 or nu in (0.0, 1.0):
        raise ValueError("bessel_k supports non-integer orders with |nu| < 2")
    if nu > 1.0:
        lo = bessel_k(nu - 2.0, x, scaled=scaled)  # K is even in its order
        mid = bessel_k(nu - 1.0, x, scaled=scaled)
        return lo + 2.0 * (nu - 1.0) / x * mid
    if x < 2.0:
        val = _bessel_k_small(nu, x)
        return val * math.exp(x) if scaled else val
    val = _bessel_k_integral_scaled(nu, x)
    return val if scaled else val * math.exp(-x)
