"""Special functions implemented from scratch on top of numpy.

The asymptotic-constant computations need the gamma function, the
complementary error function, and modified Bessel functions of fractional
order (nu = 1/4 and its Wronskian partner nu = 5/4), including scaled
variants that stay finite when multiplied against e^x inside integrands:

* ``gamma_fn`` / ``log_gamma``   -- Lanczos approximation;
* ``erfc_fn`` / ``erfcx_fn``     -- Maclaurin series for small argument,
                                    Lentz continued fraction for large;
* ``bessel_i``                   -- ascending series (x <= 50), asymptotic
                                    expansion beyond;
* ``bessel_k``                   -- connection formula through I_{±nu} for
                                    x < 2, an exponentially convergent
                                    trapezoidal integral representation for
                                    x >= 2, and forward recurrence in the
                                    order for nu > 1.

All functions accept scalars; accuracy targets (relative 1e-10 on (0, 50]
for the unscaled functions, near machine precision for the scaled ones on
their stated domains) are pinned by the test-suite against independent
references.
"""

from __future__ import annotations

import functools
import math

__all__ = [
    "gamma_fn",
    "log_gamma",
    "erfc_fn",
    "erfcx_fn",
    "scaled_erfc_product",
    "bessel_i",
    "bessel_k",
]

_SQRT_PI = math.sqrt(math.pi)

# Lanczos coefficients (g = 7, n = 9).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos_series(x: float) -> float:
    a = _LANCZOS[0]
    for i in range(1, len(_LANCZOS)):
        a += _LANCZOS[i] / (x + i)
    return a


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if x <= 0.0:
        raise ValueError("log_gamma requires x > 0")
    if x < 0.5:
        # reflection keeps the Lanczos argument away from 0
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    t = z + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * math.log(t) - t + math.log(_lanczos_series(z))


def gamma_fn(x: float) -> float:
    """Gamma function for x > 0."""
    if x <= 0.0:
        raise ValueError("gamma_fn requires x > 0")
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * gamma_fn(1.0 - x))
    return math.exp(log_gamma(x))


# ---------------------------------------------------------------------------
# error function family
# ---------------------------------------------------------------------------

_ERF_SERIES_CUT = 2.5


def _erf_series(x: float) -> float:
    # erf(x) = 2/sqrt(pi) sum_n (-1)^n x^(2n+1) / (n! (2n+1)),  |x| <= 2.5
    x2 = x * x
    term = x
    total = x
    n = 0
    while True:
        n += 1
        term *= -x2 / n
        inc = term / (2 * n + 1)
        total += inc
        if abs(inc) < 1e-18 * abs(total) + 1e-300:
            break
        if n > 200:  # pragma: no cover - series always converges well before
            break
    return 2.0 / _SQRT_PI * total


def _erfcx_cf(x: float) -> float:
    # Laplace continued fraction: sqrt(pi) e^{x^2} erfc(x)
    #   = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))   for x >~ 2
    # evaluated with the modified Lentz algorithm.
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    b = x
    for n in range(0, 300):
        a = 1.0 if n == 0 else 0.5 * n
        d = b + a * d
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return f / _SQRT_PI


def erfcx_fn(x: float) -> float:
    """Scaled complementary error function e^(x^2) erfc(x), x >= 0."""
    if x < 0.0:
        raise ValueError("erfcx_fn requires x >= 0")
    if x < _ERF_SERIES_CUT:
        return math.exp(x * x) * (1.0 - _erf_series(x))
    return _erfcx_cf(x)


def erfc_fn(x: float) -> float:
    """Complementary error function for any real x."""
    if x < 0.0:
        return 2.0 - erfc_fn(-x)
    if x < _ERF_SERIES_CUT:
        return 1.0 - _erf_series(x)
    # e^{-x^2} underflows for x > ~27; the result is then a true zero in
    # double precision, matching the representable value.
    return math.exp(-x * x) * _erfcx_cf(x)


def scaled_erfc_product(x: float) -> float:
    """e^x erfc(sqrt(2 x)) for x >= 0, evaluated without overflow.

    Equals e^(-x) erfcx(sqrt(2 x)); decays like e^(-x)/sqrt(2 pi x), so it
    stays representable far beyond the range where erfc itself underflows.
    """
    if x < 0.0:
        raise ValueError("scaled_erfc_product requires x >= 0")
    if x == 0.0:
        return 1.0
    return math.exp(-x) * erfcx_fn(math.sqrt(2.0 * x))


# ---------------------------------------------------------------------------
# modified Bessel functions
# ---------------------------------------------------------------------------

_I_SERIES_CUT = 50.0

# The asymptotic constants call the series at a few orders (nu = +-1/4,
# +-3/4) and thousands of arguments x: log Gamma(nu + 1) once per order.
_log_gamma_cached = functools.lru_cache(maxsize=32)(log_gamma)


def _bessel_i_series(nu: float, x: float) -> float:
    # ascending series: sum_k (x/2)^(2k+nu) / (k! Gamma(k + nu + 1));
    # all terms positive, no cancellation.  Valid for nu > -1.
    if nu <= -1.0:
        raise ValueError("series requires nu > -1")
    x2 = 0.25 * x * x
    term = math.exp(nu * math.log(0.5 * x) - _log_gamma_cached(nu + 1.0))
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


def _bessel_i_asymptotic_scaled(nu: float, x: float) -> float:
    # e^{-x} I_nu(x) ~ (2 pi x)^{-1/2} sum_k (-1)^k a_k(nu)/x^k   for large x,
    # a_k = prod_{j=1..k} (4 nu^2 - (2j-1)^2) / (k! 8^k)
    mu = 4.0 * nu * nu
    term = 1.0
    total = 1.0
    for k in range(1, 40):
        term *= -(mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if abs(term) < 1e-17:
            total += term
            break
        total += term
    return total / math.sqrt(2.0 * math.pi * x)


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
    val = _bessel_i_asymptotic_scaled(nu, x)
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
