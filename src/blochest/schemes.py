"""Outcome probability models for the two measurement schemes.

* ``local-xy``   -- N = 2*n copies measured by fixed von Neumann
  measurements, n copies along x and n along y, on states confined to the
  equatorial plane.  An outcome is the pair of +1-counts (k_x, k_y); its
  probability is the product of two binomial laws with success
  probabilities (1 + r_i)/2.

* ``collective`` -- a single joint measurement on all N copies whose
  outcomes are labelled by a total-spin quantum number k (integer for even
  N, half-integer for odd) and a direction m̂ on the sphere, with density

      p(k, m̂ | r⃗) = c_k ((1 - r^2)/4)^(N/2 - k) ((1 + r⃗·m̂)/2)^(2k)

  with respect to counting measure in k and the normalized uniform measure
  dm on the sphere; the multiplicities c_k make the total mass 1.

The module holds the pieces of these laws that the evaluator's tables
and samplers are built from: the binomial log-pmf tables of the local
scheme, and the spin labels and log multiplicities of the collective one.
Both are evaluated in log space (log-gamma accumulation) so that copy
numbers in the thousands neither overflow nor underflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "SchemeKind",
    "SchemeSpec",
    "DEFAULT_ENUMERATION_LIMIT",
    "EnumerationLimitError",
    "check_enumerable",
    "binom_log_pmf_matrix",
    "collective_log_weight",
    "collective_k_values",
]

# Largest total copy number that exact enumeration accepts by default.
# Log-space probabilities keep this range numerically safe; exponent fits
# need several decades of N.
DEFAULT_ENUMERATION_LIMIT = 2048


class EnumerationLimitError(ValueError):
    """The requested copy number exceeds the exact-enumeration limit."""


def check_enumerable(total_copies: int, enumeration_limit: int) -> None:
    """Raise :class:`EnumerationLimitError` when N exceeds the limit."""
    if total_copies > enumeration_limit:
        raise EnumerationLimitError(
            f"N = {total_copies} exceeds the enumeration limit {enumeration_limit}"
        )


class SchemeKind(Enum):
    LOCAL_XY = "local-xy"
    COLLECTIVE = "collective"


@dataclass(frozen=True)
class SchemeSpec:
    """A measurement scheme applied to ``total_copies`` copies."""

    kind: SchemeKind
    total_copies: int

    def __post_init__(self):
        if self.total_copies < 1:
            raise ValueError("total_copies must be >= 1")
        if self.kind is SchemeKind.LOCAL_XY and self.total_copies % 2 != 0:
            raise ValueError("the local x/y scheme splits copies evenly and needs even N")

    @property
    def n_per_axis(self) -> int:
        if self.kind is not SchemeKind.LOCAL_XY:
            raise ValueError("n_per_axis is defined for the local x/y scheme only")
        return self.total_copies // 2


def _valid_k(k: float, total_copies: int) -> float:
    kk = float(k)
    two_k = 2.0 * kk
    if abs(two_k - round(two_k)) > 1e-12:
        raise ValueError(f"k = {k} is not a half-integer")
    if (round(two_k) - total_copies) % 2 != 0:
        raise ValueError(f"k = {k} has the wrong parity for N = {total_copies}")
    if kk < -1e-12 or kk > total_copies / 2 + 1e-12:
        raise ValueError(f"k = {k} outside [0, N/2] for N = {total_copies}")
    return kk


@functools.lru_cache(maxsize=128)
def _log_binom_coefficients(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n, read-only (cached per n)."""
    lgn = math.lgamma(n + 1.0)
    lgb = lgn - np.array([math.lgamma(v + 1.0) + math.lgamma(n - v + 1.0) for v in range(n + 1)])
    lgb.flags.writeable = False
    return lgb


def binom_log_pmf_matrix(n: int, q: np.ndarray) -> np.ndarray:
    """Matrix of log binomial pmfs: entry [k, j] = log C(n,k) q_j^k (1-q_j)^(n-k).

    ``q`` is a 1-D array (a scalar gives one column).  The table is one
    matrix product: the (n+1) x 3 count matrix [k, n - k, log C(n, k)]
    times the 3 x len(q) block [log q; log1p(-q); 1], so the table is
    written once, each entry a three-term dot product.  Only log C(n, k)
    is cached; forming the count matrix from it takes about 10 us a call.

    q values of exactly 0 or 1 are handled by the 0^0 = 1 convention:
    impossible counts get -inf, the forced count gets 0.
    """
    k = np.arange(n + 1, dtype=float)
    counts = np.column_stack((k, n - k, _log_binom_coefficients(n)))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    coef = np.ones((3,) + q.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(q, out=coef[0])
        np.log1p(-q, out=coef[1])
        out = counts @ coef
    # 0^0 = 1: the count forced by q = 0 or 1 has pmf 1 (the product gives 0 * log 0 = NaN)
    out[0, q == 0.0] = 0.0
    out[n, q == 1.0] = 0.0
    return out


def collective_k_values(total_copies: int) -> np.ndarray:
    """Valid spin labels: 0 (even N) or 1/2 (odd N) up to N/2 in unit steps."""
    start = 0.0 if total_copies % 2 == 0 else 0.5
    return start + np.arange(int(total_copies / 2 - start) + 1, dtype=float)


def collective_log_weight(k: float, total_copies: int) -> float:
    """log c_k, c_k = C(N, N/2+k) (2k+1)^2 / (N/2+k+1), via log-gamma
    accumulation, safe for N in the thousands."""
    kk = _valid_k(k, total_copies)
    m = total_copies / 2.0 + kk
    log_binom = (
        math.lgamma(total_copies + 1.0) - math.lgamma(m + 1.0) - math.lgamma(total_copies - m + 1.0)
    )
    return log_binom + 2.0 * math.log(2.0 * kk + 1.0) - math.log(m + 1.0)
