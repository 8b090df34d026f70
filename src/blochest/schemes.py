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

Probabilities are evaluated in log space (log-gamma accumulation) so that
copy numbers in the thousands neither overflow nor underflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import CONSTRUCTION_TOL, as_bloch_vector, sphere_grid

__all__ = [
    "SchemeKind",
    "SchemeSpec",
    "LocalOutcome",
    "CollectiveOutcome",
    "OutcomeSet",
    "DEFAULT_ENUMERATION_LIMIT",
    "EnumerationLimitError",
    "check_enumerable",
    "local_probability",
    "binom_log_pmf_matrix",
    "collective_weight",
    "collective_log_weight",
    "collective_k_values",
    "collective_probability",
    "enumerate_outcomes",
]

# Largest total copy number accepted by enumerate_outcomes by default.
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


@dataclass(frozen=True)
class LocalOutcome:
    """Counts of +1 results along x and y, out of n_per_axis copies each."""

    n_per_axis: int
    counts: tuple[int, int]

    def __post_init__(self):
        kx, ky = self.counts
        if self.n_per_axis < 1:
            raise ValueError("n_per_axis must be >= 1")
        if not (0 <= kx <= self.n_per_axis and 0 <= ky <= self.n_per_axis):
            raise ValueError(f"counts {self.counts} out of range for n_per_axis={self.n_per_axis}")
        object.__setattr__(self, "counts", (int(kx), int(ky)))

    @property
    def alphas(self) -> tuple[float, float]:
        """Relative +1 frequencies along each axis."""
        return (self.counts[0] / self.n_per_axis, self.counts[1] / self.n_per_axis)


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


@dataclass(frozen=True)
class CollectiveOutcome:
    """A collective-measurement outcome: spin label k and direction m̂."""

    total_copies: int
    k: float
    direction: np.ndarray

    def __post_init__(self):
        if self.total_copies < 1:
            raise ValueError("total_copies must be >= 1")
        kk = _valid_k(self.k, self.total_copies)
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (3,):
            raise ValueError("direction must have 3 components")
        n = float(np.sqrt(d @ d))
        if abs(n - 1.0) > 1e-9:
            raise ValueError("direction must be a unit vector")
        d = d / n
        d.flags.writeable = False
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "k", kk)


@dataclass(frozen=True)
class OutcomeSet:
    """Enumerated outcomes plus the measure weight attached to each.

    For the local scheme the measure is counting measure (all weights 1);
    for the collective scheme each (k, m̂_j) node carries the angular
    quadrature weight of m̂_j, so that sum_i weights[i] * p(outcome_i | r⃗)
    approximates the total outcome probability 1.
    """

    outcomes: tuple
    weights: np.ndarray


def _require_equatorial(state: np.ndarray) -> np.ndarray:
    v = as_bloch_vector(state)
    if abs(v[2]) > CONSTRUCTION_TOL:
        raise ValueError("the local x/y scheme is defined for equatorial states (z = 0)")
    return v


def _safe_klogq(k, logq) -> np.ndarray:
    """k * log(q) with the 0 * log(0) = 0 convention (limit of q^k at k=0)."""
    k = np.asarray(k, dtype=float)
    logq = np.asarray(logq, dtype=float)
    out = np.zeros(np.broadcast(k, logq).shape)
    np.multiply(k, logq, where=(k != 0), out=out)
    return out


@functools.lru_cache(maxsize=128)
def _log_binom_coefficients(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n, read-only (cached per n)."""
    lgn = math.lgamma(n + 1.0)
    lgb = lgn - np.array([math.lgamma(v + 1.0) + math.lgamma(n - v + 1.0) for v in range(n + 1)])
    lgb.flags.writeable = False
    return lgb


def binom_log_pmf_matrix(n: int, q: np.ndarray) -> np.ndarray:
    """Matrix of log binomial pmfs: entry [k, j] = log C(n,k) q_j^k (1-q_j)^(n-k).

    q values of exactly 0 or 1 are handled by the 0^0 = 1 convention:
    impossible counts get -inf, the forced count gets 0.
    """
    k = np.arange(n + 1, dtype=float)[:, None]
    lgb = _log_binom_coefficients(n)[:, None]
    q = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore"):
        logq = np.log(q)
        log1mq = np.log1p(-q)
    if not np.all((q > 0.0) & (q < 1.0)):
        return lgb + _safe_klogq(k, logq[None, :]) + _safe_klogq(n - k, log1mq[None, :])
    # every log is finite: 0 * log q is -0.0 rather than 0.0, which adds alike
    out = k * logq
    out += lgb
    out += (n - k) * log1mq
    return out


def local_probability(outcome: LocalOutcome, state) -> float:
    """Probability of observing ``outcome`` on an equatorial state.

    Product of independent binomial laws along x and y with success
    probabilities (1 + r_x)/2 and (1 + r_y)/2.  Sums to 1 over all count
    pairs.
    """
    v = _require_equatorial(state)
    n = outcome.n_per_axis
    logp = 0.0
    for k, r_i in zip(outcome.counts, (v[0], v[1])):
        q = 0.5 * (1.0 + r_i)
        logp += math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)
        if k > 0:
            if q == 0.0:
                return 0.0
            logp += k * math.log(q)
        if n - k > 0:
            if q == 1.0:
                return 0.0
            logp += (n - k) * math.log1p(-q)
    return math.exp(logp)


def collective_k_values(total_copies: int) -> np.ndarray:
    """Valid spin labels: 0 (even N) or 1/2 (odd N) up to N/2 in unit steps."""
    start = 0.0 if total_copies % 2 == 0 else 0.5
    return start + np.arange(int(total_copies / 2 - start) + 1, dtype=float)


def collective_weight(k: float, total_copies: int) -> float:
    """Multiplicity weight c_k = C(N, N/2+k) (2k+1)^2 / (N/2+k+1).

    Evaluated exactly in integer arithmetic through the equivalent form
    (2k+1) * (C(N, m) - C(N, m+1)) with m = N/2 + k; raises OverflowError
    once the value exceeds the double range (use
    :func:`collective_log_weight` for large N).
    """
    kk = _valid_k(k, total_copies)
    m = round(total_copies / 2 + kk)
    two_k_plus_1 = round(2 * kk) + 1
    second = math.comb(total_copies, m + 1) if m + 1 <= total_copies else 0
    exact = two_k_plus_1 * (math.comb(total_copies, m) - second)
    return float(exact)


def collective_log_weight(k: float, total_copies: int) -> float:
    """log c_k via log-gamma accumulation, safe for N in the thousands."""
    kk = _valid_k(k, total_copies)
    m = total_copies / 2.0 + kk
    log_binom = (
        math.lgamma(total_copies + 1.0) - math.lgamma(m + 1.0) - math.lgamma(total_copies - m + 1.0)
    )
    return log_binom + 2.0 * math.log(2.0 * kk + 1.0) - math.log(m + 1.0)


def collective_probability(outcome: CollectiveOutcome, state) -> float:
    """Density of the collective outcome (k, m̂) at the given state.

    Density with respect to counting measure in k and the normalized
    uniform measure on the sphere of directions; summing over k and
    averaging over m̂ gives 1 for every |r⃗| <= 1.
    """
    v = as_bloch_vector(state)
    N = outcome.total_copies
    kk = outcome.k
    r2 = min(float(v @ v), 1.0)
    cos_part = 0.5 * (1.0 + float(v @ outcome.direction))
    logp = collective_log_weight(kk, N)
    half_minus_k = N / 2.0 - kk
    if half_minus_k > 0:
        if r2 >= 1.0:
            return 0.0
        logp += half_minus_k * math.log(0.25 * (1.0 - r2))
    if kk > 0:
        if cos_part <= 0.0:
            return 0.0
        logp += 2.0 * kk * math.log(cos_part)
    return math.exp(logp)


def enumerate_outcomes(
    spec: SchemeSpec,
    *,
    angular_order: int = 16,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> OutcomeSet:
    """All outcomes of a scheme, with their measure weights.

    Local scheme: the (n+1)^2 count pairs under counting measure.
    Collective scheme: every spin label k paired with a quadrature grid of
    directions (Gauss nodes in cos(theta) times uniform azimuths), each
    carrying its angular weight.
    """
    check_enumerable(spec.total_copies, enumeration_limit)
    if spec.kind is SchemeKind.LOCAL_XY:
        n = spec.n_per_axis
        outcomes = tuple(
            LocalOutcome(n, (kx, ky)) for kx in range(n + 1) for ky in range(n + 1)
        )
        return OutcomeSet(outcomes=outcomes, weights=np.ones(len(outcomes)))

    dirs, wdir = sphere_grid(angular_order)

    outcomes = []
    weights = []
    for k in collective_k_values(spec.total_copies):
        for d, w in zip(dirs, wdir):
            outcomes.append(CollectiveOutcome(spec.total_copies, k, d))
            weights.append(w)
    return OutcomeSet(outcomes=tuple(outcomes), weights=np.asarray(weights))
