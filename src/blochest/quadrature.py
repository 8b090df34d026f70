"""Quadrature primitives: Gauss-Legendre rules and an adaptive
Gauss-Kronrod integrator.

The Gauss-Legendre rules are numpy's (``numpy.polynomial.legendre.leggauss``).
For the orders 2, 4, 8, ..., 2048 they ship with the package in
``gauss_legendre.f64``, which ``tools/make_gauss_legendre.py`` writes from
numpy's own output, so a process reads them instead of repeating numpy's
dense O(n^3) eigenvalue solve, which takes about a second at n = 2048.
Other orders are computed by ``leggauss``; every rule is cached.

The adaptive engine pairs the 7-point Gauss rule with its 15-point Kronrod
extension on each subinterval and bisects the interval with the largest
error estimate until the global estimate meets the tolerance; the starting
panels share one integrand call, and so do both halves of a bisection.
Integrable endpoint singularities (x^(-1/2)-type) are handled by the
subdivision itself, which grades the mesh geometrically toward the
endpoint; callers integrating over (0, inf) first map to (0, 1) via
x = t/(1 - t).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = [
    "gauss_legendre",
    "QuadratureError",
    "QuadResult",
    "adaptive_quad",
    "integrate_half_line",
]


# The stored rules: for each order n in turn, the n/2 positive nodes in
# increasing order, then their weights, as little-endian float64.  leggauss
# makes its nodes exactly antisymmetric and its weights exactly symmetric,
# so mirroring the positive half rebuilds the whole rule bit for bit.
STORED_ORDERS = tuple(2**k for k in range(1, 12))
STORED_PATH = Path(__file__).with_name("gauss_legendre.f64")
_STORED_OFFSETS = dict(zip(STORED_ORDERS, np.cumsum((0,) + STORED_ORDERS[:-1]).tolist()))


@lru_cache(maxsize=1)
def _stored_rules() -> np.ndarray:
    data = np.fromfile(STORED_PATH, dtype="<f8")
    if data.size != sum(STORED_ORDERS):
        raise RuntimeError(
            f"{STORED_PATH} holds {data.size} values, expected {sum(STORED_ORDERS)}"
        )
    return data


@lru_cache(maxsize=64)
def _rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    offset = _STORED_OFFSETS.get(n)
    if offset is None:
        x, w = np.polynomial.legendre.leggauss(n)
    else:
        half = _stored_rules()[offset : offset + n]
        nodes, weights = half[: n // 2], half[n // 2 :]
        x = np.concatenate((-nodes[::-1], nodes))
        w = np.concatenate((weights[::-1], weights))
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] (cached, read-only).

    The rule is numpy's ``leggauss(n)``: read from the package's stored
    rules when ``n`` is one of :data:`STORED_ORDERS`, computed otherwise.
    """
    if n < 1:
        raise ValueError("rule order must be >= 1")
    return _rule(int(n))


# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].
_XGK_HALF = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK_HALF = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG_HALF = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
    ]
)

# full symmetric 15-node arrays, ordered left to right
_XGK = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
_WGK = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:-1:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])


class QuadratureError(RuntimeError):
    """Adaptive integration failed to reach the tolerance.

    Carries the best value and the achieved error estimate.
    """

    def __init__(self, message: str, value: float, error: float):
        super().__init__(f"{message} (value={value!r}, achieved error estimate={error!r})")
        self.value = value
        self.error = error


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    intervals: int


_WEIGHTS = np.stack((_WGK, _WG), axis=1)  # one matrix product sums both rules


def _eval_panels(f, lo: np.ndarray, hi: np.ndarray) -> tuple[list[float], list[float]]:
    """Kronrod values and error estimates for f over the panels [lo_i, hi_i], in one call of f."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    y = np.asarray(f((c[:, None] + h[:, None] * _XGK).ravel()), dtype=float).reshape(-1, 15)
    resk, resg = (y @ _WEIGHTS).T * h
    resasc = h * (np.abs(y - (resk / (hi - lo))[:, None]) @ _WGK)
    errs = []
    for k, g, asc in zip(resk.tolist(), resg.tolist(), resasc.tolist()):
        # scale the raw Gauss/Kronrod difference the way robust adaptive
        # integrators do, so the estimate stays meaningful near singularities
        err = abs(k - g)
        if asc != 0.0 and err != 0.0:
            err = asc * min(1.0, (200.0 * err / asc) ** 1.5)
        errs.append(err)
    return resk.tolist(), errs


def adaptive_quad(
    f,
    a: float,
    b: float,
    *,
    abs_tol: float = 1e-10,
    limit: int = 400,
    initial_splits: tuple[float, ...] = (),
) -> QuadResult:
    """Adaptively integrate the vectorized callable ``f`` over [a, b].

    ``f`` must map a numpy array of abscissae to an array of values,
    elementwise, as one call evaluates the nodes of several panels.
    ``initial_splits`` seeds interior breakpoints (a graded starting mesh
    for integrands with known endpoint structure).  Raises
    :class:`QuadratureError` if the subdivision limit is exhausted before
    the global error estimate drops to ``abs_tol`` (an absolute bound).
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"integration interval must satisfy a < b, got [{a}, {b}]")
    points = [a, *[p for p in initial_splits if a < p < b], b]
    vals, errs = _eval_panels(f, np.array(points[:-1]), np.array(points[1:]))
    heap: list[tuple[float, int, float, float, float, float]] = []
    stuck = 0
    total = 0.0
    total_err = 0.0
    for lo, hi, val, err in zip(points[:-1], points[1:], vals, errs):
        total += val
        total_err += err
        heapq.heappush(heap, (-err, len(heap), lo, hi, val, err))
    counter = len(heap)

    while total_err > abs_tol:
        if counter >= limit:
            raise QuadratureError("subdivision limit exhausted", total, total_err)
        if not heap:
            raise QuadratureError(
                "tolerance unreachable: every remaining interval is at floating-point resolution",
                total,
                total_err,
            )
        _, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # interval at floating-point resolution; its estimate stays in
            # the totals but it cannot be refined further
            stuck += 1
            continue
        (v1, v2), (e1, e2) = _eval_panels(f, np.array([lo, mid]), np.array([mid, hi]))
        total += (v1 + v2) - val
        total_err += (e1 + e2) - err
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
        counter += 1

    return QuadResult(value=total, error=total_err, intervals=len(heap) + stuck)


def integrate_half_line(
    f, *, abs_tol: float = 1e-10, limit: int = 400, x_max: float | None = None
) -> QuadResult:
    """Integrate the vectorized callable ``f`` over (0, inf) or (0, x_max).

    Maps to the unit interval via x = t/(1 - t) (dx = dt/(1-t)^2) and
    integrates adaptively, to an estimated absolute error of at most
    ``abs_tol``, with a starting mesh graded toward both endpoints (t -> 0
    catches algebraic singularities of f at x -> 0; t -> 1 is the
    x -> inf tail).

    Double precision cannot represent t between 1 - eps/2 and 1, i.e.
    x beyond ~9e15: a node that rounds to exactly 1 contributes 0.  Tails
    of f decaying slower than 1/x^2 therefore lose O(eps^(1/4)) relative
    mass near the far endpoint; for such integrands, pass ``x_max`` to
    stop the mapped integration at t = x_max/(1 + x_max) and add the
    remaining tail analytically.
    """

    def g(t: np.ndarray) -> np.ndarray:
        one_m = 1.0 - t
        ok = one_m > 0.0  # a node that rounds to t = 1 maps to x = 0 and counts 0
        safe = np.where(ok, one_m, 1.0)
        vals = np.asarray(f(np.where(ok, t, 0.0) / safe), dtype=float)
        return np.where(ok, vals * (1.0 / (safe * safe)), 0.0)

    upper = 1.0 if x_max is None else x_max / (1.0 + x_max)
    splits = (1e-8, 1e-5, 1e-3, 1e-2, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 0.99999)
    splits = tuple(s for s in splits if s < upper)
    return adaptive_quad(g, 0.0, upper, abs_tol=abs_tol, limit=limit, initial_splits=splits)
