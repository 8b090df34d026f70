"""The maximum-likelihood boundary azimuth for the local x/y scheme.

The evaluator's guess rule (``evaluator._count_guesses``) gives the
tomographic point R_i = 2 k_i / n - 1 of an outcome whose point lies in
the physical disc, for both the tomography and the ML estimator.  Off the
disc tomography discards the outcome, and ML guesses the pure state on
the boundary that maximizes the likelihood.  There the log-likelihood is
strictly concave in the azimuth on the quadrant of the tomographic point,
so :func:`ml_phi_batch` bisects its slope for the one root.  The
Bayes-optimal guess, the normalized posterior mean V/|V|, comes from the
evaluator's count tables (``evaluator._optimal_guess_tables``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DegenerateEstimateError",
    "ml_phi_batch",
]

# Bisection steps on u = tan(phi/2) in (0, 1): the bracket shrinks to 2^-60.
_BISECTION_STEPS = 60


class DegenerateEstimateError(ValueError):
    """Raised when an estimator has no well-defined output for an outcome."""


def ml_phi_batch(ax: np.ndarray, ay: np.ndarray) -> np.ndarray:
    """Boundary azimuths of the ML estimate for unphysical count frequencies.

    Fold (r_x, r_y) = (2 ax - 1, 2 ay - 1) into the first quadrant, where
    the ML azimuth lies (reflecting an angle into the quadrant of r⃗ lowers
    no term below), and let delta = 2 min(a, 1 - a) per axis, which is
    exact in floats.  On the arc 0 < phi < pi/2 the per-copy boundary
    log-likelihood is a sum of log(1 +- cos phi) and log(1 +- sin phi) with
    non-negative weights, each strictly concave, so it has one maximum.
    Its slope

        L'(phi) = delta_x / sin phi - delta_y / cos phi
                  - tan(phi/2) + tan(pi/4 - phi/2)
                = (cos 2 phi - R cos(gamma + phi)) / (sin phi cos phi)

    decreases from L'(0+) >= 0 to L'(pi/2-) <= 0, so the ML azimuth is its
    one root.  In u = tan(phi/2), L' times 2u(1 - u^2) is the quartic

        (1 - u) [delta_x (1 + u)(1 + u^2) + 2u (1 - 2u - u^2)]
        - 2 delta_y u (1 + u^2),

    with the factor 1 - u, exact in floats, where 1 - u^4 would lose the
    digits of a root near u = 1.  A fixed number of bisection steps on its
    sign in (0, 1) brackets u to 2^-60, and phi = atan2(2u, 1 - u^2) is
    carried back into the quadrant of r⃗.  On the diagonal
    delta_x = delta_y the root is pi/4 by symmetry, and gamma itself is
    returned.  Angles lie in (-pi, pi]; non-finite input raises ValueError
    and frequencies outside [0, 1] :class:`DegenerateEstimateError`.
    ``ax`` and ``ay`` broadcast against each other, and the result has
    their common shape.
    """
    ax, ay = np.broadcast_arrays(np.asarray(ax, dtype=float), np.asarray(ay, dtype=float))
    if not (np.isfinite(ax).all() and np.isfinite(ay).all()):
        raise ValueError("count frequencies must be finite")
    if ((ax < 0.0) | (ax > 1.0) | (ay < 0.0) | (ay > 1.0)).any():
        raise DegenerateEstimateError("count frequencies must lie in [0, 1]")
    dx = 2.0 * np.minimum(ax, 1.0 - ax)
    dy = 2.0 * np.minimum(ay, 1.0 - ay)
    # u is the midpoint of the bracket (u - 2 step, u + 2 step); the sign of
    # the slope at u says which half holds the root, and u moves to its middle
    u = np.full(dx.shape, 0.5)
    step = 0.5
    for _ in range(_BISECTION_STEPS):
        step *= 0.5
        uu = u * u
        v = 1.0 + uu
        slope = (1.0 - u) * (dx * (1.0 + u) * v + 2.0 * u * (1.0 - 2.0 * u - uu)) - 2.0 * dy * u * v
        u += np.copysign(step, slope)
    rx = 2.0 * ax - 1.0
    ry = 2.0 * ay - 1.0
    phi = np.arctan2(np.copysign(2.0 * u, ry), np.copysign((1.0 - u) * (1.0 + u), rx))
    return np.where(dx == dy, np.arctan2(ry, rx), phi)
