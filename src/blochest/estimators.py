"""Estimators mapping measurement outcomes to guessed states.

Three estimators for the local x/y scheme on equatorial states, plus the
outcome-independent random guess and the Bayes-optimal rule that works for
any scheme:

* ``tomography_estimate`` -- linear inversion of the count frequencies,
  R_i = 2 k_i / n - 1.  The raw point may fall outside the physical disc
  (R > 1); callers decide whether to discard such outcomes.

* ``ml_estimate`` -- maximum-likelihood over the physical equatorial
  disc.  For R <= 1 it coincides with the tomographic point; for R > 1
  the maximum sits on the pure-state boundary.  There the log-likelihood
  is strictly concave in the azimuth on the quadrant of the tomographic
  point, so ``ml_phi_batch`` bisects its slope for the one root.

* ``optimal_estimate`` -- the Bayes rule for mean-fidelity loss: guess
  along the posterior-mean embedded vector V = ∫ dρ(𝐫) 𝐫 p(outcome | 𝐫),
  normalized to unit length.

All equatorial estimators return guesses in the z = 0 plane; the
four-component embedding carries the purity component t = sqrt(1 - R^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EmbeddedBloch, Prior, embed

__all__ = [
    "TomographicGuess",
    "MLGuess",
    "DegenerateEstimateError",
    "tomography_estimate",
    "ml_estimate",
    "ml_phi_batch",
    "optimal_estimate",
    "random_estimate",
]

# Bisection steps on u = tan(phi/2) in (0, 1): the bracket shrinks to 2^-60.
_BISECTION_STEPS = 60


class DegenerateEstimateError(ValueError):
    """Raised when an estimator has no well-defined output for an outcome."""


@dataclass(frozen=True)
class TomographicGuess:
    """Linear-inversion estimate: radius R, azimuth gamma, physicality flag."""

    radius: float
    azimuth: float
    physical: bool

    @property
    def embedded(self) -> EmbeddedBloch:
        if not self.physical:
            raise DegenerateEstimateError(
                "tomographic point lies outside the physical disc; no state to embed"
            )
        R = self.radius
        t = math.sqrt(max(0.0, 1.0 - R * R))
        return EmbeddedBloch(t, np.array([R * math.cos(self.azimuth), R * math.sin(self.azimuth), 0.0]))


@dataclass(frozen=True)
class MLGuess:
    """Maximum-likelihood estimate; ``phi`` is set when the optimum is on the boundary."""

    guess: EmbeddedBloch
    phi: float | None


def tomography_estimate(outcome) -> TomographicGuess:
    """Linear inversion of the count frequencies of a local x/y outcome.

    The physicality flag is the exact integer test
    (2 k_x - n)^2 + (2 k_y - n)^2 <= n^2, which the evaluator's guess rule
    uses too: a point on the circle can have a float R just above 1.
    """
    ax, ay = outcome.alphas
    rx = 2.0 * ax - 1.0
    ry = 2.0 * ay - 1.0
    R = math.hypot(rx, ry)
    gamma = math.atan2(ry, rx)
    n = outcome.n_per_axis
    dx, dy = (2 * k - n for k in outcome.counts)
    return TomographicGuess(radius=R, azimuth=gamma, physical=dx * dx + dy * dy <= n * n)


def ml_estimate(outcome) -> MLGuess:
    """Maximum-likelihood estimate for a local x/y outcome.

    Physical tomographic points are already the interior maximum.  For
    R > 1 the maximiser is the boundary azimuth Phi of
    :func:`ml_phi_batch`.
    """
    tomo = tomography_estimate(outcome)
    if tomo.physical:
        return MLGuess(guess=tomo.embedded, phi=None)

    phi = float(ml_phi_batch(*outcome.alphas))
    guess = EmbeddedBloch(0.0, np.array([math.cos(phi), math.sin(phi), 0.0]))
    return MLGuess(guess=guess, phi=phi)


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


def optimal_estimate(outcome, probability, prior: Prior) -> tuple[EmbeddedBloch, float]:
    """Bayes-optimal guess for mean fidelity: normalized posterior-mean vector.

    ``probability(outcome, states)`` must accept an (n, 3) block of Bloch
    vectors and return the outcome probabilities at each.  Returns the
    unit-normalized embedded guess and the norm |V| of the unnormalized
    posterior-mean vector (the outcome's fidelity contribution is
    (P + |V|)/2 with P the outcome probability mass).
    """
    nodes4, weights = prior.product_nodes()
    p = np.asarray(probability(outcome, nodes4[:, 1:]), dtype=float)
    if p.shape != weights.shape:
        raise ValueError("probability() must return one value per prior node")
    V = (weights * p) @ nodes4
    norm = float(np.sqrt(V @ V))
    if norm <= 1e-300:
        raise DegenerateEstimateError(
            "posterior-mean vector vanishes; the optimal guess is undefined for this outcome"
        )
    return EmbeddedBloch(V[0] / norm, V[1:] / norm), norm


def random_estimate(prior: Prior | None = None) -> EmbeddedBloch:
    """The outcome-independent guess.

    Ignoring the data, the best fixed guess maximizes the ensemble-average
    fidelity (1 + <𝐫>·𝐑)/2 over unit embeddings 𝐑, i.e. the normalized
    mean embedding of the prior.  Both supported ensembles are isotropic in
    the Bloch plane/ball, so this is the maximally mixed state (1, 0, 0, 0);
    with no prior given that value is returned directly.
    """
    if prior is None:
        return embed(np.zeros(3))
    mean = prior.mean_embedding()
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        return embed(np.zeros(3))
    vec = mean / norm
    return EmbeddedBloch(float(vec[0]), vec[1:].copy())
