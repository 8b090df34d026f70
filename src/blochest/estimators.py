"""Estimators mapping measurement outcomes to guessed states.

Three estimators for the local x/y scheme on equatorial states, plus the
outcome-independent random guess and the Bayes-optimal rule that works for
any scheme:

* ``tomography_estimate`` -- linear inversion of the count frequencies,
  R_i = 2 k_i / n - 1.  The raw point may fall outside the physical disc
  (R > 1); callers decide whether to discard such outcomes.

* ``ml_estimate`` -- maximum-likelihood over the physical equatorial
  disc.  For R <= 1 it coincides with the tomographic point; for R > 1
  the maximum sits on the pure-state boundary at an angle Phi solving
  cos(2 Phi) = R cos(gamma + Phi).  With z = exp(i Phi) that equation is a
  quartic in z; ``ml_phi_batch`` takes its four roots in closed form
  (Ferrari) and keeps the admissible one closest to gamma, which is the
  one of largest likelihood.

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
    "boundary_equation",
    "optimal_estimate",
    "random_estimate",
]

# Newton steps that polish the root angles: one settles a simple root;
# the rest serve near-double roots, where Newton converges only linearly.
_NEWTON_STEPS = 4
_RESIDUAL_TOL = 1e-12


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
    """Linear inversion of the count frequencies of a local x/y outcome."""
    ax, ay = outcome.alphas
    rx = 2.0 * ax - 1.0
    ry = 2.0 * ay - 1.0
    R = math.hypot(rx, ry)
    gamma = math.atan2(ry, rx)
    return TomographicGuess(radius=R, azimuth=gamma, physical=R <= 1.0)


def boundary_equation(phi, R, gamma):
    """g(phi) = cos(2 phi) - R cos(gamma + phi); zero at boundary optima.

    R and gamma are floats or arrays that broadcast against phi.
    """
    phi = np.asarray(phi, dtype=float)
    return np.cos(2.0 * phi) - R * np.cos(gamma + phi)


def ml_estimate(outcome) -> MLGuess:
    """Maximum-likelihood estimate for a local x/y outcome.

    Physical tomographic points are already the interior maximum.  For
    R > 1 the maximiser is the boundary azimuth Phi that
    :func:`ml_phi_batch` picks among the roots of the boundary quartic.
    """
    tomo = tomography_estimate(outcome)
    if tomo.physical:
        return MLGuess(guess=tomo.embedded, phi=None)

    phi = float(ml_phi_batch(*outcome.alphas))
    guess = EmbeddedBloch(0.0, np.array([math.cos(phi), math.sin(phi), 0.0]))
    return MLGuess(guess=guess, phi=phi)


def _quartic_roots(R: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(m, 4) roots of z^4 - a z^3 - conj(a) z + 1 = 0 with a = R e^{i gamma}.

    Ferrari's method on the depressed quartic y^4 + p y^2 + q y + r = 0,
    z = y + a/4, with p = -3 a^2/8, q = -a^3/8 - conj(a) and
    r = 1 - R^2/4 - 3 a^4/256.  Any root m of the resolvent cubic
    m^3 + p m^2 + (p^2/4 - r) m - q^2/8 = 0 serves; Cardano's formula, with
    the larger of the two cube-root arguments, gives one.  For
    1 <= R <= sqrt 2 every such root has modulus above 1/8 (checked on a
    600 x 2001 grid of R and gamma), so sqrt(2 m) stays away from 0.  Then
    y = (+-s sqrt(2 m) +- sqrt(-(2 p + 2 m +-s 2 q / sqrt(2 m)))) / 2.
    """
    a = R * np.exp(1j * gamma)
    a2 = a * a
    p = -0.375 * a2
    q = -0.125 * a2 * a - np.conj(a)
    r = 1.0 - 0.25 * R * R - (3.0 / 256.0) * a2 * a2
    # resolvent cubic with m = u - p/3: u^3 + P u + Q = 0
    P = -p * p / 12.0 - r
    Q = -p * p * p / 108.0 + p * r / 3.0 - 0.125 * q * q
    h = -0.5 * Q
    d = np.sqrt(h * h + P * P * P / 27.0)
    d = np.where((np.conj(h) * d).real < 0.0, -d, d)
    c = (h + d) ** (1.0 / 3.0)
    m = c - np.divide(P, 3.0 * c, out=np.zeros_like(c), where=c != 0.0) - p / 3.0
    s = np.sqrt(2.0 * m)
    e = -2.0 * (p + m)
    f = 2.0 * q / s
    d_plus = np.sqrt(e - f)
    d_minus = np.sqrt(e + f)
    y = 0.5 * np.stack([s + d_plus, s - d_plus, d_minus - s, -s - d_minus], axis=1)
    return y + 0.25 * a[:, None]


def _boundary_candidates(R: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, 4) boundary azimuths from the quartic's roots, and which solve g = 0.

    Each root's angle, taken in (gamma - pi, gamma + pi], is polished by
    Newton steps on :func:`boundary_equation`; roots off the unit circle
    leave a residual above 1e-12 and are marked inadmissible.
    """
    Rc = R[:, None]
    gc = gamma[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        z = _quartic_roots(R, gamma)
        roots = gc + np.angle(z * np.exp(-1j * gc))
        for _ in range(_NEWTON_STEPS):
            g = boundary_equation(roots, Rc, gc)
            dg = -2.0 * np.sin(2.0 * roots) + Rc * np.sin(gc + roots)
            roots = roots - np.divide(g, dg, out=np.zeros_like(g), where=dg != 0.0)
        admissible = np.abs(boundary_equation(roots, Rc, gc)) <= _RESIDUAL_TOL
    return roots, admissible


def ml_phi_batch(ax: np.ndarray, ay: np.ndarray) -> np.ndarray:
    """Boundary azimuths of the ML estimate for unphysical count frequencies.

    With z = exp(i Phi) the boundary equation cos(2 Phi) = R cos(gamma + Phi)
    is the quartic z^4 - R e^{i gamma} z^3 - R e^{-i gamma} z + 1 = 0, whose
    four roots per row come in closed form (:func:`_quartic_roots`).  Their
    angles, polished by Newton steps on :func:`boundary_equation`, are the
    candidates; roots off the unit circle leave a residual and are
    dropped.  The admissible candidate closest to gamma as a wrapped angle
    wins: it is the candidate of largest likelihood on every unphysical
    outcome with k_x >= k_y >= n/2 (one per orbit of the count model's
    symmetries) up to n = 1024 counts per axis, and at n = 2048 and 4096
    (``demos/ml_pick_check.py``).  Corner rows (cos 2 gamma = 0) return
    gamma exactly.  Angles are returned in (gamma - pi, gamma + pi];
    non-finite input raises ValueError and a row with no admissible root
    :class:`DegenerateEstimateError`.  ``ax`` and ``ay`` broadcast against
    each other, and the result has their common shape.
    """
    ax, ay = np.broadcast_arrays(np.asarray(ax, dtype=float), np.asarray(ay, dtype=float))
    shape = ax.shape
    ax, ay = ax.ravel(), ay.ravel()
    if not (np.isfinite(ax).all() and np.isfinite(ay).all()):
        raise ValueError("count frequencies must be finite")
    rx = 2.0 * ax - 1.0
    ry = 2.0 * ay - 1.0
    R = np.hypot(rx, ry)
    gamma = np.arctan2(ry, rx)

    roots, admissible = _boundary_candidates(R, gamma)
    offset = np.abs((roots - gamma[:, None] + np.pi) % (2.0 * np.pi) - np.pi)
    pick = np.where(admissible, offset, np.inf).argmin(axis=1)
    phi = roots[np.arange(ax.size), pick]

    corner = np.abs(np.cos(2.0 * gamma)) < 1e-14
    lost = ~(corner | admissible.any(axis=1))
    if lost.any():
        i = int(np.argmax(lost))
        raise DegenerateEstimateError(
            f"no boundary stationary point found for R={R[i]}, gamma={gamma[i]}"
        )
    return np.where(corner, gamma, phi).reshape(shape)


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
