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
  quartic in z; ``ml_phi_batch`` takes all its roots at once from
  companion-matrix eigenvalues and keeps the one of largest likelihood.

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

# Newton steps that polish the eigenvalue angles: one settles a simple root;
# the rest serve near-double roots, where Newton converges only linearly.
_NEWTON_STEPS = 4
_RESIDUAL_TOL = 1e-12
_LIKELIHOOD_TIE_TOL = 1e-12


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

    ax, ay = outcome.alphas
    phi = float(ml_phi_batch(np.array([ax]), np.array([ay]))[0])
    guess = EmbeddedBloch(0.0, np.array([math.cos(phi), math.sin(phi), 0.0]))
    return MLGuess(guess=guess, phi=phi)


def _log_likelihood(phi: np.ndarray, ax: np.ndarray, ay: np.ndarray) -> np.ndarray:
    """Per-copy log-likelihood of pure equatorial states at azimuths phi.

    l(phi) = ax log((1+cos phi)/2) + (1-ax) log((1-cos phi)/2)
           + ay log((1+sin phi)/2) + (1-ay) log((1-sin phi)/2),
    with 0*log(0) = 0 so corner outcomes keep a finite value.
    """
    c, s = np.cos(phi), np.sin(phi)
    out = np.zeros_like(phi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for a, trig in ((ax, c), (ay, s)):
            out = out + np.where(a > 0.0, a * np.log(0.5 * (1.0 + trig)), 0.0)
            out = out + np.where(a < 1.0, (1.0 - a) * np.log(0.5 * (1.0 - trig)), 0.0)
    return out


def ml_phi_batch(ax: np.ndarray, ay: np.ndarray) -> np.ndarray:
    """Boundary azimuths of the ML estimate for unphysical count frequencies.

    With z = exp(i Phi) the boundary equation cos(2 Phi) = R cos(gamma + Phi)
    is the quartic z^4 - R e^{i gamma} z^3 - R e^{-i gamma} z + 1 = 0, so the
    eigenvalues of one (m, 4, 4) stack of companion matrices give every
    stationary point of every row (Edelman & Murakami, Math. Comp. 64, 1995).
    Their angles, polished by Newton steps on :func:`boundary_equation`, are
    the candidates; roots off the unit circle leave a residual and are
    dropped.  The candidate with the largest per-copy log-likelihood wins,
    and likelihood ties within 1e-12 go to the root closest to gamma as a
    wrapped angle.  Corner rows (cos 2 gamma = 0) return gamma exactly.
    Angles are returned in (gamma - pi, gamma + pi]; a row with no
    admissible root raises :class:`DegenerateEstimateError`.
    """
    ax = np.asarray(ax, dtype=float)
    ay = np.asarray(ay, dtype=float)
    rx = 2.0 * ax - 1.0
    ry = 2.0 * ay - 1.0
    R = np.hypot(rx, ry)
    gamma = np.arctan2(ry, rx)
    m = ax.size

    companion = np.zeros((m, 4, 4), dtype=complex)
    companion[:, 0, 0] = R * np.exp(1j * gamma)
    companion[:, 0, 2] = R * np.exp(-1j * gamma)
    companion[:, 0, 3] = -1.0
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    z = np.linalg.eigvals(companion)

    Rc = R[:, None]
    gc = gamma[:, None]
    roots = gc + np.angle(z * np.exp(-1j * gc))
    for _ in range(_NEWTON_STEPS):
        g = boundary_equation(roots, Rc, gc)
        dg = -2.0 * np.sin(2.0 * roots) + Rc * np.sin(gc + roots)
        roots = roots - np.divide(g, dg, out=np.zeros_like(g), where=dg != 0.0)
    admissible = np.abs(boundary_equation(roots, Rc, gc)) <= _RESIDUAL_TOL

    liks = np.where(admissible, _log_likelihood(roots, ax[:, None], ay[:, None]), -np.inf)
    best = liks.max(axis=1, keepdims=True)
    near_best = liks >= best - _LIKELIHOOD_TIE_TOL
    offset = np.abs((roots - gc + np.pi) % (2.0 * np.pi) - np.pi)
    pick = np.where(near_best, offset, np.inf).argmin(axis=1)
    phi = roots[np.arange(m), pick]

    corner = np.abs(np.cos(2.0 * gamma)) < 1e-14
    lost = ~(corner | admissible.any(axis=1))
    if lost.any():
        i = int(np.argmax(lost))
        raise DegenerateEstimateError(
            f"no boundary stationary point found for R={R[i]}, gamma={gamma[i]}"
        )
    return np.where(corner, gamma, phi)


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
