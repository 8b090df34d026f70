"""Priors, the blind-guess baseline and state sampling for qubit state estimation.

A qubit mixed state is a Bloch vector r⃗ with |r⃗| <= 1.  Prior nodes,
sampled states and the evaluator's guesses are all handled as arrays in
the four-dimensional embedding

    𝐫 = (sqrt(1 - r^2), r⃗),

a unit vector of Euclidean 4-norm 1 whose first component is non-negative.
The fidelity between two states is then the bilinear form

    f(𝐫, 𝐑) = (1 + 𝐫·𝐑) / 2,

which runs from 0 (antipodal pure states) to 1 (identical states).

Two a-priori ensembles are supported, both induced by the fidelity metric:

* ``full``        -- radial density proportional to r^2/sqrt(1 - r^2) on the
                     whole Bloch ball, isotropic in direction;
* ``equatorial``  -- radial density proportional to r/sqrt(1 - r^2) on the
                     z = 0 disk, uniform in the polar angle.

Both densities diverge at r = 1.  The substitution r = sin(u) removes the
endpoint singularity exactly (the radial weights become sin^2(u) du and
sin(u) du on u in [0, pi/2]), so plain Gauss-Legendre quadrature in u
converges spectrally.  :func:`build_prior` returns the product of that
radial rule with an angular rule; all downstream averages are weighted
sums over this grid.  The full-ball ensemble is rotationally invariant, and
every full-ball average the package forms depends on direction only
through one polar cosine, so its angular rule is a Gauss-Legendre rule in
that cosine, not a grid over the whole sphere.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .quadrature import gauss_legendre

__all__ = [
    "PriorKind",
    "Prior",
    "clamp_fidelity",
    "build_prior",
    "random_guess_fidelity",
    "sample_states",
]


# Quadrature orders of a prior built without explicit ones.
DEFAULT_RADIAL_ORDER = 128
DEFAULT_ANGULAR_ORDER = 256


class PriorKind(Enum):
    """Which a-priori ensemble a :class:`Prior` represents."""

    FULL_BURES = "full"
    EQUATORIAL_BURES = "equatorial"


def clamp_fidelity(value: float) -> float:
    """Clamp a fidelity to [0, 1] (round-off may produce 1 + 1e-16)."""
    return min(1.0, max(0.0, float(value)))


@dataclass(frozen=True)
class Prior:
    """Quadrature grid for one of the two a-priori ensembles.

    The grid is a product of a radial rule and an angular rule.  Radial
    weights and angular weights each sum to 1 (the full ball's up to
    round-off), so the product weights realize a normalized average over
    the ensemble.

    Fields
    ------
    radial_r : (nr,) radii in (0, 1)
    radial_t : (nr,) matching time components sqrt(1 - r^2), computed as
               cos(u) for accuracy near r = 1
    radial_w : (nr,) radial weights, sum 1
    directions : (na, 3) unit vectors
    angular_w : (na,) angular weights
    """

    kind: PriorKind
    radial_r: np.ndarray
    radial_t: np.ndarray
    radial_w: np.ndarray
    directions: np.ndarray
    angular_w: np.ndarray

    def __post_init__(self):
        # every field after ``kind`` is an array
        for field in fields(self)[1:]:
            a = np.asarray(getattr(self, field.name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, field.name, a)

    @property
    def radial_order(self) -> int:
        """Number of radial quadrature nodes."""
        return int(self.radial_r.size)

    @property
    def angular_order(self) -> int:
        """Number of angular quadrature nodes (matches build_prior's argument)."""
        return int(self.angular_w.size)

    def product_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialize the full product grid.

        Returns (nodes4, weights): nodes4 is (nr*na, 4) embedded states and
        weights is the matching (nr*na,) product weights.  For the full
        ball this is the meridian product, so it averages only integrands
        that depend on direction through the polar cosine alone.
        Intended for cross-checks at modest orders.
        """
        nr = len(self.radial_r)
        na = len(self.angular_w)
        nodes = np.empty((nr * na, 4))
        nodes[:, 0] = np.repeat(self.radial_t, na)
        nodes[:, 1:] = np.repeat(self.radial_r, na)[:, None] * np.tile(self.directions, (nr, 1))
        weights = np.repeat(self.radial_w, na) * np.tile(self.angular_w, nr)
        return nodes, weights


def build_prior(
    kind: PriorKind,
    radial_order: int = DEFAULT_RADIAL_ORDER,
    angular_order: int = DEFAULT_ANGULAR_ORDER,
) -> Prior:
    """Build the quadrature grid for an ensemble.

    ``radial_order`` is the number of Gauss-Legendre nodes in the
    substituted variable u (r = sin u), with the ensemble's radial weights
    normalized to unit mass.  ``angular_order`` is the number of
    directions.  For the equatorial ensemble they are uniform polar angles
    (trapezoidal, exact for smooth periodic integrands).  For the full
    ball they are Gauss-Legendre nodes c in the polar cosine, stored as
    the meridian directions (sqrt(1 - c^2), 0, c) with weights w_c / 2
    (the uniform sphere measure is dc/2 in c).  That rule averages only
    integrands that depend on direction through the polar cosine alone,
    and for them it is the Gauss rule in c; the rotationally invariant
    ensemble needs no other.
    """
    if kind not in (PriorKind.FULL_BURES, PriorKind.EQUATORIAL_BURES):
        raise ValueError(f"unknown prior kind {kind!r}")
    if radial_order < 2 or angular_order < 2:
        raise ValueError("quadrature orders must be >= 2")
    x, w = gauss_legendre(radial_order)
    u = 0.25 * np.pi * (x + 1.0)  # u in (0, pi/2)
    r = np.sin(u)
    wr = w * r**2 if kind is PriorKind.FULL_BURES else w * r
    wr = wr / wr.sum()  # unit total mass at every order

    if kind is PriorKind.FULL_BURES:
        c, gw = gauss_legendre(angular_order)
        dirs = np.column_stack([np.sqrt(1.0 - c**2), np.zeros(angular_order), c])
        wa = gw / 2.0
    else:
        theta = 2.0 * np.pi * np.arange(angular_order) / angular_order
        dirs = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(angular_order)])
        wa = np.full(angular_order, 1.0 / angular_order)

    return Prior(
        kind=kind, radial_r=r, radial_t=np.cos(u), radial_w=wr, directions=dirs, angular_w=wa
    )


def random_guess_fidelity(prior: Prior) -> float:
    """Average fidelity achieved by guessing blindly, with no measurement.

    The guess is itself drawn from the ensemble, independently of the
    state, so the average is the double ensemble mean
    F = (1 + |<𝐫>|^2) / 2.  Both ensembles are symmetric under
    r⃗ -> -r⃗, so <r⃗> = 0 and <𝐫> = (<t>, 0): F = (1 + <t>^2) / 2, from
    the radial rule alone.

    For the full-ball ensemble this equals 1/2 + 8/(9 pi^2) ~ 0.590064;
    for the equatorial ensemble it equals 5/8.
    """
    t_mean = float(prior.radial_w @ prior.radial_t)
    return clamp_fidelity(0.5 * (1.0 + t_mean * t_mean))


def sample_states(kind: PriorKind, size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``size`` states from an ensemble.

    Returns (t, vecs): time components (size,) and Bloch vectors (size, 3).
    The equatorial radius comes by inverse CDF, then the azimuth; the full
    ball takes three uniform Hopf coordinates.  Draw order (one variate per
    state at a time, the radial one first) is fixed so that a seeded
    generator reproduces the same states bit-for-bit.
    """
    q = rng.random(size)
    if kind is PriorKind.EQUATORIAL_BURES:
        # radial CDF: P(r <= s) = 1 - sqrt(1 - s^2); t = 1 - q takes q's buffer
        t = np.subtract(1.0, q, out=q)
        r = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        theta = 2.0 * np.pi * rng.random(size)
        vecs = np.column_stack([r * np.cos(theta), r * np.sin(theta), np.zeros(size)])
        return t, vecs
    # full ball: the Bures prior is the uniform measure on the t >= 0 half of
    # the unit sphere S^3 in (t, r⃗); Hopf coordinates with uniform q, alpha
    # and beta give (sqrt(1-q) cos 2 pi alpha, sqrt(1-q) sin 2 pi alpha,
    # sqrt(q) cos 2 pi beta, sqrt(q) sin 2 pi beta), and |.| folds t >= 0
    alpha = 2.0 * np.pi * rng.random(size)
    beta = 2.0 * np.pi * rng.random(size)
    a = np.sqrt(1.0 - q)
    b = np.sqrt(q)
    t = a * np.abs(np.cos(alpha))
    vecs = np.column_stack([a * np.sin(alpha), b * np.cos(beta), b * np.sin(beta)])
    return t, vecs
