"""Domain types and priors for equatorial/full-ball qubit state estimation.

A qubit mixed state is a Bloch vector r⃗ with |r⃗| <= 1.  Throughout the
package states and guesses are handled in the four-dimensional embedding

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
converges spectrally.  :func:`radial_rule` returns the resulting radial
nodes and weights, and :func:`build_prior` the product of that rule with a
direction grid; all downstream averages are weighted sums over this grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .quadrature import gauss_legendre

__all__ = [
    "CONSTRUCTION_TOL",
    "NORM_TOL",
    "PriorKind",
    "EmbeddedBloch",
    "RadialRule",
    "Prior",
    "as_bloch_vector",
    "embed",
    "fidelity",
    "clamp_fidelity",
    "sphere_grid",
    "radial_rule",
    "build_prior",
    "random_guess_fidelity",
    "sample_states",
]

# |r⃗| may exceed 1 by at most this much at construction; such vectors are
# rescaled onto the sphere, anything larger is rejected.
CONSTRUCTION_TOL = 1e-9

# Tolerance on the unit-4-norm invariant of an embedded state.
NORM_TOL = 1e-12


class PriorKind(Enum):
    """Which a-priori ensemble a :class:`Prior` represents."""

    FULL_BURES = "full"
    EQUATORIAL_BURES = "equatorial"


def as_bloch_vector(components) -> np.ndarray:
    """Validate ``components`` as a Bloch vector and return a (3,) array.

    Vectors with norm in (1, 1 + CONSTRUCTION_TOL] are rescaled onto the
    unit sphere so that floating-point round-trips never raise; anything
    longer is rejected.
    """
    v = np.asarray(components, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"Bloch vector must have 3 components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("Bloch vector components must be finite")
    r = float(np.sqrt(v @ v))
    if r > 1.0 + CONSTRUCTION_TOL:
        raise ValueError(f"Bloch vector norm {r} exceeds 1 beyond tolerance")
    if r > 1.0:
        v = v / r
    return v


@dataclass(frozen=True)
class EmbeddedBloch:
    """A state or guess in the 4-vector embedding (sqrt(1-r^2), r⃗).

    Invariants: ``time_component >= 0`` and the Euclidean 4-norm equals 1
    to within ``NORM_TOL``.
    """

    time_component: float
    spatial: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.spatial, dtype=float)
        if s.shape != (3,):
            raise ValueError("spatial part must have 3 components")
        s = s.copy()
        s.flags.writeable = False
        object.__setattr__(self, "spatial", s)
        object.__setattr__(self, "time_component", float(self.time_component))
        if self.time_component < -NORM_TOL:
            raise ValueError("time component of an embedded state must be non-negative")
        norm2 = self.time_component**2 + float(s @ s)
        if abs(norm2 - 1.0) > 64 * NORM_TOL:
            raise ValueError(f"embedded state must have unit 4-norm, got norm^2 = {norm2}")

    @property
    def vec4(self) -> np.ndarray:
        """The full 4-vector (t, x, y, z)."""
        return np.concatenate(([self.time_component], self.spatial))


def embed(components) -> EmbeddedBloch:
    """Embed a Bloch vector as (sqrt(1 - r^2), r⃗)."""
    v = as_bloch_vector(components)
    r2 = float(v @ v)
    t = math.sqrt(max(0.0, 1.0 - r2))
    return EmbeddedBloch(t, v)


def clamp_fidelity(value: float) -> float:
    """Clamp a fidelity to [0, 1] (round-off may produce 1 + 1e-16)."""
    return min(1.0, max(0.0, float(value)))


def fidelity(state: EmbeddedBloch, guess: EmbeddedBloch) -> float:
    """Fidelity (1 + 𝐫·𝐑)/2 between two embedded states.

    Symmetric in its arguments; equals 1 exactly when the arguments are
    equal.  Raises if either argument violates the unit-4-norm invariant
    beyond tolerance (the :class:`EmbeddedBloch` constructor enforces it,
    so this only triggers on hand-built or corrupted inputs).
    """
    for arg in (state, guess):
        norm2 = arg.time_component**2 + float(arg.spatial @ arg.spatial)
        if abs(norm2 - 1.0) > 64 * NORM_TOL or arg.time_component < -NORM_TOL:
            raise ValueError("fidelity argument violates the embedding invariants")
    dot = state.time_component * guess.time_component + float(state.spatial @ guess.spatial)
    return clamp_fidelity(0.5 * (1.0 + dot))


@dataclass(frozen=True)
class RadialRule:
    """The radial half of an ensemble's quadrature grid.

    Fields
    ------
    radial_r : (nr,) radii in (0, 1)
    radial_t : (nr,) matching time components sqrt(1 - r^2), computed as
               cos(u) for accuracy near r = 1
    radial_w : (nr,) radial weights, sum 1
    """

    kind: PriorKind
    radial_r: np.ndarray
    radial_t: np.ndarray
    radial_w: np.ndarray

    def __post_init__(self):
        # every field after ``kind`` is an array, here and in Prior
        for field in fields(self)[1:]:
            a = np.asarray(getattr(self, field.name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, field.name, a)

    @property
    def radial_order(self) -> int:
        """Number of radial quadrature nodes."""
        return int(self.radial_r.size)


@dataclass(frozen=True)
class Prior(RadialRule):
    """Quadrature grid for one of the two a-priori ensembles.

    The grid is a product of a radial rule and an angular rule.  Radial
    weights and angular weights each sum to 1, so the product weights
    realize a normalized average over the ensemble.

    Fields
    ------
    radial_r, radial_t, radial_w : the :class:`RadialRule`
    directions : (na, 3) unit vectors
    angular_w : (na,) angular weights, sum 1
    """

    directions: np.ndarray
    angular_w: np.ndarray

    @property
    def angular_order(self) -> int:
        """The per-dimension angular order (matches build_prior's argument)."""
        n = int(self.angular_w.size)
        if self.kind is PriorKind.FULL_BURES:
            return int(round(n**0.5))
        return n

    def total_weight(self) -> float:
        """Sum of all product weights (1 up to round-off)."""
        return float(self.radial_w.sum() * self.angular_w.sum())

    def mean_embedding(self) -> np.ndarray:
        """The ensemble average of the embedded state, <𝐫> = (<t>, <r⃗>)."""
        t_mean = float(self.radial_w @ self.radial_t)
        r_mean = float(self.radial_w @ self.radial_r)
        dir_mean = self.angular_w @ self.directions
        return np.concatenate(([t_mean], r_mean * dir_mean))

    def product_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialize the full product grid.

        Returns (nodes4, weights): nodes4 is (nr*na, 4) embedded states and
        weights is the matching (nr*na,) product weights summing to 1.
        Intended for cross-checks at modest orders; the product can be
        large for high-order full-ball grids.
        """
        nr = len(self.radial_r)
        na = len(self.angular_w)
        nodes = np.empty((nr * na, 4))
        nodes[:, 0] = np.repeat(self.radial_t, na)
        nodes[:, 1:] = np.repeat(self.radial_r, na)[:, None] * np.tile(self.directions, (nr, 1))
        weights = np.repeat(self.radial_w, na) * np.tile(self.angular_w, nr)
        return nodes, weights


def sphere_grid(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Direction grid on the unit sphere: ``order`` Gauss nodes in cos(theta)
    times ``order`` uniform azimuths.

    Returns (directions, weights): (order**2, 3) unit vectors, cosine-major,
    and their weights, which sum to 1.
    """
    mu, wmu = gauss_legendre(order)
    phi = 2.0 * np.pi * np.arange(order) / order
    sin_th = np.sqrt(1.0 - mu**2)
    dirs = np.empty((order * order, 3))
    dirs[:, 0] = np.repeat(sin_th, order) * np.tile(np.cos(phi), order)
    dirs[:, 1] = np.repeat(sin_th, order) * np.tile(np.sin(phi), order)
    dirs[:, 2] = np.repeat(mu, order)
    return dirs, np.repeat(wmu / wmu.sum(), order) / order


def radial_rule(kind: PriorKind, radial_order: int = 128) -> RadialRule:
    """The radial rule of an ensemble: ``radial_order`` Gauss-Legendre nodes
    in the substituted variable u (r = sin u), with the ensemble's radial
    weights normalized to unit mass.
    """
    if kind not in (PriorKind.FULL_BURES, PriorKind.EQUATORIAL_BURES):
        raise ValueError(f"unknown prior kind {kind!r}")
    if radial_order < 2:
        raise ValueError("quadrature orders must be >= 2")
    x, w = gauss_legendre(radial_order)
    u = 0.25 * np.pi * (x + 1.0)  # u in (0, pi/2)
    r = np.sin(u)
    t = np.cos(u)
    if kind is PriorKind.FULL_BURES:
        wr = w * np.sin(u) ** 2
    else:
        wr = w * np.sin(u)
    wr = wr / wr.sum()  # unit total mass at every order
    return RadialRule(kind=kind, radial_r=r, radial_t=t, radial_w=wr)


def build_prior(kind: PriorKind, radial_order: int = 128, angular_order: int = 256) -> Prior:
    """Build the quadrature grid for an ensemble.

    ``radial_order`` is the number of Gauss-Legendre nodes in the
    substituted variable u (r = sin u), the :func:`radial_rule`;
    ``angular_order`` controls the angular rule: for the equatorial
    ensemble a uniform grid of that many polar angles (trapezoidal, exact
    for smooth periodic integrands), for the full ball a product of that
    many Gauss nodes in cos(theta) with the same number of uniform
    azimuthal nodes.
    """
    rule = radial_rule(kind, radial_order)
    if angular_order < 2:
        raise ValueError("quadrature orders must be >= 2")

    if kind is PriorKind.FULL_BURES:
        dirs, wa = sphere_grid(angular_order)
    else:
        theta = 2.0 * np.pi * np.arange(angular_order) / angular_order
        dirs = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(angular_order)])
        wa = np.full(angular_order, 1.0 / angular_order)

    return Prior(
        kind=kind,
        radial_r=rule.radial_r,
        radial_t=rule.radial_t,
        radial_w=rule.radial_w,
        directions=dirs,
        angular_w=wa,
    )


def random_guess_fidelity(prior: Prior) -> float:
    """Average fidelity achieved by guessing blindly, with no measurement.

    The guess is itself drawn from the ensemble, independently of the
    state, so the average is the double ensemble mean

        F = (1 + |<𝐫>|^2) / 2.

    For the full-ball ensemble this equals 1/2 + 8/(9 pi^2) ~ 0.590064;
    for the equatorial ensemble it equals 5/8.
    """
    m = prior.mean_embedding()
    return clamp_fidelity(0.5 * (1.0 + float(m @ m)))


def sample_states(kind: PriorKind, size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``size`` states from an ensemble by inverse-CDF sampling.

    Returns (t, vecs): time components (size,) and Bloch vectors (size, 3).
    Draw order (radial variates first, then directional ones) is fixed so
    that a seeded generator reproduces the same states bit-for-bit.
    """
    q = rng.random(size)
    if kind is PriorKind.EQUATORIAL_BURES:
        # radial CDF: P(r <= s) = 1 - sqrt(1 - s^2); t = 1 - q takes q's buffer
        t = np.subtract(1.0, q, out=q)
        r = np.sqrt(np.maximum(0.0, 1.0 - t * t))
        theta = 2.0 * np.pi * rng.random(size)
        vecs = np.column_stack([r * np.cos(theta), r * np.sin(theta), np.zeros(size)])
        return t, vecs
    # full ball: radial CDF in u (r = sin u) is (2/pi) (u - sin(2u)/2);
    # invert by bisection (monotone, smooth)
    lo = np.zeros(size)
    hi = np.full(size, 0.5 * np.pi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        cdf = (2.0 / np.pi) * (mid - 0.5 * np.sin(2.0 * mid))
        take = cdf < q
        lo = np.where(take, mid, lo)
        hi = np.where(take, hi, mid)
    u = 0.5 * (lo + hi)
    r = np.sin(u)
    t = np.cos(u)
    z = 2.0 * rng.random(size) - 1.0
    phi = 2.0 * np.pi * rng.random(size)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    vecs = np.column_stack([r * s * np.cos(phi), r * s * np.sin(phi), r * z])
    return t, vecs
