"""Average-fidelity evaluation for (scheme, estimator, prior) triples.

Four entry points:

* :func:`exact_fidelity` -- exact enumeration over outcomes with prior
  quadrature: F = sum_x integral dρ f(r⃗, R⃗(x)) p(x|r⃗).  For the optimal
  estimator this equals (sum_x P_x + sum_x |V(x)|)/2.
* :func:`monte_carlo_fidelity` -- simulate states and outcomes, estimate,
  average; stderr reported; bit-reproducible for a fixed seed.
* :func:`tomography_with_discard` -- the named entry point of the
  "tomography" estimator of :func:`exact_fidelity`: linear inversion that
  keeps only outcomes whose tomographic point is physical; the fidelity is
  the conditional average over kept outcomes and the discarded probability
  mass is reported alongside.
* :func:`adaptive_local_fidelity` -- sequential single-copy measurements
  whose axes are chosen by a policy; estimation by the optimal rule on
  the full outcome-sequence likelihood.

The local x/y engine reduces every computation to (n+1) x (n+1) count
tables.  It integrates one direction per orbit of the prior's x/y flip and
swap symmetries and unfolds the wedge tables by flipping and transposing
them.  The (radial node, direction) pairs are binned by their success
probabilities into tiles, and each tile's matrix products run only over
the count rows where one of its binomials is within a factor 1e22 of its
largest value; from n = 100 counts per axis on, those rows are a part of
each table.  The work is serial and in a fixed order, so results are
bit-reproducible.
Auto mode checks a local value on the given grid against half its orders
and doubles the orders only when the two disagree; a collective value is
taken on twice the given orders and checked against the given grid.
The collective engine exploits rotational invariance of the full-ball
ensemble: |V(k, m̂)| does not depend on m̂, so the direction integral
collapses and a 2-D (radius x polar-cosine) grid suffices.  Each spin
label k is summed only over its support window on that grid, the radial
rows and the top cosine columns outside of which every entry lies more
than 60 nats below the label's largest one.  Large k concentrate near
r = 1 and cosine 1: on the 128 x 256 and 256 x 512 grids the windows hold
46 % of the entries at N = 256 and 18 % at N = 1024.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    Prior,
    PriorKind,
    build_prior,
    clamp_fidelity,
    sample_states,
)
from .estimators import ml_phi_batch
from .quadrature import QuadratureError, gauss_legendre
from .schemes import (
    DEFAULT_ENUMERATION_LIMIT,
    EnumerationLimitError,
    SchemeKind,
    SchemeSpec,
    binom_log_pmf_matrix,
    check_enumerable,
    collective_k_values,
    collective_log_weight,
)

__all__ = [
    "Method",
    "FidelityReport",
    "SweepResult",
    "AllOutcomesDiscardedError",
    "EnumerationLimitError",
    "LocalTables",
    "local_tables",
    "collective_tables",
    "exact_fidelity",
    "monte_carlo_fidelity",
    "tomography_with_discard",
    "adaptive_local_fidelity",
    "sweep",
    "ADAPTIVE_POLICIES",
]

DEFAULT_RADIAL_ORDER = 128
DEFAULT_ANGULAR_ORDER = 256
# Auto-refinement returns the finer grid of the first consecutive pair on
# its ladder whose fidelities differ by less than this.
FIDELITY_STABLE_TOL = 1e-8
_MAX_DOUBLINGS = 3

EXACT_ESTIMATORS = ("optimal", "ml", "tomography")
ADAPTIVE_POLICIES = ("fixed-xy", "greedy-fidelity")


class Method(Enum):
    EXACT_ENUMERATION = "exact-enumeration"
    MONTE_CARLO = "monte-carlo"


class AllOutcomesDiscardedError(RuntimeError):
    """Every outcome was unphysical, so the kept-only average is undefined."""

    def __init__(self, message: str):
        super().__init__(message)
        self.discarded_fraction = 1.0


@dataclass(frozen=True)
class FidelityReport:
    """One evaluated average fidelity.

    ``stderr`` is 0 for exact enumeration; ``discarded_fraction`` is set
    only by the tomography-with-discarding protocol.
    """

    scheme: SchemeSpec
    estimator: str
    copies: int
    fidelity: float
    stderr: float
    method: Method
    discarded_fraction: float | None = None

    def __post_init__(self):
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")
        if not 0.0 <= self.fidelity <= 1.0:
            raise ValueError("fidelity must lie in [0, 1]")
        if self.discarded_fraction is not None and not 0.0 <= self.discarded_fraction <= 1.0:
            raise ValueError("discarded_fraction must lie in [0, 1]")


def _check_increasing(ns) -> None:
    if any(b <= a for a, b in zip(ns[:-1], ns[1:])):
        raise ValueError("copy numbers must be strictly increasing")


@dataclass(frozen=True)
class SweepResult:
    """Fidelity reports over a strictly increasing list of copy numbers."""

    points: tuple

    def __post_init__(self):
        _check_increasing([n for n, _ in self.points])
        object.__setattr__(self, "points", tuple((int(n), rep) for n, rep in self.points))


def _require_prior(scheme_kind: SchemeKind, prior: Prior) -> None:
    if scheme_kind is SchemeKind.LOCAL_XY and prior.kind is not PriorKind.EQUATORIAL_BURES:
        raise ValueError("the local x/y scheme estimates the equatorial ensemble")
    if scheme_kind is SchemeKind.COLLECTIVE and prior.kind is not PriorKind.FULL_BURES:
        raise ValueError(
            "the collective engine relies on full rotational invariance; use the full-ball ensemble"
        )


def _check_estimator(estimator: str, scheme_kind: SchemeKind) -> None:
    if estimator == "random":
        raise ValueError(
            "the outcome-independent baseline has no per-outcome average; "
            "use core.random_guess_fidelity(prior)"
        )
    if estimator not in EXACT_ESTIMATORS:
        raise ValueError(f"unknown estimator {estimator!r}; expected one of {EXACT_ESTIMATORS}")
    if scheme_kind is SchemeKind.COLLECTIVE and estimator != "optimal":
        raise ValueError("tomographic and ML estimators are defined for the local x/y scheme only")


# ---------------------------------------------------------------------------
# local x/y table engine


@dataclass(frozen=True)
class LocalTables:
    """Per-outcome probability mass and unnormalized posterior-mean vectors.

    All arrays are (n+1, n+1), indexed [k_x, k_y].  ``prob`` sums to 1 up
    to quadrature round-off; (v_t, v_x, v_y) are the components of
    V(x) = integral dρ 𝐫 p(x|r⃗) (the z-component vanishes for the
    equatorial ensemble).
    """

    n_per_axis: int
    prob: np.ndarray
    v_t: np.ndarray
    v_x: np.ndarray
    v_y: np.ndarray


# Columns (radial node x wedge direction) per batch of GEMMs: bounds each
# binomial table to (n+1) x _TABLE_CHUNK doubles.
_TABLE_CHUNK = 1024
# A tile leaves out the binomial rows whose pmf is at most this fraction of
# the largest pmf of every column in the tile.
_SUPPORT_CUT = 1e-22

# The symmetries of the x/y count model: D4 acting on (x, y) as
# (sx, sy, swap), i.e. scale the coordinates by the signs, then exchange
# them when ``swap``.
_D4 = tuple((sx, sy, swap) for swap in (False, True) for sy in (1, -1) for sx in (1, -1))
# How far a mapped direction or its weight (relative) may sit from the grid
# node it lands on; grid round-off is a few ulp.
_SYMMETRY_TOL = 1e-14


def _direction_permutation(xy: np.ndarray, w: np.ndarray, g) -> np.ndarray | None:
    """perm with g(direction j) = direction perm[j] and equal weight, or None."""
    sx, sy, swap = g
    image = xy * np.array([sx, sy], dtype=float)
    if swap:
        image = image[:, ::-1]
    # Pair the points in lexicographic order of coordinates rounded well
    # past grid round-off, then check the pairing itself.
    key = np.round(xy, 12)
    image_key = np.round(image, 12)
    perm = np.empty(xy.shape[0], dtype=np.intp)
    perm[np.lexsort((image_key[:, 1], image_key[:, 0]))] = np.lexsort((key[:, 1], key[:, 0]))
    if np.abs(xy[perm] - image).max() > _SYMMETRY_TOL:
        return None
    if np.any(np.abs(w[perm] - w) > _SYMMETRY_TOL * np.abs(w)):
        return None
    return perm


def _symmetry_wedge(prior: Prior):
    """The prior's D4 symmetry group G and one direction per G-orbit.

    G holds the elements of :data:`_D4` that map the weighted directions
    onto themselves.  Returns (G, reps, rep_w): the orbit representatives
    (each orbit's smallest index) and the orbit's total angular weight over
    |G|, so that summing g(table) over G of the representatives' weighted
    tables gives the full angular sum.
    """
    xy = prior.directions[:, :2]
    w = prior.angular_w
    group, perms = [], []
    for g in _D4:
        perm = _direction_permutation(xy, w, g)
        if perm is not None:
            group.append(g)
            perms.append(perm)
    label = np.min(perms, axis=0)  # the orbit of j is {perm[j] for perm in perms}
    reps, member_of = np.unique(label, return_inverse=True)
    return group, reps, np.bincount(member_of, weights=w) / len(group)


def _d4_table_image(g, tables):
    """Count tables of the directions mapped by g, from those of the originals.

    ``tables`` ends with the x and y components (v_x, v_y); the tables
    before them are scalars, such as prob and v_t.
    """
    sx, sy, swap = g
    *scalars, v_x, v_y = (a[::sx, ::sy] for a in tables)
    v_x = sx * v_x
    v_y = sy * v_y
    if swap:
        return (*(a.T for a in scalars), v_y.T, v_x.T)
    return (*scalars, v_x, v_y)


def _tiles_pay(n: int) -> bool:
    """Whether a tile can be narrower than the table at n counts per axis.

    A column with q = 1/2 has about sqrt(2 n ln(1/cut)) rows of support;
    while that spans the n + 1 rows, so does every tile holding such a
    column, and tiles would only add bookkeeping (n < 100 with the 1e-22
    cut, where the measured break-even lies).
    """
    return 2.0 * n * math.log(1.0 / _SUPPORT_CUT) < (n + 1) ** 2


def _tile_spans(log_pmf: np.ndarray, starts: np.ndarray):
    """Row span [lo, hi) of each tile: the hull of its columns' supports.

    ``log_pmf`` is a (n+1, columns) log binomial table whose columns are
    grouped into tiles beginning at ``starts``.  A column's support is the
    rows whose log pmf exceeds the column's largest by more than
    log(_SUPPORT_CUT); every row outside a tile's span is outside the
    support of each of its columns.
    """
    support = log_pmf > log_pmf.max(axis=0) + math.log(_SUPPORT_CUT)
    support = np.logical_or.reduceat(support, starts, axis=1)
    return support.argmax(axis=0), support.shape[0] - support[::-1].argmax(axis=0)


def local_tables(spec: SchemeSpec, prior: Prior) -> LocalTables:
    """Accumulate the outcome tables for a local x/y scheme over a prior.

    The count model is invariant under x -> -x, y -> -y and x <-> y, which
    reverse table axes, negate v_x or v_y and transpose.  The subgroup G of
    those maps under which the prior's weighted directions are invariant is
    read off the prior's arrays, so only one direction per G-orbit is
    integrated (the wedge theta in [0, pi/4] for a uniform grid of 8k
    angles) and the images of the wedge tables under G are summed.

    Every (radial node, wedge direction) pair is a column with success
    probabilities q_x = (1 + r_x)/2 and q_y = (1 + r_y)/2, binomial tables
    b_x, b_y over the counts 0..n, and weight w.  The columns are binned
    into about sqrt(n)/2 cells per q axis and processed in batches of
    _TABLE_CHUNK; the columns of one cell in one batch form a tile.  A
    column's pmf falls below _SUPPORT_CUT times its largest value outside
    about +-10 sqrt(n q (1 - q)) of n q, so each tile multiplies only the
    rows of b_x and of b_y inside the hull of its columns' supports
    (:func:`_tile_spans`), one GEMM per table, and adds the result into the
    matching block of the wedge tables.  The flops fall from
    columns x (n+1)^2 to about a fifth of that at n = 512 and a tenth at
    n = 1024.

    The dropped mass is bounded as follows.  A tile leaves out entry
    (k_x, k_y) of a column only when k_x is outside the tile's x span or
    k_y outside its y span, and every such row has pmf at most
    _SUPPORT_CUT, since a pmf is at most 1.  The column's dropped mass is
    then at most w (sum_{k_x out} b_x sum b_y + sum b_x sum_{k_y out} b_y)
    <= 2 (n+1) _SUPPORT_CUT w.  The weights of the columns times |G| sum
    to the prior's mass 1, so prob loses at most 2 (n+1) 1e-22, below
    2.1e-19 at the default enumeration limit (n = 1024), and so do v_t,
    v_x and v_y, whose factors t, r_x, r_y lie in [-1, 1].  Kept entries are
    the same products as over the full tables; only the summation order
    of the GEMMs differs.
    """
    if spec.kind is not SchemeKind.LOCAL_XY:
        raise ValueError("local_tables expects the local x/y scheme")
    _require_prior(spec.kind, prior)
    n = spec.n_per_axis
    K = n + 1
    group, reps, rep_w = _symmetry_wedge(prior)
    n_r = prior.radial_r.size
    r = np.repeat(prior.radial_r, reps.size)
    t = np.repeat(prior.radial_t, reps.size)
    w = np.outer(prior.radial_w, rep_w).ravel()
    rx = r * np.tile(prior.directions[reps, 0], n_r)
    ry = r * np.tile(prior.directions[reps, 1], n_r)
    qx = 0.5 * (1.0 + rx)
    qy = 0.5 * (1.0 + ry)

    tiled = _tiles_pay(n)
    if tiled:
        bins = max(1, math.isqrt(n) // 2)
        cell = np.minimum(qx * bins, bins - 1).astype(np.intp) * bins
        cell += np.minimum(qy * bins, bins - 1).astype(np.intp)
        by_cell = np.argsort(cell, kind="stable")
        cell, qx, qy, t, w, rx, ry = (a[by_cell] for a in (cell, qx, qy, t, w, rx, ry))

    wedge = np.zeros((4, K, K))
    for s in range(0, w.size, _TABLE_CHUNK):
        c = slice(s, s + _TABLE_CHUNK)
        log_bx = binom_log_pmf_matrix(n, qx[c])
        log_by = binom_log_pmf_matrix(n, qy[c])
        if tiled:
            starts = np.flatnonzero(np.diff(cell[c], prepend=-1))
            ends = np.append(starts[1:], log_bx.shape[1])
            spans = zip(starts, ends, *_tile_spans(log_bx, starts), *_tile_spans(log_by, starts))
        else:
            spans = [(0, log_bx.shape[1], 0, K, 0, K)]
        for a, b, x0, x1, y0, y1 in spans:
            j = slice(s + a, s + b)
            # in place: the tiles of a batch own disjoint columns
            bx = np.exp(log_bx[x0:x1, a:b], out=log_bx[x0:x1, a:b])
            wby = np.exp(log_by[y0:y1, a:b], out=log_by[y0:y1, a:b])
            wby *= w[j]
            block = wedge[:, x0:x1, y0:y1]
            block[0] += bx @ wby.T
            block[1] += bx @ (wby * t[j]).T
            block[2] += (bx * rx[j]) @ wby.T
            block[3] += bx @ (wby * ry[j]).T

    total = np.zeros((4, K, K))
    for g in group:
        for acc, image in zip(total, _d4_table_image(g, wedge)):
            acc += image
    prob, v_t, v_x, v_y = total
    return LocalTables(n_per_axis=n, prob=prob, v_t=v_t, v_x=v_x, v_y=v_y)


def _physical_mask(n: int) -> np.ndarray:
    """Outcomes whose tomographic point is inside the disc, exactly.

    (2 k_x - n)^2 + (2 k_y - n)^2 <= n^2 in integer arithmetic.
    """
    k = np.arange(n + 1)
    dx = (2 * k - n)[:, None] ** 2
    dy = (2 * k - n)[None, :] ** 2
    return dx + dy <= n * n


def _tomography_guess_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(t, x, y) guess components for physical outcomes; NaN when unphysical."""
    alpha = np.arange(n + 1, dtype=float) / n
    rx = 2.0 * alpha - 1.0
    gx, gy = np.meshgrid(rx, rx, indexing="ij")
    rr = gx**2 + gy**2
    phys = _physical_mask(n)
    tg = np.where(phys, np.sqrt(np.maximum(0.0, 1.0 - rr)), np.nan)
    gx = np.where(phys, gx, np.nan)
    gy = np.where(phys, gy, np.nan)
    return tg, gx, gy, phys


def _ml_wedge(n: int) -> np.ndarray:
    """Unphysical outcomes with k_x >= k_y >= n/2: one per orbit of D4 on the counts."""
    k = np.arange(n + 1)
    return ~_physical_mask(n) & (k[:, None] >= k[None, :]) & (2 * k[None, :] >= n)


def _ml_guess_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, x, y) guess components of the ML estimator for every outcome.

    The count model's D4 symmetries act on the ML azimuth as on directions:
    k_x -> n - k_x maps phi to pi - phi, k_y -> n - k_y maps it to -phi and
    the swap to pi/2 - phi.  So the boundary is solved only on the wedge
    (:func:`_ml_wedge`, about an eighth of the unphysical outcomes), and
    each wedge row's (cos phi, sin phi) is written to its images under the
    maps of :data:`_D4`, as :func:`_d4_table_image` maps table entries.
    """
    tg, gx, gy, phys = _tomography_guess_tables(n)
    if np.all(phys):
        return tg, gx, gy
    kx, ky = np.nonzero(_ml_wedge(n))
    phi = ml_phi_batch(kx / n, ky / n)
    c, s = np.cos(phi), np.sin(phi)
    tg[~phys] = 0.0
    # the identity comes last, so the wedge keeps its own values
    for sx, sy, swap in reversed(_D4):
        ix = kx if sx == 1 else n - kx
        iy = ky if sy == 1 else n - ky
        vx, vy = sx * c, sy * s
        if swap:
            ix, iy, vx, vy = iy, ix, vy, vx
        gx[ix, iy] = vx
        gy[ix, iy] = vy
    return tg, gx, gy


def _fixed_guess_tables(scheme: SchemeSpec, estimator: str):
    """(guess tables, kept mask) of a local estimator whose guesses ignore the prior.

    ML guesses on every outcome (mask None); tomography keeps only the
    physical outcomes and raises :class:`AllOutcomesDiscardedError` when
    there are none; the optimal rule's guesses come from the outcome tables,
    so it gets (None, None).
    """
    n = scheme.n_per_axis
    if estimator == "ml":
        return _ml_guess_tables(n), None
    if estimator == "tomography":
        tg, gx, gy, phys = _tomography_guess_tables(n)
        if not phys.any():
            raise AllOutcomesDiscardedError(
                f"every outcome at N = {scheme.total_copies} is unphysical (R > 1); "
                "the kept-only average is undefined"
            )
        return (tg, gx, gy), phys
    return None, None


def _optimal_guess_tables(tables: LocalTables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    norm = np.sqrt(tables.v_t**2 + tables.v_x**2 + tables.v_y**2)
    return tables.v_t / norm, tables.v_x / norm, tables.v_y / norm


def _local_exact_value(tables: LocalTables, guesses) -> float:
    """(sum_x P_x + sum_x R⃗(x)·V(x))/2; |V| itself when guesses is None."""
    if guesses is None:
        norm = np.sqrt(tables.v_t**2 + tables.v_x**2 + tables.v_y**2)
        return 0.5 * float(tables.prob.sum() + norm.sum())
    tg, gx, gy = guesses
    dot = tg * tables.v_t + gx * tables.v_x + gy * tables.v_y
    return 0.5 * float(tables.prob.sum() + dot.sum())


def _kept_exact_value(tables: LocalTables, guesses, kept: np.ndarray) -> tuple[float, float]:
    """(F over the kept outcomes, conditioned on keeping, discarded mass).

    F = [sum_{x kept} (P_x + R⃗(x)·V(x))/2] / sum_{x kept} P_x.
    """
    kept_mass = float(tables.prob[kept].sum())
    if kept_mass <= 0.0:
        raise AllOutcomesDiscardedError("kept outcomes carry no probability mass")
    tg, gx, gy = guesses
    dot = tg * tables.v_t + gx * tables.v_x + gy * tables.v_y
    num = 0.5 * float((tables.prob + dot)[kept].sum())
    return num / kept_mass, 1.0 - kept_mass


# ---------------------------------------------------------------------------
# collective reduced engine


@dataclass(frozen=True)
class CollectiveTables:
    """Per-spin-label mass and posterior-mean components (direction-frame).

    ``v_par`` is the component of V(k, m̂) along m̂; by rotational
    invariance of the full-ball ensemble the transverse components vanish
    and these values do not depend on m̂.
    """

    total_copies: int
    k_values: np.ndarray
    prob: np.ndarray
    v_t: np.ndarray
    v_par: np.ndarray


# A spin label's sums leave out the grid entries whose weighted density is
# more than this many nats below the label's largest one.
_WINDOW_CUT_NATS = 60.0


def _support_windows(total_copies: int, prior: Prior, cos_order: int):
    """The spin labels of :func:`collective_tables` and the support window of each.

    Returns (ks, lc, hk_lq, i0, i1, j0): the labels k, log c_k,
    (N/2 - k) log((1 - r_i^2)/4) for every label and radial node, and the
    windows, radial rows i0 <= i < i1 and cosine columns j >= j0.  Entry
    (i, j) of label k has the bound B_ij = log d_ij + log wr_i + log max(wc).
    Outside its window every B_ij lies below the floor
    max_i (log d_i,last + log wr_i) + log wc_last - cut, and so does column
    j0 when j0 > 0: one column of margin for round-off in the inversion.
    """
    r = prior.radial_r
    c, gw = gauss_legendre(cos_order)
    ks = collective_k_values(total_copies)
    lc = np.array([collective_log_weight(k, total_copies) for k in ks])
    hk = total_copies / 2.0 - ks
    log_wc_max = math.log(gw.max() / 2.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # log((1 - r^2)/4) = 2 log t - log 4, with t = cos u exact near r = 1
        hk_lq = np.outer(hk, 2.0 * np.log(prior.radial_t) - math.log(4.0))
        log_wr = np.log(prior.radial_w)
        base = lc[:, None] + np.where(hk[:, None] > 0, hk_lq, 0.0) + log_wr
        last = base + np.outer(2.0 * ks, np.log(0.5 * (1.0 + r * c[-1])))
        floor = last.max(axis=1, keepdims=True) + (math.log(gw[-1] / 2.0) - _WINDOW_CUT_NATS)
        kept = last + log_wc_max >= floor
        # log((1 + r c)/2) >= need  <=>  c >= (2 e^need - 1)/r; a row with
        # r = 0 is flat in c and keeps every column, and so does k = 0
        need = (floor - base - log_wc_max) / (2.0 * ks[:, None])
        c_min = np.where((r > 0) & (ks[:, None] > 0), (2.0 * np.exp(need) - 1.0) / r, -np.inf)
    pos = np.where(kept, np.searchsorted(c, c_min), c.size)
    j0 = np.maximum(pos.min(axis=1) - 1, 0)
    i0 = kept.argmax(axis=1)
    i1 = r.size - kept[:, ::-1].argmax(axis=1)
    return ks, lc, hk_lq, i0, i1, j0


def collective_tables(total_copies: int, prior: Prior, cos_order: int) -> CollectiveTables:
    """Reduced 2-D quadrature (radius x polar cosine) for the collective scheme.

    For spin label k the integrand is w2 * d on the (radial node r_i,
    cosine node c_j) grid, with w2 = wr_i wc_j and

        log d = log c_k + 2k log((1 + r_i c_j)/2) + (N/2 - k) log((1 - r_i^2)/4).

    Each label is summed only over its support window
    (:func:`_support_windows`): radial rows i0..i1 and cosine columns
    j0..end.  The cosine nodes ascend, so for k > 0 log d rises along a
    row, and the row's largest weighted entry is at most
    L_i = log d_i,last + log wr_i + log max(wc).  The weighted entries of
    the last column are entries, so the label's largest weighted entry is
    at least M = max_i (log d_i,last + log wr_i + log wc_last).  Rows with
    L_i < M - cut are dropped.  In a kept row, an entry is negligible when
    log((1 + r_i c)/2) < need_i = (M - cut - log c_k - (N/2 - k) log((1 -
    r_i^2)/4) - log wr_i - log max(wc))/(2k), that is when
    c < (2 e^need_i - 1)/r_i; j0 is the smallest ``searchsorted`` position
    of that bound over the kept rows, less one index of margin.  A row
    with r = 0 is flat in c and keeps every column, and so does k = 0.

    Every dropped entry is below e^-cut times the label's largest entry,
    hence below e^-cut prob[k].  With cut = 60 nats on the 256 x 512 grid
    (131072 entries) the mass left out is below
    131072 e^-60 prob[k] < 1.2e-21 prob[k], and the same bound holds for
    v_t and v_par, since |t| and |r c| are at most 1.  Inside the window
    log d is formed by the same floating-point operations as over the full
    grid (in place, and x + y rounds as y + x does), so every kept entry is
    bit-identical; only the order of the final sums differs.
    """
    _require_prior(SchemeKind.COLLECTIVE, prior)
    r = prior.radial_r
    t = prior.radial_t
    wr = prior.radial_w
    c, gw = gauss_legendre(cos_order)
    wc = gw / 2.0  # uniform sphere measure: integral dm g(cosΘ) = ∫ g(c) dc/2

    log_cos = np.log(0.5 * (1.0 + np.outer(r, c)))
    w2 = np.outer(wr, wc)
    w2_t = w2 * t[:, None]
    w2_rc = w2 * (r[:, None] * c[None, :])

    ks, lc, hk_lq, i0, i1, j0 = _support_windows(total_copies, prior, cos_order)
    prob = np.empty(ks.size)
    v_t = np.empty(ks.size)
    v_par = np.empty(ks.size)
    # One buffer holds every label's window: fresh window-sized arrays per
    # label left the process heap fragmented and its resident size larger.
    buf = np.empty(log_cos.size)
    for i, k in enumerate(ks):
        rows = slice(i0[i], i1[i])
        win = (rows, slice(j0[i], None))
        window = log_cos[win]
        d = buf[: window.size].reshape(window.shape)
        np.multiply(2.0 * k, window, out=d)
        d += lc[i]
        if total_copies / 2.0 - k > 0:
            d += hk_lq[i, rows, None]
        np.exp(d, out=d)
        prob[i] = float(np.einsum("ij,ij->", w2[win], d))
        v_t[i] = float(np.einsum("ij,ij->", w2_t[win], d))
        v_par[i] = float(np.einsum("ij,ij->", w2_rc[win], d))
    return CollectiveTables(
        total_copies=total_copies, k_values=ks, prob=prob, v_t=v_t, v_par=v_par
    )


def _collective_exact_value(tables: CollectiveTables) -> float:
    norm = np.hypot(tables.v_t, tables.v_par)
    return 0.5 * float(tables.prob.sum() + norm.sum())


# ---------------------------------------------------------------------------
# exact evaluation entry points


def _prior_at_orders(prior: Prior, radial_order, angular_order) -> Prior:
    """``prior`` at explicit quadrature orders; an unset order takes its default.

    Returns ``prior`` itself when both orders are unset or equal its own,
    and otherwise rebuilds it, so invalid orders (< 2) raise.
    """
    if radial_order is None and angular_order is None:
        return prior
    ro = radial_order if radial_order is not None else DEFAULT_RADIAL_ORDER
    ao = angular_order if angular_order is not None else DEFAULT_ANGULAR_ORDER
    if (ro, ao) == (prior.radial_order, prior.angular_order):
        return prior
    return build_prior(prior.kind, radial_order=ro, angular_order=ao)


def _stabilized_report(prior: Prior, radial_order, angular_order, evaluate, *, verify_down: bool):
    """Run ``evaluate(prior)`` with explicit orders, or auto-refine.

    With explicit orders (an unset one takes its default) ``evaluate`` runs
    once, on the given prior when its grid already has those orders and on
    a prior rebuilt at them otherwise.

    Auto mode climbs a ladder of grids, the given prior's and its orders
    doubled up to _MAX_DOUBLINGS times, and returns the result on the finer
    grid of the first consecutive pair whose fidelities differ by less than
    FIDELITY_STABLE_TOL.  With ``verify_down`` the ladder starts one rung
    lower, at half the given orders (rounded down), when both are at least
    4: a stable value is then the given grid's own, checked against the
    half grid, and the finer grids are built only when that check fails.
    Either way the finest grid probed has 8 times the given orders.
    """
    if radial_order is not None or angular_order is not None:
        return evaluate(_prior_at_orders(prior, radial_order, angular_order))
    ro, ao = prior.radial_order, prior.angular_order
    ladder = [(ro << i, ao << i) for i in range(_MAX_DOUBLINGS + 1)]
    if verify_down and min(ro, ao) >= 4:
        ladder.insert(0, (ro // 2, ao // 2))
    prev = evaluate(_prior_at_orders(prior, *ladder[0]))
    for orders in ladder[1:]:
        cur = evaluate(_prior_at_orders(prior, *orders))
        delta = abs(cur[0] - prev[0])
        if delta < FIDELITY_STABLE_TOL:
            return cur
        prev = cur
    raise QuadratureError(
        "fidelity did not stabilize under quadrature-order doubling", cur[0], delta
    )


def exact_fidelity(
    scheme: SchemeSpec,
    estimator: str,
    prior: Prior,
    *,
    radial_order: int | None = None,
    angular_order: int | None = None,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> FidelityReport:
    """Exact average fidelity by outcome enumeration and prior quadrature.

    With no explicit orders the quadrature is checked for stability to
    1e-8 (:func:`_stabilized_report`).  A local value is the given grid's
    own, verified against half its orders; only when that check fails are
    the orders doubled.  A collective value is that of the given grid's
    orders doubled, verified against the given grid.  ``estimator`` is one
    of "optimal", "ml", "tomography"; tomography averages over the physical
    outcomes only and reports the discarded mass
    (:func:`tomography_with_discard`).
    """
    _check_estimator(estimator, scheme.kind)
    check_enumerable(scheme.total_copies, enumeration_limit)
    _require_prior(scheme.kind, prior)

    if scheme.kind is SchemeKind.LOCAL_XY:
        guesses, kept = _fixed_guess_tables(scheme, estimator)

        def evaluate(p: Prior):
            tables = local_tables(scheme, p)
            if kept is None:
                return _local_exact_value(tables, guesses), None
            return _kept_exact_value(tables, guesses, kept)

    else:

        def evaluate(p: Prior):
            tables = collective_tables(scheme.total_copies, p, cos_order=p.angular_order)
            return _collective_exact_value(tables), None

    value, discarded = _stabilized_report(
        prior, radial_order, angular_order, evaluate,
        verify_down=scheme.kind is SchemeKind.LOCAL_XY,
    )
    return FidelityReport(
        scheme=scheme,
        estimator=estimator,
        copies=scheme.total_copies,
        fidelity=clamp_fidelity(value),
        stderr=0.0,
        method=Method.EXACT_ENUMERATION,
        discarded_fraction=None if discarded is None else min(max(discarded, 0.0), 1.0),
    )


def tomography_with_discard(
    scheme: SchemeSpec,
    prior: Prior,
    *,
    radial_order: int | None = None,
    angular_order: int | None = None,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> FidelityReport:
    """Linear-inversion estimation conditioned on physical outcomes.

    F = [sum_{x: R<=1} integral dρ f p] / [sum_{x: R<=1} integral dρ p];
    discarded_fraction = 1 - sum_{x: R<=1} integral dρ p.  Raises
    :class:`AllOutcomesDiscardedError` when no outcome is physical, which
    happens at N = 2 (every count pair has both frequencies extremal, so
    R = sqrt(2)).  Auto mode verifies the given grid downward against half
    its orders, as :func:`exact_fidelity` does for the local scheme; this
    is ``exact_fidelity(scheme, "tomography", prior, ...)``.
    """
    if scheme.kind is not SchemeKind.LOCAL_XY:
        raise ValueError("tomography-with-discarding is defined for the local x/y scheme")
    return exact_fidelity(
        scheme,
        "tomography",
        prior,
        radial_order=radial_order,
        angular_order=angular_order,
        enumeration_limit=enumeration_limit,
    )


# ---------------------------------------------------------------------------
# Monte Carlo
#
# The sampling loops run over blocks of whole samples.  A block's work
# arrays hold about _MC_BLOCK_ELEMS doubles (1 MB, inside one core's L2
# cache), are allocated once per call and are written in place.  Uniforms
# are drawn with ``rng.random(out=...)``, which fills row-major, so the
# random stream -- and every seeded report -- does not depend on the block
# size.

_MC_BLOCK_ELEMS = 1 << 17


def _block_rows(width: int, samples: int) -> int:
    """Samples per block when each sample needs ``width`` work entries."""
    return min(max(1, _MC_BLOCK_ELEMS // width), samples)


def _mc_report(
    scheme: SchemeSpec, estimator: str, f: np.ndarray, discarded_fraction: float | None = None
) -> FidelityReport:
    """Mean and standard error of per-sample fidelities (stderr 0 for one sample)."""
    stderr = float(np.std(f, ddof=1) / math.sqrt(f.size)) if f.size > 1 else 0.0
    return FidelityReport(
        scheme=scheme,
        estimator=estimator,
        copies=scheme.total_copies,
        fidelity=clamp_fidelity(float(f.mean())),
        stderr=stderr,
        method=Method.MONTE_CARLO,
        discarded_fraction=discarded_fraction,
    )


def _mc_draw_counts(rng, vecs: np.ndarray, n_half: int) -> tuple[np.ndarray, np.ndarray]:
    """Simulate per-axis +1 counts; one uniform per copy, row-major.

    Each sample's N uniforms are its x copies, then its y copies.
    """
    samples = vecs.shape[0]
    rows = _block_rows(2 * n_half, samples)
    u = np.empty((rows, 2, n_half))
    plus = np.empty((rows, 2, n_half), dtype=bool)
    q = 0.5 * (1.0 + vecs[:, :2])
    counts = np.empty((samples, 2), dtype=np.int64)
    for s in range(0, samples, rows):
        e = min(s + rows, samples)
        ub, pb = u[: e - s], plus[: e - s]
        rng.random(out=ub)
        np.less(ub, q[s:e, :, None], out=pb)
        counts[s:e] = np.count_nonzero(pb, axis=2)
    return counts[:, 0], counts[:, 1]


def _mc_local(
    scheme: SchemeSpec,
    estimator: str,
    prior: Prior,
    samples: int,
    seed,
) -> FidelityReport:
    n = scheme.n_per_axis
    rng = np.random.default_rng(seed)
    t_states, vecs = sample_states(prior.kind, samples, rng)
    kx, ky = _mc_draw_counts(rng, vecs, n)

    guesses, kept = _fixed_guess_tables(scheme, estimator)
    if guesses is None:
        guesses = _optimal_guess_tables(local_tables(scheme, prior))
    tg, gx, gy = guesses
    f = 0.5 * (1.0 + t_states * tg[kx, ky] + vecs[:, 0] * gx[kx, ky] + vecs[:, 1] * gy[kx, ky])
    if kept is None:
        return _mc_report(scheme, estimator, f)
    kept = kept[kx, ky]
    kept_count = int(kept.sum())
    if kept_count == 0:
        raise AllOutcomesDiscardedError(
            f"all {samples} simulated outcomes at N = {scheme.total_copies} were unphysical"
        )
    return _mc_report(scheme, estimator, f[kept], discarded_fraction=1.0 - kept_count / samples)


# expm1 is -1.0 below _EXPM1_IS_MINUS_ONE (e^-60 is 2e-10 of half an ulp
# of 1) and exp is 0.0 below _EXP_IS_ZERO (e^-746 is under half the
# smallest subnormal).
_EXPM1_IS_MINUS_ONE = -60.0
_EXP_IS_ZERO = -746.0


def _collective_fidelities(rng, tables: CollectiveTables, t_states, vecs) -> np.ndarray:
    """Per-sample fidelities of the optimal collective guess.

    Each sample draws two uniforms: its spin label k by inverse CDF over
    p(k|r), then the polar cosine of its state against the measured axis.
    The label CDFs of a block are built in two (rows x labels) buffers.
    Three shortcuts leave every value as in the direct evaluation
    (``tests/oracles.collective_fidelities_chunked``): the labels whose
    ``expm1`` argument is below :data:`_EXPM1_IS_MINUS_ONE` at every sample
    of the block take its log-value 0.0 without it; ``exp`` is not called
    on the entries below :data:`_EXP_IS_ZERO`, where it underflows to 0.0
    (slowly); and the label is found by bisection on the running sums,
    dividing only the probed ones by the total, since the normalised sums
    do not decrease and the last is 1.0, above every uniform.
    """
    N = tables.total_copies
    samples = t_states.size
    norm = np.hypot(tables.v_t, tables.v_par)
    g_t = tables.v_t / norm
    g_par = tables.v_par / norm
    r = np.sqrt(np.einsum("ij,ij->i", vecs, vecs))

    ks = tables.k_values
    K = ks.size
    logc = np.array([collective_log_weight(k, N) for k in ks])
    hk = N / 2.0 - ks
    m_exp = 2.0 * ks + 1.0

    rows = _block_rows(K, samples)
    u = np.empty((rows, 2))
    work = np.empty((rows, K))
    cum = np.empty((rows, K))
    zero = np.empty((rows, K), dtype=bool)
    f = np.empty(samples)
    for s in range(0, samples, rows):
        e = min(s + rows, samples)
        ub, lw, cw, zw = u[: e - s], work[: e - s], cum[: e - s], zero[: e - s]
        rng.random(out=ub)
        rr = r[s:e]
        tt = t_states[s:e]
        with np.errstate(divide="ignore"):  # r = 1 gives log_b = -inf
            log_a = np.log1p(rr) - math.log(2.0)
            log_b = np.log1p(-rr) - math.log(2.0)
        log_ratio = log_b - log_a
        # marginal over directions: p(k|r) = c_k ((1-r^2)/4)^(N/2-k) I_k(r),
        # I_k = (a^m - b^m)/(r m) with m = 2k+1, via expm1 for stability;
        # lw holds the tail log(1 - (b/a)^m) - log(r m) of log I_k; its first
        # term is 0.0 from label `head` on, where m log(b/a) is below the cut
        # at every sample (a NaN log(b/a), from r above 1, keeps every label)
        small = rr < 1e-12
        head = K - np.count_nonzero(m_exp * log_ratio.max() < _EXPM1_IS_MINUS_ONE)
        hw = lw[:, :head]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.multiply(log_ratio[:, None], m_exp[:head], out=hw)
            np.expm1(hw, out=hw)
            np.negative(hw, out=hw)
            np.log(hw, out=hw)
            lw[:, head:] = 0.0
            np.multiply(rr[:, None], m_exp, out=cw)
            np.log(cw, out=cw)
            np.subtract(lw, cw, out=lw)
        if small.any():
            lw[small] = math.log(2.0)
        # log I_k = m log a + tail; log p = (log c_k + (N/2 - k) log_quarter) + log I_k
        np.multiply(log_a[:, None], m_exp, out=cw)
        np.add(cw, lw, out=lw)
        log_quarter = 2.0 * np.log(np.maximum(tt, 1e-300)) - math.log(4.0)
        np.multiply(log_quarter[:, None], hk, out=cw)
        np.add(logc, cw, out=cw)
        np.add(cw, lw, out=lw)
        np.subtract(lw, lw.max(axis=1, keepdims=True), out=lw)
        np.less(lw, _EXP_IS_ZERO, out=zw)
        np.copyto(lw, 0.0, where=zw)
        np.exp(lw, out=lw)
        np.copyto(lw, 0.0, where=zw)
        np.cumsum(lw, axis=1, out=cw)
        idx = _first_at_or_above(cw, ub[:, 0])

        mm = m_exp[idx]
        a = 0.5 * (1.0 + rr)
        d = np.exp(mm * log_ratio)
        base = d + ub[:, 1] * (1.0 - d)
        with np.errstate(divide="ignore"):
            root = np.exp(np.log(np.maximum(base, 1e-300)) / mm)
        cos_th = np.where(small, 2.0 * ub[:, 1] - 1.0, (2.0 * a * root - 1.0) / np.maximum(rr, 1e-300))
        cos_th = np.clip(cos_th, -1.0, 1.0)
        f[s:e] = 0.5 * (1.0 + tt * g_t[idx] + g_par[idx] * (rr * cos_th))
    return f


def _first_at_or_above(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the first column j with cum[j] / cum[-1] >= u (row-wise bisection).

    The rows of ``cum`` are running sums of non-negative terms, so their
    normalised values do not decrease, and every u is below the last, 1.0.
    """
    n, K = cum.shape
    at = np.arange(n)
    total = cum[:, -1]
    lo = np.zeros(n, dtype=np.intp)
    hi = np.full(n, K - 1)
    for _ in range((K - 1).bit_length()):
        mid = (lo + hi) >> 1
        below = cum[at, mid] / total < u
        lo = np.where(below, mid + 1, lo)
        hi = np.where(below, hi, mid)
    return lo


def _mc_collective(
    scheme: SchemeSpec,
    prior: Prior,
    samples: int,
    seed,
) -> FidelityReport:
    tables = collective_tables(scheme.total_copies, prior, cos_order=prior.angular_order)
    rng = np.random.default_rng(seed)
    t_states, vecs = sample_states(prior.kind, samples, rng)
    return _mc_report(scheme, "optimal", _collective_fidelities(rng, tables, t_states, vecs))


def monte_carlo_fidelity(
    scheme: SchemeSpec,
    estimator: str,
    prior: Prior,
    samples: int,
    seed,
    *,
    radial_order: int | None = None,
    angular_order: int | None = None,
) -> FidelityReport:
    """Stochastic estimate of the average fidelity.

    Draw order is fixed: first all states (one batch), then outcome
    uniforms row by row — (samples, N) for the local scheme, (samples, 2)
    for the collective scheme (spin label, then polar cosine by inverse
    CDF).  The samples are processed in cache-sized blocks, and neither
    the stream nor any per-sample value depends on the block size, so the
    same seed yields a bit-identical report.  With a single sample the
    standard error is reported as 0 (no variance estimate exists), never
    NaN.  Explicit orders set the quadrature of the tables the optimal
    estimator is built from (an unset one takes its default); orders
    below 2 raise for every estimator.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _check_estimator(estimator, scheme.kind)
    _require_prior(scheme.kind, prior)
    prior = _prior_at_orders(prior, radial_order, angular_order)
    if scheme.kind is SchemeKind.LOCAL_XY:
        return _mc_local(scheme, estimator, prior, samples, seed)
    return _mc_collective(scheme, prior, samples, seed)


# ---------------------------------------------------------------------------
# adaptive local measurements

_GREEDY_AXES = 12
_GREEDY_RADIAL_ORDER = 32
_GREEDY_ANGULAR_ORDER = 64
_GREEDY_CHUNK = 128
# Axis scores within this relative distance of a sample's best score tie,
# and the tie goes to the lowest axis index.
_GREEDY_TIE_RTOL = 1e-13


def _greedy_pick(scores: np.ndarray) -> np.ndarray:
    """Best axis per row of (samples, axes) scores, ties to the lowest axis."""
    best = scores.max(axis=1, keepdims=True)
    return np.argmax(scores >= best * (1.0 - _GREEDY_TIE_RTOL), axis=1)


def _greedy_adaptive(prior: Prior, total_copies: int, samples: int, seed) -> np.ndarray:
    """Greedy-fidelity adaptive runs; returns per-sample fidelities."""
    grid = build_prior(
        prior.kind, radial_order=_GREEDY_RADIAL_ORDER, angular_order=_GREEDY_ANGULAR_ORDER
    )
    nodes4, w0 = grid.product_nodes()
    betas = np.pi * np.arange(_GREEDY_AXES) / _GREEDY_AXES
    cos_b, sin_b = np.cos(betas), np.sin(betas)
    # q_plus[j, node] = probability of the +1 outcome along axis j
    q_plus = 0.5 * (1.0 + cos_b[:, None] * nodes4[None, :, 1] + sin_b[:, None] * nodes4[None, :, 2])
    # post @ branch = [V | V_+(axis 0) | ... | V_+(axis 11)]: one GEMM per step
    branch = np.concatenate([nodes4] + [q[:, None] * nodes4 for q in q_plus], axis=1)
    # rows j and j + 12: likelihood factors of the +1 and -1 outcomes along axis j
    factors = np.concatenate([q_plus, 1.0 - q_plus])
    nodes_t = np.ascontiguousarray(nodes4.T)

    rng = np.random.default_rng(seed)
    t_states, vecs = sample_states(prior.kind, samples, rng)

    f = np.empty(samples)
    for s in range(0, samples, _GREEDY_CHUNK):
        e = min(s + _GREEDY_CHUNK, samples)
        S = e - s
        u = rng.random((S, total_copies))
        post = np.repeat(w0[None, :], S, axis=0)
        for step in range(total_copies):
            v = (post @ branch).reshape(S, _GREEDY_AXES + 1, 4)
            v_plus = v[:, 1:]
            v_minus = v[:, :1] - v_plus
            scores = np.sqrt(np.einsum("sjd,sjd->sj", v_plus, v_plus)) + np.sqrt(
                np.einsum("sjd,sjd->sj", v_minus, v_minus)
            )
            jstar = _greedy_pick(scores)
            q_true = 0.5 * (1.0 + vecs[s:e, 0] * cos_b[jstar] + vecs[s:e, 1] * sin_b[jstar])
            minus = u[:, step] >= q_true
            post *= factors[jstar + _GREEDY_AXES * minus]
            post /= post.sum(axis=1, keepdims=True)
        # one dot product per (sample, component): a GEMM's sums round
        # differently for different row counts, these do not
        v = np.vecdot(post[:, None, :], nodes_t)
        v /= np.sqrt(np.einsum("sd,sd->s", v, v))[:, None]
        f[s:e] = 0.5 * (
            1.0 + t_states[s:e] * v[:, 0] + vecs[s:e, 0] * v[:, 1] + vecs[s:e, 1] * v[:, 2]
        )
    return f


def adaptive_local_fidelity(
    prior: Prior, total_copies: int, policy: str, samples: int, seed
) -> FidelityReport:
    """Sequential single-copy measurements with policy-chosen axes.

    ``fixed-xy`` measures the first N/2 copies along x and the rest along
    y — exactly the local x/y scheme — and shares the Monte Carlo code
    path with :func:`monte_carlo_fidelity`, so its report is bit-identical
    to the plain local run.  ``greedy-fidelity`` picks, before each copy,
    the equatorial axis maximizing the expected posterior |V| (the
    expected fidelity of the optimal guess) on a quadrature posterior;
    the final guess is the optimal rule applied to the sequence posterior.
    Axes whose scores lie within a relative 1e-13 of the best one tie (the
    rotation-symmetric prior makes all twelve tie at the first copy), and
    a tie goes to the lowest axis index.  Round-off therefore cannot pick
    the axis, and the seeded report does not depend on how the samples
    are batched.
    """
    if policy not in ADAPTIVE_POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {ADAPTIVE_POLICIES}")
    if prior.kind is not PriorKind.EQUATORIAL_BURES:
        raise ValueError("adaptive local measurements estimate the equatorial ensemble")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    scheme = SchemeSpec(SchemeKind.LOCAL_XY, total_copies)
    if policy == "fixed-xy":
        return _mc_local(scheme, "optimal", prior, samples, seed)
    return _mc_report(scheme, "optimal", _greedy_adaptive(prior, total_copies, samples, seed))


# ---------------------------------------------------------------------------
# sweeps


def sweep(
    scheme_kind: SchemeKind,
    estimator: str,
    prior: Prior,
    copies_list,
    *,
    radial_order: int | None = None,
    angular_order: int | None = None,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> SweepResult:
    """Exact fidelity reports over a strictly increasing list of N.

    The list is checked before any evaluation runs.
    """
    ns = [int(n) for n in copies_list]
    _check_increasing(ns)
    points = []
    for n in ns:
        spec = SchemeSpec(scheme_kind, n)
        report = exact_fidelity(
            spec,
            estimator,
            prior,
            radial_order=radial_order,
            angular_order=angular_order,
            enumeration_limit=enumeration_limit,
        )
        points.append((n, report))
    return SweepResult(points=tuple(points))
