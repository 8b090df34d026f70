"""Average-fidelity evaluation for (scheme, estimator, prior) triples.

Three entry points:

* :func:`exact_fidelity` -- exact enumeration over outcomes with prior
  quadrature: F = sum_x integral dρ f(r⃗, R⃗(x)) p(x|r⃗).  For the optimal
  estimator this equals (sum_x P_x + sum_x |V(x)|)/2.
* :func:`monte_carlo_fidelity` -- simulate states and outcomes, estimate,
  average; stderr reported; bit-reproducible for a fixed seed.
* :func:`adaptive_local_fidelity` -- sequential single-copy measurements
  whose axes are chosen by a policy; estimation by the optimal rule on
  the full outcome-sequence likelihood.

The local x/y engine reduces every exact computation to (n+1) x (n+1)
count tables.  The ML and tomography guesses come from one rule per
outcome (:func:`_count_guesses`), which exact enumeration applies to every
count pair and Monte Carlo to the sampled ones.  The table engine finds
which of the reflections x -> -x, y -> -y and x <-> y map the prior onto
itself and integrates one direction per orbit of the group they generate.
Each flip it finds is folded into the binomial tables: that axis keeps
only the counts k >= n/2, with b(k) + b(n - k) in place of b(k), and
b(k) - b(n - k) for the vector component the flip negates.  The matrix
products then fill one quarter of each table; the swap adds that quarter
to its transpose, and the flips mirror it into the other rows and
columns.  The (radial node, direction) pairs are binned by their success
probabilities into tiles (one tile per batch up to n = 263 counts per
axis), and each tile's matrix products run only over the kept count rows
where one of its binomials, or its mirror, is within a factor 1e22 of its
largest value.  The work is serial and in a fixed order, so results are
bit-reproducible.
Auto mode checks a local value on the given grid against half its orders
and doubles the orders only when the two disagree.  A collective value is
taken on twice the given orders and checked against the exact value of the
full ball, which is a sum of Beta functions (:func:`_beta_tables`, O(N) and
no grid); the orders are doubled again only when the two disagree.
The collective engine exploits rotational invariance of the full-ball
ensemble: |V(k, m̂)| does not depend on m̂, so the direction integral
collapses and a 2-D (radius x polar-cosine) grid suffices.  That grid is
the full-ball prior itself, whose angular rule is a Gauss-Legendre rule in
the polar cosine (:func:`blochest.core.build_prior`), so a collective rung
costs a prior of O(radial + angular order) nodes.  Each spin
label k is summed only over its support window on that grid, the radial
rows and the top cosine columns outside of which every entry lies more
than 60 nats below the label's largest one.  Large k concentrate near
r = 1 and cosine 1: on the 128 x 256 and 256 x 512 grids the windows hold
46 % of the entries at N = 256 and 18 % at N = 1024.  Each row of a window
is its last-column density times cosine powers ((1 + r c)/(1 + r c_last))^2k,
which pass from one label to the next by one multiply per entry; a label's
three sums are one product of the window's powers with the cosine weights
and their cosine-weighted copy, then radial row sums.  The entries'
last bits therefore differ from a direct ``exp`` of each one: a carried
power's relative error grows by about 2 eps per label (eps the machine
epsilon).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    DEFAULT_ANGULAR_ORDER,
    DEFAULT_RADIAL_ORDER,
    Prior,
    PriorKind,
    build_prior,
    clamp_fidelity,
    sample_states,
)
from .estimators import ml_phi_batch
from .quadrature import QuadratureError
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
    "AllOutcomesDiscardedError",
    "EnumerationLimitError",
    "LocalTables",
    "local_tables",
    "collective_tables",
    "exact_fidelity",
    "monte_carlo_fidelity",
    "adaptive_local_fidelity",
    "ADAPTIVE_POLICIES",
]

# Auto-refinement returns the finer grid of the first consecutive pair on
# its ladder whose fidelities differ by less than this.
FIDELITY_STABLE_TOL = 1e-8
_MAX_DOUBLINGS = 3

EXACT_ESTIMATORS = ("optimal", "ml", "tomography")
ADAPTIVE_POLICIES = ("fixed-xy", "greedy-fidelity")
# the one ensemble each scheme estimates
SCHEME_PRIOR_KINDS = {
    SchemeKind.LOCAL_XY: PriorKind.EQUATORIAL_BURES,
    SchemeKind.COLLECTIVE: PriorKind.FULL_BURES,
}


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


def _require_prior(scheme_kind: SchemeKind, prior: Prior) -> None:
    if prior.kind is SCHEME_PRIOR_KINDS[scheme_kind]:
        return
    if scheme_kind is SchemeKind.LOCAL_XY:
        raise ValueError("the local x/y scheme estimates the equatorial ensemble")
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


# Columns (radial node x wedge direction) per batch: a batch forms its two
# (n+1) x _TABLE_CHUNK log binomial tables, its tiles exponentiate them in
# place, and one batch's tables are held at a time.
_TABLE_CHUNK = 1024
# A tile leaves out the binomial rows whose pmf is at most this fraction of
# the largest pmf of every column in the tile.
_SUPPORT_CUT = 1e-22

# The symmetries of the x/y count model are D4, generated by x -> -x,
# y -> -y and x <-> y.  Each is written (sx, sy, swap): scale (x, y) by
# the signs, then exchange them when ``swap``.  :func:`local_tables` folds
# the flips into the binomial tiles and applies the swap after them.
_REFLECTIONS = ((-1, 1, False), (1, -1, False), (1, 1, True))
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
    """The reflections in :data:`_REFLECTIONS` that fix the prior, and one direction per orbit.

    A reflection fixes the prior when it maps the weighted directions onto
    themselves.  That holds for none, one, both flips or all three: a flip
    and the swap give the other flip, so with one flip the swap is not
    tried (only round-off could pass it), and their group G is the products
    of their subsets.  Returns (gens, reps, rep_w): the reflections, the
    G-orbit representatives (each orbit's smallest index) and the orbit's
    angular weight over |G|, so that the sum of the images under G of the
    representatives' weighted tables (which :func:`local_tables` forms)
    gives the full angular sum.
    """
    xy = prior.directions[:, :2]
    w = prior.angular_w
    gens = []
    label = np.arange(w.size)  # after each g: the least index of j's orbit so far
    for g in _REFLECTIONS:
        if g[2] and len(gens) == 1:
            break
        perm = _direction_permutation(xy, w, g)
        if perm is not None:
            gens.append(g)
            label = np.minimum(label, label[perm])
    reps, member_of = np.unique(label, return_inverse=True)
    return gens, reps, np.bincount(member_of, weights=w) / 2 ** len(gens)


def _tiles_pay(n: int) -> bool:
    """Whether more than one tile per batch pays at n counts per axis.

    A folded axis keeps its n/2 rows k >= n/2.  A column with q = 1/2
    reaches d = sqrt(n ln(1/cut)/2) of them, and the tile holding it spans
    its cell's q range too, n/bins or about 2 sqrt(n) rows more, so the
    tile at q = 1/2 on both axes multiplies about ((d + 2 sqrt(n))/(n/2))^2
    of the products of one tile per batch.  Tiles pay only once that is
    below 3/4: n > (16/3)(sqrt(ln(1/cut)/2) + 2)^2, from n = 264 with the
    1e-22 cut.  That is where the measured break-even lies: over the two
    grids of local auto mode, 64 x 128 and 128 x 256, one tile was the
    faster at n = 128...224, the two tied at n = 256, and the tiles were
    the faster from n = 288 on.
    """
    return 3.0 * n > 16.0 * (math.sqrt(0.5 * math.log(1.0 / _SUPPORT_CUT)) + 2.0) ** 2


def _tile_spans(log_pmf: np.ndarray, starts: np.ndarray, flip: bool):
    """Row spans of each tile: the hull [lo, hi) of its columns' supports, and ``mid``.

    ``log_pmf`` is a (n+1, columns) log binomial table whose columns are
    grouped into tiles beginning at ``starts``.  A column's support is the
    rows whose log pmf exceeds the column's largest by more than
    log(_SUPPORT_CUT).  With ``flip`` the axis is folded: only the rows
    k >= ceil(n/2) are kept, row k stands for rows k and n - k, and rows
    lo..mid-1 hold every kept row whose mirror n - k is in some column's
    support.  Without it every row is kept and mid = lo.  Every kept row
    outside a tile's span is outside the support of each of its columns,
    and so is the mirror of every kept row from mid on.
    """
    support = log_pmf > log_pmf.max(axis=0) + math.log(_SUPPORT_CUT)
    K = support.shape[0]
    kept = K // 2 if flip else 0
    either = np.logical_or.reduceat(support[kept:], starts, axis=1)
    if flip:
        mirror = np.logical_or.reduceat(support[::-1][kept:], starts, axis=1)
    else:
        mirror = np.zeros_like(either)
    either |= mirror
    lo = kept + either.argmax(axis=0)
    mid = np.where(mirror.any(axis=0), K - mirror[::-1].argmax(axis=0), lo)
    return lo, K - either[::-1].argmax(axis=0), mid


def _tile_pmf(log_pmf: np.ndarray, x0: int, x1: int, mid: int, scale: np.ndarray):
    """(S, A * scale) over rows x0..x1-1 of a tile's log pmf table.

    S(k) = b(k) + b(n - k) and A(k) = b(k) - b(n - k) on rows x0..mid-1,
    S = A = b from mid on (:func:`_tile_spans`): the sums of a row and its
    mirror, for the tables a flip fixes and for the component it negates.
    ``scale`` multiplies A column by column (the mirror terms from mid on
    are below the cut, so they are left out).  S is the rows x0..x1-1 of
    ``log_pmf``, exponentiated in place; the tiles of a batch own disjoint
    columns.
    """
    n = log_pmf.shape[0] - 1
    k = mid - x0
    # before the in-place exp: at even n the middle row is its own mirror
    mirror = np.exp(log_pmf[n - mid + 1 : n - x0 + 1][::-1])
    s = np.exp(log_pmf[x0:x1], out=log_pmf[x0:x1])
    a = np.empty_like(s)
    np.subtract(s[:k], mirror, out=a[:k])
    s[:k] += mirror
    a[:k] *= scale
    np.multiply(s[k:], scale, out=a[k:])
    return s, a


def local_tables(spec: SchemeSpec, prior: Prior) -> LocalTables:
    """Accumulate the outcome tables for a local x/y scheme over a prior.

    The count model is invariant under x -> -x, y -> -y and x <-> y, which
    reverse table axes, negate v_x or v_y and transpose.  Which of those
    reflections map the prior's weighted directions onto themselves is read
    off the prior's arrays (:func:`_symmetry_wedge`), so only one direction
    per orbit of their group G is integrated (the wedge theta in [0, pi/4]
    for a uniform grid of 8k angles), and the sum of the wedge tables'
    images under G is formed as follows.

    * A flip in G folds its axis into the binomial tables: only the rows
      k >= ceil(n/2) are kept, with S(k) = b(k) + b(n - k) in place of b,
      and A(k) = b(k) - b(n - k) for the component the flip negates (v_x
      for x -> -x, v_y for y -> -y).  An axis whose flip is not in G keeps
      all n + 1 rows, with S = A = b.
    * The products add into the quarter of the tables the kept rows span;
      with the swap in G it is square and is added to its transpose (v_x
      to v_y's), once.
    * The rows k below ceil(n/2) of a folded axis are then copies of rows
      n - k, with the flipped component negated.  The tables are therefore
      exactly mirror-symmetric, v_x (v_y) exactly antisymmetric, with a
      middle row (column) of zeros at even n, and exactly transposed into
      each other with the swap.  The call holds one set of tables and a
      temporary of at most half of one table.

    Every (radial node, wedge direction) pair is a column with success
    probabilities q_x = (1 + r_x)/2 and q_y = (1 + r_y)/2, binomial tables
    b_x, b_y over the counts 0..n, and weight w.  The columns are binned
    into about sqrt(n)/2 cells per q axis, one cell up to n = 263
    (:func:`_tiles_pay`), and processed in batches of _TABLE_CHUNK; the
    columns of one cell in one batch form a tile.  A column's pmf falls
    below _SUPPORT_CUT times its largest value outside about
    +-10 sqrt(n q (1 - q)) of n q, so each tile multiplies only the kept
    rows of S_x and of S_y (or A) inside the hull of its columns' folded
    supports (:func:`_tile_spans`), one GEMM per table, and adds the result
    into the matching block of the tables.  A batch's log b_x and log b_y
    cover all n + 1 rows, each one rank-3 matrix product
    (:func:`~blochest.schemes.binom_log_pmf_matrix`), since the spans are
    read off them; only the tiles and their mirror rows are exponentiated.

    The dropped mass is bounded as follows.  A tile leaves out a kept row k
    of a folded axis only when both b(k) and b(n - k) are below the cut for
    each of its columns, the mirror term b(n - k) of a row it keeps only
    when that term is, and a row of an unfolded axis only when b(k) is.
    So every row an image of a column loses, in the unfolded tables, has
    pmf at most _SUPPORT_CUT, since a pmf is at most 1.  Summed over the
    |G| images, the column's dropped mass is then at most
    |G| w (sum_{k_x out} b_x sum b_y + sum b_x sum_{k_y out} b_y)
    <= 2 (n+1) _SUPPORT_CUT |G| w.  The weights of the columns times |G|
    sum to the prior's mass 1, so prob loses at most 2 (n+1) 1e-22, below
    2.1e-19 at the default enumeration limit (n = 1024), and so do v_t, v_x
    and v_y, whose factors t, r_x, r_y lie in [-1, 1].  Kept entries are
    the same sums of products as the image sum over full tables; only the
    summation order differs.
    """
    if spec.kind is not SchemeKind.LOCAL_XY:
        raise ValueError("local_tables expects the local x/y scheme")
    _require_prior(spec.kind, prior)
    n = spec.n_per_axis
    K = n + 1
    gens, reps, rep_w = _symmetry_wedge(prior)
    flip_x, flip_y, swap = (g in gens for g in _REFLECTIONS)
    # the first kept row of each axis: ceil(n/2) when its flip folds it
    lo_x, lo_y = (K // 2 if flip else 0 for flip in (flip_x, flip_y))
    n_r = prior.radial_r.size
    r = np.repeat(prior.radial_r, reps.size)
    t = np.repeat(prior.radial_t, reps.size)
    w = np.outer(prior.radial_w, rep_w).ravel()
    rx = r * np.tile(prior.directions[reps, 0], n_r)
    ry = r * np.tile(prior.directions[reps, 1], n_r)
    qx = 0.5 * (1.0 + rx)
    qy = 0.5 * (1.0 + ry)

    bins = max(1, math.isqrt(n) // 2) if _tiles_pay(n) else 1
    cell = np.minimum(qx * bins, bins - 1).astype(np.intp) * bins
    cell += np.minimum(qy * bins, bins - 1).astype(np.intp)
    by_cell = np.argsort(cell, kind="stable")
    cell, qx, qy, t, w, rx, ry = (a[by_cell] for a in (cell, qx, qy, t, w, rx, ry))

    tables = np.zeros((4, K, K))
    for s in range(0, w.size, _TABLE_CHUNK):
        c = slice(s, s + _TABLE_CHUNK)
        log_bx = binom_log_pmf_matrix(n, qx[c])
        log_by = binom_log_pmf_matrix(n, qy[c])
        starts = np.flatnonzero(np.diff(cell[c], prepend=-1))
        ends = np.append(starts[1:], log_bx.shape[1])
        x_spans = _tile_spans(log_bx, starts, flip_x)
        y_spans = _tile_spans(log_by, starts, flip_y)
        for a, b, x0, x1, xm, y0, y1, ym in zip(starts, ends, *x_spans, *y_spans):
            j = slice(s + a, s + b)
            sx, rx_ax = _tile_pmf(log_bx[:, a:b], x0, x1, xm, rx[j])
            wsy, wry_ay = _tile_pmf(log_by[:, a:b], y0, y1, ym, w[j] * ry[j])
            wsy *= w[j]
            block = tables[:, x0:x1, y0:y1]
            block[0] += sx @ wsy.T
            block[1] += sx @ (wsy * t[j]).T
            block[2] += rx_ax @ wsy.T
            block[3] += sx @ wry_ay.T
        # the batch's log tables (sx and wsy are views into them) go before
        # the next batch forms its own, so two batches' never coexist
        del log_bx, log_by, sx, wsy

    prob, v_t, v_x, v_y = tables
    if swap:  # lo_x == lo_y: the swap comes with both flips or with neither
        quarter = tables[:, lo_x:, lo_y:]
        tmp = np.empty_like(quarter[0])
        for table in quarter[:2]:
            np.copyto(tmp, table.T)
            table += tmp
        np.copyto(tmp, quarter[2].T)
        quarter[2] += quarter[3].T
        quarter[3] += tmp
    # Row (column) k < lo of a folded axis is row (column) n - k, with the
    # flipped component negated; one table at a time, so that no copy of
    # the whole set is made.
    if flip_x:
        for table in tables:
            table[:lo_x, lo_y:] = table[K - lo_x :, lo_y:][::-1]
        np.negative(v_x[:lo_x, lo_y:], out=v_x[:lo_x, lo_y:])
    if flip_y:
        for table in tables:
            table[:, :lo_y] = table[:, K - lo_y :][:, ::-1]
        np.negative(v_y[:, :lo_y], out=v_y[:, :lo_y])
    return LocalTables(n_per_axis=n, prob=prob, v_t=v_t, v_x=v_x, v_y=v_y)


def _to_wedge(n: int, kx: np.ndarray, ky: np.ndarray):
    """Map count arrays into the wedge k_x >= k_y >= n/2, one outcome per D4 orbit.

    Returns (wx, wy, flip_x, flip_y, swap): the wedge counts and the
    reflections that carry (k_x, k_y) there, in this order: x -> -x
    (k_x -> n - k_x) when 2 k_x < n, y -> -y when 2 k_y < n, then x <-> y
    when the flipped k_x is below the flipped k_y.
    """
    flip_x = 2 * kx < n
    flip_y = 2 * ky < n
    fx = np.where(flip_x, n - kx, kx)
    fy = np.where(flip_y, n - ky, ky)
    swap = fx < fy
    return np.where(swap, fy, fx), np.where(swap, fx, fy), flip_x, flip_y, swap


def _ml_boundary(n: int, kx: np.ndarray, ky: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos phi, sin phi) of the ML boundary azimuth at unphysical counts.

    The count model's D4 symmetries act on phi as on directions, so each
    outcome is carried into the wedge (:func:`_to_wedge`), each distinct
    wedge outcome is solved once by :func:`ml_phi_batch`, and its
    (cos phi, sin phi) is carried back: exchanged on a swap, then sin
    negated on a y-flip and cos on an x-flip.  Exchanges and negations are
    exact, so an outcome's guess does not depend on which other outcomes
    are passed with it.
    """
    wx, wy, flip_x, flip_y, swap = _to_wedge(n, kx, ky)
    codes, row = np.unique(wx * (n + 1) + wy, return_inverse=True)
    phi = ml_phi_batch(codes // (n + 1) / n, codes % (n + 1) / n)
    c = np.cos(phi)[row]
    s = np.sin(phi)[row]
    c, s = np.where(swap, s, c), np.where(swap, c, s)
    return np.where(flip_x, -c, c), np.where(flip_y, -s, s)


def _count_guesses(estimator: str, n: int, kx, ky):
    """(t, x, y) guesses of the ML or tomography estimator at counts (kx, ky), and the kept mask.

    Any integer arrays of counts serve: exact enumeration passes
    ``np.indices((n + 1, n + 1))``, Monte Carlo the sampled counts.  An
    outcome is physical when (2 k_x - n)^2 + (2 k_y - n)^2 <= n^2 in
    integers; there both estimators guess the tomographic point
    (x, y) = (2 k_x/n - 1, 2 k_y/n - 1) with t = sqrt(1 - x^2 - y^2).
    Tomography keeps only the physical outcomes (the mask; its guesses
    elsewhere are never read).  ML keeps every outcome (mask None) and
    guesses the pure state at the boundary azimuth (:func:`_ml_boundary`)
    off the disc.
    """
    kx = np.asarray(kx)
    ky = np.asarray(ky)
    kept = np.square(2 * kx - n) + np.square(2 * ky - n) <= n * n
    if estimator == "ml":
        off = ~kept
        bx, by = _ml_boundary(n, kx[off], ky[off])
    # t = 1 - (x^2 + y^2) starts in y's square and y is formed again after,
    # so at most three count-sized float arrays are live at once
    t = 2.0 * (ky / n) - 1.0
    t *= t
    x = 2.0 * (kx / n) - 1.0
    t += x * x
    np.subtract(1.0, t, out=t)
    np.sqrt(np.maximum(t, 0.0, out=t), out=t)
    y = 2.0 * (ky / n) - 1.0
    if estimator == "tomography":
        return (t, x, y), kept
    t[off] = 0.0
    x[off] = bx
    y[off] = by
    return (t, x, y), None


def _optimal_guess_tables(tables: LocalTables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """V(x)/|V(x)| for every outcome; the unit t axis where V(x) is 0.

    The support tiles leave outcomes of negligible mass with exactly zero
    tables at large n; they have probability 0, so any unit guess serves.
    """
    norm = np.sqrt(tables.v_t**2 + tables.v_x**2 + tables.v_y**2)
    zero = norm == 0.0
    with np.errstate(invalid="ignore"):
        guesses = tables.v_t / norm, tables.v_x / norm, tables.v_y / norm
    for g, fill in zip(guesses, (1.0, 0.0, 0.0)):
        g[zero] = fill
    return guesses


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


@functools.lru_cache(maxsize=128)
def _label_log_weights(total_copies: int) -> np.ndarray:
    """log c_k of every spin label of N copies, read-only (cached per N)."""
    ks = collective_k_values(total_copies)
    lc = np.array([collective_log_weight(k, total_copies) for k in ks])
    lc.flags.writeable = False
    return lc


def _support_windows(total_copies: int, prior: Prior):
    """The spin labels of :func:`collective_tables` and the support window of each.

    Returns (ks, lc, hk_lq, i0, i1, j0): the labels k, log c_k,
    (N/2 - k) log((1 - r_i^2)/4) for every label and radial node (0 for
    k = N/2), and the windows, radial rows i0 <= i < i1 and cosine columns
    j >= j0.  Entry (i, j) of label k has the bound
    B_ij = log d_ij + log wr_i + log max(wc).  Outside its window every
    B_ij lies below the floor max_i (log d_i,last + log wr_i) + log wc_last
    - cut, and so does column j0 when j0 > 0: one column of margin for
    round-off in the inversion.  ``searchsorted`` does not decrease in its
    argument and sorts NaN last, so j0 comes from one search per label, of
    the least cosine bound over the kept rows (``np.fmin`` skips NaN).
    """
    r = prior.radial_r
    c, wc = prior.directions[:, 2], prior.angular_w
    ks = collective_k_values(total_copies)
    lc = _label_log_weights(total_copies)
    hk = total_copies / 2.0 - ks
    log_wc_max = math.log(wc.max())
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # log((1 - r^2)/4) = 2 log t - log 4, with t = cos u exact near r = 1
        hk_lq = np.outer(hk, 2.0 * np.log(prior.radial_t) - math.log(4.0))
        hk_lq[hk <= 0] = 0.0  # the top label has no (1 - r^2)/4 factor
        base = lc[:, None] + hk_lq
        base += np.log(prior.radial_w)
        last = np.multiply.outer(2.0 * ks, np.log(0.5 * (1.0 + r * c[-1])))
        last += base
        floor = last.max(axis=1) + (math.log(wc[-1]) - _WINDOW_CUT_NATS)
        last += log_wc_max
        kept = last >= floor[:, None]
        # only the kept rows' cosine bounds are searched:
        # log((1 + r c)/2) >= need  <=>  c >= (2 e^need - 1)/r; a row with
        # r = 0 is flat in c and keeps every column, and so does k = 0
        li = np.repeat(np.arange(ks.size), np.count_nonzero(kept, axis=1))
        rk = np.broadcast_to(r, kept.shape)[kept]
        need = (floor[li] - base[kept] - log_wc_max) / (2.0 * ks[li])
        c_min = np.where((rk > 0) & (ks[li] > 0), (2.0 * np.exp(need) - 1.0) / rk, -np.inf)
    lowest = np.full(ks.size, np.inf)
    np.fmin.at(lowest, li, c_min)
    j0 = np.maximum(np.searchsorted(c, lowest) - 1, 0)
    i0 = kept.argmax(axis=1)
    i1 = r.size - kept[:, ::-1].argmax(axis=1)
    return ks, lc, hk_lq, i0, i1, j0


def collective_tables(total_copies: int, prior: Prior) -> CollectiveTables:
    """Reduced 2-D quadrature (radius x polar cosine) for the collective scheme.

    ``prior`` is the full-ball ensemble.  Its radial rule makes one axis of
    the grid, and its angular rule the other: the polar cosines c_j are
    its directions' z components, ascending, and wc_j its angular weights.

    For spin label k the integrand is wr_i wc_j d_ij on the (radial node
    r_i, cosine node c_j) grid, with x_ij = (1 + r_i c_j)/2 and

        d_ij = c_k ((1 - r_i^2)/4)^(N/2 - k) x_ij^(2k).

    **Support windows.**  Each label is summed only over its window
    (:func:`_support_windows`): radial rows i0..i1 and cosine columns
    j0..end.  The cosine nodes ascend, so for k > 0 log d rises along a
    row, and the row's largest weighted entry is at most
    L_i = log d_i,last + log wr_i + log max(wc).  The weighted entries of
    the last column are entries, so the label's largest weighted entry is
    at least M = max_i (log d_i,last + log wr_i + log wc_last).  Rows with
    L_i < M - cut are dropped.  In a kept row, an entry is negligible when
    log x_ij < need_i = (M - cut - log c_k - (N/2 - k) log((1 - r_i^2)/4)
    - log wr_i - log max(wc))/(2k), that is when c < (2 e^need_i - 1)/r_i;
    j0 is the ``searchsorted`` position of the least such bound over the
    kept rows, less one index of margin.  A row with r = 0 is flat in c and
    keeps every column, and so does k = 0.  Every dropped entry is below
    e^-cut times the label's largest entry, hence below e^-cut prob[k].
    With cut = 60 nats on the 256 x 512 grid (131072 entries) the mass left
    out is below 131072 e^-60 prob[k] < 1.2e-21 prob[k], and the same bound
    holds for v_t and v_par, since |t| and |r c| are at most 1.

    **Cosine power moments.**  A row factors into its last column times a
    cosine power, d_ij = d_i,last P_ij with P_ij = (x_ij / x_i,last)^(2k)
    <= 1, so

        prob[k] = sum_i w_i M0_i,   v_t[k] = sum_i w_i t_i M0_i,
        v_par[k] = sum_i w_i r_i M1_i,

    with the row weights w_i = wr_i d_i,last = wr_i exp(log c_k + (N/2 - k)
    log((1 - r_i^2)/4) + 2k log x_i,last) and the moments
    (M0_i, M1_i) = sum_j P_ij (wc_j, wc_j c_j), one matrix product of the
    window's powers with the (columns x 2) matrix [wc, wc c].  The labels
    rise in unit steps, so label k + 1's powers are label k's times the
    step S_ij = e^(2 L_ij), with L_ij = log x_ij - log x_i,last: one
    multiply per window entry.  The windows' rows i0 and i1 and column j0
    do not decrease with k on the grids of the benchmark, so from one label
    to the next rows only leave or enter, and columns only leave; a row
    that enters is seeded by P_ij = e^(2k L_ij), one ``exp`` per entry.
    The rows a window shares with the previous one are carried only when
    its j0 is not below the previous j0; all other rows are seeded, so the
    values do not rest on that pattern.  Powers only shrink as k grows, so
    one that underflows stays below 2^-1022 times its row's last entry.

    **Round-off.**  Kept entries are not bit-identical to those of the
    window engine that exponentiates each entry (``tests/oracles.py``,
    ``collective_tables_windowed``).  To first order in u = 2^-53, with
    each ``exp`` within one ulp (2u) and both engines reading the same
    log x_ij and log((1 - r_i^2)/4), take per label k (index i) its window
    of n_r rows and n_c columns, A = the largest
    |log c_k| + |(N/2 - k) log((1 - r^2)/4)| + |2k log x_last| over its
    rows and Lambda = the largest |L_ij| in it:

    * here a row weight errs by at most (2A + 3)u: two sums, one product,
      the ``exp`` and wr.  L_ij is rounded once and enters the power as
      2k L_ij, 2k Lambda u; a seed at label k0 adds (2 k0 Lambda + 2)u and
      each of the m <= i carried steps 3u (the ``exp`` of S and the
      multiply), so a power errs by at most (4k Lambda + 3i + 2)u.  A row
      carried from the first label grows by about 2k eps (eps = 2u); on
      the 128 x 256 grid at N = 4096 prob[k] and the window engine's
      differ by at most 8.7e-14 of prob[k].
      The moments and row sums add n_c + n_r + 2 roundings of magnitudes
      at most prob[k] (|t|, |r c| <= 1);
    * the window engine's exponent 2k log x_ij + log c_k + (N/2 - k) log
      ((1 - r^2)/4) errs by at most 3(A + 2k Lambda)u, its ``exp`` by 2u,
      its weight products by 3u, and its sum of n_r n_c terms by n_r n_c u.

    So every field of label k differs from the window engine's by at most
    (5A + 10k Lambda + 3i + n_c + n_r + n_r n_c + 13) u prob[k].
    """
    _require_prior(SchemeKind.COLLECTIVE, prior)
    r = prior.radial_r
    t = prior.radial_t
    c, wc = prior.directions[:, 2], prior.angular_w
    moment_w = np.stack((wc, wc * c), axis=1)
    row_t_r = np.stack((np.ones_like(r), t, r))

    ks, lc, hk_lq, i0, i1, j0 = _support_windows(total_copies, prior)
    # One block holds the three grid arrays, filled in place, so the call
    # makes one grid-sized allocation: separate ones can stay behind as free
    # heap space, and so in the process's resident size.
    log_x, step, power = np.empty((3, r.size, c.size))
    np.multiply.outer(r, c, out=log_x)
    log_x += 1.0
    log_x *= 0.5
    np.log(log_x, out=log_x)
    # each label's row weights wr_i d_i,last, in place of hk_lq
    row_w = hk_lq
    row_w += lc[:, None]
    row_w += np.multiply.outer(2.0 * ks, log_x[:, -1])
    np.exp(row_w, out=row_w)
    row_w *= prior.radial_w
    log_x -= log_x[:, -1:]
    np.multiply(2.0, log_x, out=step)
    np.exp(step, out=step)
    prob = np.empty(ks.size)
    v_t = np.empty(ks.size)
    v_par = np.empty(ks.size)
    # rows held..held_end of `power` hold the previous label's powers from
    # column held_j on
    held, held_end, held_j = 0, 0, c.size
    windows = zip(ks.tolist(), i0.tolist(), i1.tolist(), j0.tolist())
    for i, (k, lo, hi, j) in enumerate(windows):
        a, b = max(lo, held), min(hi, held_end)
        if j < held_j or a >= b:
            a = b = lo
        carried = power[a:b, j:]
        np.multiply(carried, step[a:b, j:], out=carried)
        for s0, s1 in ((lo, a), (b, hi)):
            if s1 > s0:
                seed = power[s0:s1, j:]
                np.multiply(2.0 * k, log_x[s0:s1, j:], out=seed)
                np.exp(seed, out=seed)
        held, held_end, held_j = lo, hi, j
        moments = power[lo:hi, j:] @ moment_w[j:]
        sums = (row_w[i, lo:hi] * row_t_r[:, lo:hi]) @ moments
        prob[i], v_t[i], v_par[i] = sums[0, 0], sums[1, 0], sums[2, 1]
    return CollectiveTables(
        total_copies=total_copies, k_values=ks, prob=prob, v_t=v_t, v_par=v_par
    )


def _collective_exact_value(tables: CollectiveTables) -> float:
    norm = np.hypot(tables.v_t, tables.v_par)
    return 0.5 * float(tables.prob.sum() + norm.sum())


# ell(x) = log(Gamma(x + 1/2)/(Gamma(x) sqrt(x))) ~ sum_j _ELL_SERIES[j] x^-(2j + 1),
# the coefficients (-1)^n (2^(1-n) - 2) B_n/(n (n - 1)) for even n = 2..10.
# From x = 24 on the first term left out, 691/(180224 x^11), is below
# 3e-18; smaller arguments are shifted up to there.
_ELL_SERIES = (-1.0 / 8.0, 1.0 / 192.0, -1.0 / 640.0, 17.0 / 14336.0, -31.0 / 18432.0)
_ELL_SERIES_FROM = 24.0


def _ell(x: np.ndarray) -> np.ndarray:
    """ell(x) = log(Gamma(x + 1/2)/(Gamma(x) sqrt(x))) for x > 0, elementwise.

    An argument below _ELL_SERIES_FROM is shifted up by s unit steps to
    x + s >= _ELL_SERIES_FROM, with
    ell(x) = ell(x + 1) + log1p(-1/(2x + 1)^2)/2: the series is summed at
    x + s, and the s shift terms, summed smallest first, are added to it.
    """
    steps = np.maximum(np.ceil(_ELL_SERIES_FROM - x), 0.0)
    y = x + steps
    inv_sq = 1.0 / (y * y)
    out = np.full_like(y, _ELL_SERIES[-1])
    for c in _ELL_SERIES[-2::-1]:
        out *= inv_sq
        out += c
    out /= y
    shifted = np.flatnonzero(steps)
    if shifted.size:
        # column j holds the term at x + j, the columns from the last one down
        j = np.arange(int(_ELL_SERIES_FROM))[::-1]
        z = 2.0 * (x[shifted, None] + j) + 1.0
        terms = 0.5 * np.log1p(-1.0 / (z * z))
        terms[j >= steps[shifted, None]] = 0.0
        out[shifted] += np.cumsum(terms, axis=1)[:, -1]
    return out


def _beta_loss(total_copies: int, k: np.ndarray) -> np.ndarray:
    """1 - g_k^2 for spin labels k of N copies, g_k = |V_k|/prob[k] on the full Bures ball.

    With a = N/2 + k + 3/2 and b = N/2 - k + 1/2 (a + b = N + 2,
    a - b = 2k + 1) the Beta forms of :func:`_beta_tables` give
    g_t = 2 sqrt(a b) e^(ell(a) + ell(b))/(N + 3) and g_par = 2k/(N + 3),
    so that, with no cancellation,

        1 - g_k^2 = [2N + 4k + 6 - ((N + 2)^2 - (2k + 1)^2) E_k]/(N + 3)^2,

    E_k = expm1(2 ell(a) + 2 ell(b)) < 0 (:func:`_ell`).
    """
    n = float(total_copies)
    a = n / 2.0 + k + 1.5
    b = n / 2.0 - k + 0.5
    e = np.expm1(2.0 * (_ell(a) + _ell(b)))
    four_ab = (n + 2.0) ** 2 - np.square(2.0 * k + 1.0)
    return (2.0 * n + 4.0 * k + 6.0 - four_ab * e) / (n + 3.0) ** 2


def _beta_tables(total_copies: int) -> CollectiveTables:
    """The collective tables of the full Bures ball in closed form: no grid, O(N).

    The full ball's radial density is (4/pi) r^2/sqrt(1 - r^2).  With
    x = (1 + r)/2, so that (1 - r^2)/4 = x (1 - x), a label's integrals
    are Beta integrals; with c_k = C(N, N/2 + k) (2k + 1)^2/(N/2 + k + 1),

        prob[k] = (4/pi) c_k B(N/2 + k + 3/2, N/2 - k + 1/2)/(N + 2),
        v_t[k] = (8/pi) c_k B(N/2 + k + 2, N/2 - k + 1)/(N + 3),
        v_par[k] = prob[k] 2k/(N + 3).

    The masses need no log Gamma: with m = N/2 + k,
    prob[k + 1]/prob[k] = (1 + (2k + 2)/((m + 2)(2N - 2m - 1)))
    ((2k + 3)/(2k + 1))^2 > 1, so a running sum of the log ratios from the
    top label down, exponentiated and normalised (the masses sum to 1
    exactly), gives them.  v_t is prob[k] g_t with
    g_t^2 = (1 - g_par^2) - (1 - g_k^2): the first term is
    (N + 3 - 2k)(N + 3 + 2k)/(N + 3)^2, a product of integers, and the
    second comes from :func:`_beta_loss`.
    """
    n = float(total_copies)
    k = collective_k_values(total_copies)
    m = n / 2.0 + k
    step = np.log1p((2.0 * k[:-1] + 2.0) / ((m[:-1] + 2.0) * (2.0 * n - 2.0 * m[:-1] - 1.0)))
    step += 2.0 * np.log1p(2.0 / (2.0 * k[:-1] + 1.0))
    # log(prob[top]/prob[k]), summed from the top label, where the mass is
    log_drop = np.zeros(k.size)
    np.cumsum(step[::-1], out=log_drop[-2::-1])
    prob = np.exp(-log_drop)
    prob /= prob.sum()
    g_t_sq = (n + 3.0 - 2.0 * k) * (n + 3.0 + 2.0 * k) / (n + 3.0) ** 2
    g_t_sq -= _beta_loss(total_copies, k)
    return CollectiveTables(
        total_copies=total_copies,
        k_values=k,
        prob=prob,
        v_t=prob * np.sqrt(g_t_sq),
        v_par=prob * (2.0 * k / (n + 3.0)),
    )


# ---------------------------------------------------------------------------
# exact evaluation entry points


def _prior_at_orders(prior: Prior, radial_order, angular_order) -> Prior:
    """``prior`` at the given quadrature orders, for :func:`exact_fidelity`.

    With both unset that is ``prior`` itself; otherwise an unset order takes
    its default, orders below 2 raise, and the prior is rebuilt unless its
    grid already has those orders.  Explicit orders mean "no refinement";
    auto mode reaches each rung of its ladder through here too.
    """
    if radial_order is None and angular_order is None:
        return prior
    ro = radial_order if radial_order is not None else DEFAULT_RADIAL_ORDER
    ao = angular_order if angular_order is not None else DEFAULT_ANGULAR_ORDER
    if ro < 2 or ao < 2:
        raise ValueError("quadrature orders must be >= 2")
    if (ro, ao) == (prior.radial_order, prior.angular_order):
        return prior
    return build_prior(prior.kind, ro, ao)


def _stabilized_report(prior: Prior, radial_order, angular_order, evaluate):
    """Run a local ``evaluate`` on the prior at explicit orders, or auto-refine.

    ``evaluate`` takes the prior at one set of orders
    (:func:`_prior_at_orders`), which is built only when its orders differ
    from the given prior's.

    With explicit orders (an unset one takes its default, and orders below
    2 raise) ``evaluate`` runs once.

    Auto mode climbs a ladder of orders, the given prior's and its orders
    doubled up to _MAX_DOUBLINGS times, and returns the result at the finer
    orders of the first consecutive pair whose fidelities differ by less
    than FIDELITY_STABLE_TOL.  The ladder starts one rung lower, at half the
    given orders (rounded down), when both are at least 4: a stable value is
    then the given grid's own, checked against the half grid, and the finer
    orders are tried only when that check fails.  Either way the finest
    orders probed are 8 times the given ones.
    """
    if radial_order is not None or angular_order is not None:
        return evaluate(_prior_at_orders(prior, radial_order, angular_order))
    ro, ao = prior.radial_order, prior.angular_order
    ladder = [(ro << i, ao << i) for i in range(_MAX_DOUBLINGS + 1)]
    if min(ro, ao) >= 4:
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


def _collective_value(total_copies: int, prior: Prior, radial_order, angular_order) -> float:
    """The collective F on the full-ball grid at explicit orders, or checked in auto mode.

    With explicit orders (as for :func:`_stabilized_report`) the grid at
    those orders is integrated once.  Auto mode integrates the grid at the
    given prior's orders doubled, and doubled again up to _MAX_DOUBLINGS
    times, and returns the first value within FIDELITY_STABLE_TOL of the
    exact value of :func:`_beta_tables`; past 8 times the given orders it
    raises :class:`QuadratureError` with the last distance from it.
    """

    def on_grid(rung: Prior) -> float:
        return _collective_exact_value(collective_tables(total_copies, rung))

    if radial_order is not None or angular_order is not None:
        return on_grid(_prior_at_orders(prior, radial_order, angular_order))
    exact = _collective_exact_value(_beta_tables(total_copies))
    ro, ao = prior.radial_order, prior.angular_order
    for i in range(1, _MAX_DOUBLINGS + 1):
        value = on_grid(_prior_at_orders(prior, ro << i, ao << i))
        distance = abs(value - exact)
        if distance < FIDELITY_STABLE_TOL:
            return value
    raise QuadratureError(
        "collective fidelity did not reach its exact value under quadrature-order doubling",
        value,
        distance,
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

    With no explicit orders the quadrature is checked to 1e-8.  A local
    value is the given grid's own, verified against half its orders; only
    when that check fails are the orders doubled
    (:func:`_stabilized_report`).  A collective value is that of the given
    grid's orders doubled, verified against the exact value of the Beta
    forms (:func:`_beta_tables`); only when that check fails are the orders
    doubled again (:func:`_collective_value`).  ``estimator`` is one of
    "optimal", "ml", "tomography"; the last two need the local scheme.

    Tomography is linear inversion that keeps only the outcomes whose
    point is physical: F = [sum_{x: R<=1} integral dρ f p] /
    [sum_{x: R<=1} integral dρ p], and the report's discarded_fraction is
    1 - sum_{x: R<=1} integral dρ p.  When no outcome is physical it
    raises :class:`AllOutcomesDiscardedError`; this happens at N = 2,
    where every count pair has both frequencies extremal, so R = sqrt(2).
    """
    _check_estimator(estimator, scheme.kind)
    check_enumerable(scheme.total_copies, enumeration_limit)
    _require_prior(scheme.kind, prior)

    if scheme.kind is SchemeKind.LOCAL_XY:
        guesses = kept = None  # the optimal guesses come from the tables
        if estimator != "optimal":
            n = scheme.n_per_axis
            guesses, kept = _count_guesses(estimator, n, *np.indices((n + 1, n + 1)))
        if kept is not None and not kept.any():
            raise AllOutcomesDiscardedError(
                f"every outcome at N = {scheme.total_copies} is unphysical (R > 1); "
                "the kept-only average is undefined"
            )

        def evaluate(rung: Prior):
            tables = local_tables(scheme, rung)
            if kept is None:
                return _local_exact_value(tables, guesses), None
            return _kept_exact_value(tables, guesses, kept)

        value, discarded = _stabilized_report(prior, radial_order, angular_order, evaluate)
    else:
        value = _collective_value(scheme.total_copies, prior, radial_order, angular_order)
        discarded = None
    return FidelityReport(
        scheme=scheme,
        estimator=estimator,
        copies=scheme.total_copies,
        fidelity=clamp_fidelity(value),
        stderr=0.0,
        method=Method.EXACT_ENUMERATION,
        discarded_fraction=None if discarded is None else min(max(discarded, 0.0), 1.0),
    )


# ---------------------------------------------------------------------------
# Monte Carlo
#
# A local sample draws its two counts as binomials, and a collective sample
# its spin label from one binomial and one search of the N/2 + 1 log
# binomials, which a call forms once, so no sample's cost grows faster than
# log N.  Every draw is vectorized over the samples.


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


def _mc_local(
    scheme: SchemeSpec,
    estimator: str,
    prior: Prior,
    samples: int,
    seed,
    enumeration_limit: int,
) -> FidelityReport:
    if estimator == "optimal":  # its guesses are read from the (n+1) x (n+1) tables
        check_enumerable(scheme.total_copies, enumeration_limit)
    n = scheme.n_per_axis
    rng = np.random.default_rng(seed)
    t_states, vecs = sample_states(prior.kind, samples, rng)
    kx, ky = rng.binomial(n, 0.5 * (1.0 + vecs[:, :2])).T
    # the x/y scheme never reads z: holding x and y, not the (samples, 3)
    # vectors, keeps every later stage below the state draws' memory peak
    vx, vy = vecs[:, 0].copy(), vecs[:, 1].copy()
    del vecs
    if estimator == "optimal":
        tg, gx, gy = (a[kx, ky] for a in _optimal_guess_tables(local_tables(scheme, prior)))
        kept = None
    else:
        (tg, gx, gy), kept = _count_guesses(estimator, n, kx, ky)
    del kx, ky  # free the counts before the fidelities' temporaries
    f = 0.5 * (1.0 + t_states * tg + vx * gx + vy * gy)
    if kept is None:
        return _mc_report(scheme, estimator, f)
    kept_count = int(kept.sum())
    if kept_count == 0:
        raise AllOutcomesDiscardedError(
            f"all {samples} simulated outcomes at N = {scheme.total_copies} were unphysical"
        )
    return _mc_report(scheme, estimator, f[kept], discarded_fraction=1.0 - kept_count / samples)


def _spin_label_index(total_copies: int, n1: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Spin-label indices from binomial counts ``n1`` ~ Bin(N, (1 + r)/2) and uniforms ``u``.

    The label is k = M - S/2 for the endpoint S and running maximum M of a
    +-1 walk of N steps with n1 up-steps (Pitman's 2M - X), and every path
    to that endpoint is equally likely.  With x = N/2 + k and
    x0 = max(n1, N - n1), reflection gives P(x' >= x | n1) = C(N, x)/C(N, x0)
    for x0 <= x <= N, so the label is the largest x with
    log C(N, x) >= log C(N, x0) + log(1 - u).  From h = ceil(N/2) on,
    log(C(N, x)/C(N, h)) is a running sum of the negative terms
    log((N - x')/(x' + 1)), h <= x' < x, so it decreases, and one search
    of it finds x.  The sum is formed on every call, in O(N) like the
    tables, so no table per N outlives the call.
    """
    half = (total_copies + 1) // 2
    x = np.arange(half, total_copies, dtype=float)
    tail = np.zeros(total_copies - half + 1)
    np.cumsum(np.log((total_copies - x) / (x + 1.0)), out=tail[1:])
    x0 = np.maximum(n1, total_copies - n1) - half
    idx = np.searchsorted(-tail, -(tail[x0] + np.log1p(-u)), side="right") - 1
    return np.maximum(idx, x0)


def _collective_fidelities(rng, tables: CollectiveTables, t_states, vecs) -> np.ndarray:
    """Per-sample fidelities of the optimal collective guess.

    Each sample draws its spin label k, whose law given the radius r is
    p(k|r) = c_k ((1 - r^2)/4)^(N/2 - k) I_k(r) with
    I_k(r) = integral ((1 + r c)/2)^(2k) dc/2 over c in [-1, 1], from one
    binomial count and one uniform (:func:`_spin_label_index`), then the
    polar cosine of its state against the measured axis from a second
    uniform by inverse CDF.  Radii are clamped to 1.  The draws are all
    binomials, then all uniforms, two per sample.
    """
    N = tables.total_copies
    norm = np.hypot(tables.v_t, tables.v_par)
    g_t = tables.v_t / norm
    g_par = tables.v_par / norm
    rr = np.minimum(np.sqrt(np.einsum("ij,ij->i", vecs, vecs)), 1.0)
    a = 0.5 * (1.0 + rr)
    n1 = rng.binomial(N, a)
    u = rng.random((rr.size, 2))
    idx = _spin_label_index(N, n1, u[:, 0])

    # polar cosine c given k: density proportional to ((1 + r c)/2)^(2k),
    # inverted through d = (b/a)^m with a, b = (1 +- r)/2 and m = 2k + 1
    mm = 2.0 * tables.k_values[idx] + 1.0
    with np.errstate(divide="ignore"):  # r = 1 gives log_b = -inf
        log_a = np.log1p(rr) - math.log(2.0)
        log_b = np.log1p(-rr) - math.log(2.0)
    log_ratio = log_b - log_a
    d = np.exp(mm * log_ratio)
    base = d + u[:, 1] * (1.0 - d)
    with np.errstate(divide="ignore"):
        root = np.exp(np.log(np.maximum(base, 1e-300)) / mm)
    small = rr < 1e-12
    cos_th = np.where(small, 2.0 * u[:, 1] - 1.0, (2.0 * a * root - 1.0) / np.maximum(rr, 1e-300))
    cos_th = np.clip(cos_th, -1.0, 1.0)
    return 0.5 * (1.0 + t_states * g_t[idx] + g_par[idx] * (rr * cos_th))


def _mc_collective(scheme: SchemeSpec, prior: Prior, samples: int, seed) -> FidelityReport:
    tables = collective_tables(scheme.total_copies, prior)
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
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> FidelityReport:
    """Stochastic estimate of the average fidelity.

    Draw order is fixed: first all states (one batch), then the outcomes.
    A local sample draws two binomial counts, k_x then k_y, and its ML or
    tomography guess comes from the counts alone (:func:`_count_guesses`),
    so the cost per sample does not grow with N and no outcome table is
    built; the optimal guess is read from the (n+1) x (n+1) tables at the
    sampled counts, so it raises :class:`EnumerationLimitError` past
    ``enumeration_limit``.  The collective scheme draws one binomial count
    per sample, then two uniforms per sample: the spin label comes from the
    count and the first uniform by one table search, the polar cosine from
    the second by inverse CDF.  So the same seed yields a bit-identical
    report.  With a single sample the standard error is reported as 0 (no
    variance estimate exists), never NaN.  Monte Carlo never refines: the
    tables the optimal guess is read from are integrated on ``prior``'s own
    grid, so a caller picks their orders by the prior it builds.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _check_estimator(estimator, scheme.kind)
    _require_prior(scheme.kind, prior)
    if scheme.kind is SchemeKind.LOCAL_XY:
        return _mc_local(scheme, estimator, prior, samples, seed, enumeration_limit)
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
    prior: Prior,
    total_copies: int,
    policy: str,
    samples: int,
    seed,
    *,
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> FidelityReport:
    """Sequential single-copy measurements with policy-chosen axes.

    ``fixed-xy`` measures the first N/2 copies along x and the rest along
    y — exactly the local x/y scheme — and shares the Monte Carlo code
    path with :func:`monte_carlo_fidelity`, so its report is bit-identical
    to the plain local run; like it, it raises
    :class:`EnumerationLimitError` past ``enumeration_limit``.
    ``greedy-fidelity`` picks, before each copy, the equatorial axis
    maximizing the expected posterior |V| (the expected fidelity of the
    optimal guess) on a quadrature posterior; the final guess is the
    optimal rule applied to the sequence posterior.  Axes whose scores lie
    within a relative 1e-13 of the best one tie (the rotation-symmetric
    prior makes all twelve tie at the first copy), and a tie goes to the
    lowest axis index.  Round-off therefore cannot pick
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
        return _mc_local(scheme, "optimal", prior, samples, seed, enumeration_limit)
    return _mc_report(scheme, "optimal", _greedy_adaptive(prior, total_copies, samples, seed))
