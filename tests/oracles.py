"""Slow reference implementations that fast paths in the package are checked against.

``local_tables_per_node`` is the local x/y table engine as it was before the
symmetry-wedge rewrite: one set of matrix products per radial node over every
direction of the prior, reduced in node order.  It uses no symmetry of the
prior or of the count model.

``ml_phi_scan`` is the scalar ML boundary solver as it was before the
closed-form quartic: a 129-point scan of the window (gamma - pi/4,
gamma + pi/4] for sign changes of the boundary equation, bisection with a
Newton polish inside each bracket, a Newton root seeded at
gamma - (R - 1) cot(2 gamma) for likelihood bumps narrower than the scan
grid, and selection by likelihood.

``ml_phi_ferrari`` is the batched ML boundary solver as it was before the
bisection of the likelihood slope: the four roots of the boundary quartic
z^4 - R e^{i gamma} z^3 - R e^{-i gamma} z + 1 = 0 (z = e^{i Phi}) in
closed form (Ferrari), Newton-polished on the boundary equation
cos 2 Phi = R cos(gamma + Phi), a 1e-12 residual filter, and the
admissible root closest to gamma.  ``ml_phi_companion`` is the solver as it
was before the closed-form quartic: the four roots of each row from one
(m, 4, 4) stack of companion-matrix eigenvalues, the same Newton polish and
residual filter, and selection by likelihood (``likelihood_pick``).
``ml_phi_likelihood`` applies that pick to the closed-form candidates.
``ml_phi_mpmath`` is the ML azimuth to 50 digits by bisection of the
likelihood slope; ``guess_error`` measures a float angle's (cos, sin)
against it.
``ml_guess_tables_full`` is the ML guess table as it was before the wedge:
every unphysical outcome solved by the package's ``ml_phi_batch``.

The (n+1) x (n+1) guess tables as they were before the per-outcome guess
rule, which Monte Carlo indexed at the sampled counts:

* ``physical_mask`` is the integer physicality test over every outcome;
* ``tomography_guess_tables`` is the tomographic point on the physical
  outcomes and NaN elsewhere;
* ``ml_guess_tables_unfolded`` solves the wedge k_x >= k_y >= n/2
  (``ml_wedge``) and unfolds it by the swap, y -> -y and x -> -x in turn,
  each step writing only the outcomes not yet filled;
* ``mc_local_table_lookup`` is local Monte Carlo reading those tables (and
  the optimal guess tables) at the sampled counts.

``local_tables_dense`` is the symmetry-wedge engine as it was before the
binomial support tiles and the in-place fold: it integrates one direction per
orbit of the prior's D4 symmetries, like the package engine, but multiplies
every column's full (n+1)-row binomial tables, negligible rows included, and
adds the wedge tables' images under every element of the group into a second
set of tables (``image_sum`` of ``d4_table_image``).

``local_tables_full_rows`` is the support-tile engine as it was before the
flips were folded into the binomial tiles: each tile multiplies the binomial
rows on both sides of n/2, into wedge tables the size of the result, and
``fold_in_place`` then adds the images of those tables under the group, one
reflection at a time, each through one (n+1) x (n+1) temporary.

``binom_log_pmf_matrix_uncached`` is the log binomial table as it was before
the coefficients were cached and the table became one matrix product:
2(n + 1) ``math.lgamma`` calls on every call (``log_binom_coefficients_uncached``),
and k log q and (n - k) log1p(-q) each formed by a masked multiply into zeros
whatever q is, so the 0^0 = 1 convention needs no fix-up.  The table routes
above (``local_tables_per_node``, ``local_tables_dense``) and
``fidelity_from_guesses`` form their binomial tables with it, so each check
of the package engine against them also checks the package kernel.

``collective_tables_dense`` is the collective engine as it was before the
support windows: for every spin label it exponentiates and sums the whole
(radius x polar cosine) grid, negligible entries included.
``collective_tables_windowed`` is the collective engine as it was before the
cosine power moments: each label's support window is exponentiated entry by
entry and summed by three ``einsum`` calls against full-grid weight arrays.
Its windows come from ``support_windows_per_entry``, which searches the
cosine bound of every (label, kept radial row) pair.

``collective_fidelities_chunked`` is the collective Monte Carlo sampler as
it was before the binomial label draw: each sample's spin label by inverse
CDF over p(k|r) at every label, on chunks of up to 2^22 (sample, label)
entries, each expression a fresh temporary.  It draws its uniforms in
another order than the package, so the two agree in law, not bit for bit.

``greedy_adaptive_per_axis``, the greedy loop as it was before the
one-GEMM step, scores the twelve greedy axes one elementwise product and
one GEMM at a time.  It takes two rules from the package: score ties go to
the lowest axis (``_greedy_pick``), and the final posterior mean is one dot
product per sample and component.  Its per-sample fidelities then match
the package's bit for bit, whatever the chunk size.

``sample_full_ball_bisection`` is the full-ball state sampler as it was
before the Hopf coordinates: the radial CDF in u (r = sin u) inverted by
60 bisection passes, then a uniform direction from z and an azimuth.

The cross-check routes share no code with the table engines:

* ``fidelity_from_guesses`` sums sum_x integral dρ f(r⃗, R⃗(x)) p(x|r⃗) for
  given local x/y guess tables, forming every direction's outcome
  probabilities explicitly;
* ``collective_v_norm`` is |V(k, m̂)| by direct 3-D quadrature over the
  prior's radial rule times ``sphere_grid``, a Gauss x uniform-azimuth
  grid over the whole sphere, for the rotational-invariance check;
* ``collective_fidelity_full_grid`` is the collective optimal fidelity by
  brute-force quadrature over a direction grid for m̂ and the prior's radial
  rule times ``sphere_grid`` (``sphere_product_nodes``).  The package's
  full-ball prior holds only a polar-cosine rule, so these two routes do
  not lean on the rotational invariance the package engine assumes.

``gauss_legendre_reference`` is the n-point Gauss-Legendre rule computed
without numpy's ``leggauss``: Newton's method on the Legendre three-term
recurrence in ``np.longdouble`` from Tricomi's initial guesses, with the
weights 2 / ((1 - x^2) P_n'(x)^2).  It does not depend on the LAPACK build,
and it holds the stored rules to their accuracy.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import mpmath
import numpy as np

from blochest import evaluator
from blochest.core import Prior, build_prior, sample_states
from blochest.estimators import DegenerateEstimateError, ml_phi_batch
from blochest.evaluator import (
    _GREEDY_ANGULAR_ORDER,
    _GREEDY_AXES,
    _GREEDY_RADIAL_ORDER,
    _REFLECTIONS,
    _TABLE_CHUNK,
    _WINDOW_CUT_NATS,
    CollectiveTables,
    LocalTables,
    _greedy_pick,
    _mc_report,
    _optimal_guess_tables,
    _require_prior,
    _symmetry_wedge,
    local_tables,
)
from blochest.quadrature import gauss_legendre
from blochest.schemes import (
    SchemeKind,
    SchemeSpec,
    binom_log_pmf_matrix,
    collective_k_values,
    collective_log_weight,
)


def local_tables_per_node(spec, prior) -> LocalTables:
    """Outcome tables by a full radial x angular sum, node by node."""
    if spec.kind is not SchemeKind.LOCAL_XY:
        raise ValueError("local_tables expects the local x/y scheme")
    n = spec.n_per_axis
    K = n + 1
    cx = prior.directions[:, 0]
    sy = prior.directions[:, 1]
    aw = prior.angular_w

    def node_contribution(i: int):
        r = prior.radial_r[i]
        w = prior.radial_w[i]
        bx = np.exp(binom_log_pmf_matrix_uncached(n, 0.5 * (1.0 + r * cx)))
        by = np.exp(binom_log_pmf_matrix_uncached(n, 0.5 * (1.0 + r * sy)))
        wby = by * (w * aw)
        m = bx @ wby.T
        mx = (bx * (r * cx)) @ wby.T
        my = bx @ (wby * (r * sy)).T
        return m, mx, my

    prob = np.zeros((K, K))
    v_t = np.zeros((K, K))
    v_x = np.zeros((K, K))
    v_y = np.zeros((K, K))
    for i in range(prior.radial_r.size):
        m, mx, my = node_contribution(i)
        prob += m
        v_t += prior.radial_t[i] * m
        v_x += mx
        v_y += my
    return LocalTables(n_per_axis=n, prob=prob, v_t=v_t, v_x=v_x, v_y=v_y)


def local_tables_dense(spec: SchemeSpec, prior: Prior) -> LocalTables:
    """Wedge tables by GEMMs over every binomial row, unfolded over G."""
    if spec.kind is not SchemeKind.LOCAL_XY:
        raise ValueError("local_tables expects the local x/y scheme")
    _require_prior(spec.kind, prior)
    n = spec.n_per_axis
    K = n + 1
    gens, reps, rep_w = _symmetry_wedge(prior)
    n_r = prior.radial_r.size
    r = np.repeat(prior.radial_r, reps.size)
    t = np.repeat(prior.radial_t, reps.size)
    w = np.outer(prior.radial_w, rep_w).ravel()
    rx = r * np.tile(prior.directions[reps, 0], n_r)
    ry = r * np.tile(prior.directions[reps, 1], n_r)

    wedge = np.zeros((4, K, K))
    for s in range(0, w.size, _TABLE_CHUNK):
        c = slice(s, s + _TABLE_CHUNK)
        bx = np.exp(binom_log_pmf_matrix_uncached(n, 0.5 * (1.0 + rx[c])))
        wby = np.exp(binom_log_pmf_matrix_uncached(n, 0.5 * (1.0 + ry[c]))) * w[c]
        wedge[0] += bx @ wby.T
        wedge[1] += bx @ (wby * t[c]).T
        wedge[2] += (bx * rx[c]) @ wby.T
        wedge[3] += bx @ (wby * ry[c]).T

    prob, v_t, v_x, v_y = image_sum(generated_group(gens), wedge)
    return LocalTables(n_per_axis=n, prob=prob, v_t=v_t, v_x=v_x, v_y=v_y)


def _full_row_spans(log_pmf: np.ndarray, starts: np.ndarray):
    """Row span [lo, hi) of each tile over all n + 1 rows: the hull of its columns' supports."""
    support = log_pmf > log_pmf.max(axis=0) + math.log(evaluator._SUPPORT_CUT)
    support = np.logical_or.reduceat(support, starts, axis=1)
    return support.argmax(axis=0), support.shape[0] - support[::-1].argmax(axis=0)


def local_tables_full_rows(spec: SchemeSpec, prior: Prior) -> LocalTables:
    """Wedge tables from full-row support tiles, then summed over G in place.

    The tiles, their cells and batches are the package's; it reads
    ``evaluator._tiles_pay`` at call time, so a test that forces the tiles
    forces them here too.
    """
    if spec.kind is not SchemeKind.LOCAL_XY:
        raise ValueError("local_tables expects the local x/y scheme")
    _require_prior(spec.kind, prior)
    n = spec.n_per_axis
    K = n + 1
    gens, reps, rep_w = _symmetry_wedge(prior)
    n_r = prior.radial_r.size
    r = np.repeat(prior.radial_r, reps.size)
    t = np.repeat(prior.radial_t, reps.size)
    w = np.outer(prior.radial_w, rep_w).ravel()
    rx = r * np.tile(prior.directions[reps, 0], n_r)
    ry = r * np.tile(prior.directions[reps, 1], n_r)
    qx = 0.5 * (1.0 + rx)
    qy = 0.5 * (1.0 + ry)

    bins = max(1, math.isqrt(n) // 2) if evaluator._tiles_pay(n) else 1
    cell = np.minimum(qx * bins, bins - 1).astype(np.intp) * bins
    cell += np.minimum(qy * bins, bins - 1).astype(np.intp)
    by_cell = np.argsort(cell, kind="stable")
    cell, qx, qy, t, w, rx, ry = (a[by_cell] for a in (cell, qx, qy, t, w, rx, ry))

    wedge = np.zeros((4, K, K))
    for s in range(0, w.size, _TABLE_CHUNK):
        c = slice(s, s + _TABLE_CHUNK)
        log_bx = binom_log_pmf_matrix(n, qx[c])
        log_by = binom_log_pmf_matrix(n, qy[c])
        starts = np.flatnonzero(np.diff(cell[c], prepend=-1))
        ends = np.append(starts[1:], log_bx.shape[1])
        spans = zip(starts, ends, *_full_row_spans(log_bx, starts), *_full_row_spans(log_by, starts))
        for a, b, x0, x1, y0, y1 in spans:
            j = slice(s + a, s + b)
            bx = np.exp(log_bx[x0:x1, a:b])
            wby = np.exp(log_by[y0:y1, a:b]) * w[j]
            block = wedge[:, x0:x1, y0:y1]
            block[0] += bx @ wby.T
            block[1] += bx @ (wby * t[j]).T
            block[2] += (bx * rx[j]) @ wby.T
            block[3] += bx @ (wby * ry[j]).T

    fold_in_place(wedge, gens)
    prob, v_t, v_x, v_y = wedge
    return LocalTables(n_per_axis=n, prob=prob, v_t=v_t, v_x=v_x, v_y=v_y)


def fold_in_place(tables: np.ndarray, gens) -> None:
    """Sum the images of the (prob, v_t, v_x, v_y) tables under G, in place.

    G is generated by the reflections ``gens`` (in ``_REFLECTIONS`` order),
    so the sum over it is the product of (1 + g) over them: one reflection
    at a time, each through one K x K temporary.
    """
    prob, v_t, v_x, v_y = tables
    tmp = np.empty_like(prob)
    for sx, _, swap in gens:
        if swap:
            for a in (prob, v_t):
                np.copyto(tmp, a.T)
                a += tmp
            np.copyto(tmp, v_x.T)
            v_x += v_y.T
            v_y += tmp
        else:
            # x -> -x reverses the rows and negates v_x; y -> -y the columns and v_y
            axis, negated = (0, 2) if sx == -1 else (1, 3)
            for i, a in enumerate(tables):
                np.copyto(tmp, np.flip(a, axis))
                if i == negated:
                    a -= tmp
                else:
                    a += tmp


def d4_table_image(g, tables):
    """Count tables of the directions mapped by g, from those of the originals.

    g = (sx, sy, swap) scales (x, y) by the signs, then exchanges them when
    ``swap``.  ``tables`` ends with the x and y components (v_x, v_y); the
    tables before them are scalars, such as prob and v_t.
    """
    sx, sy, swap = g
    *scalars, v_x, v_y = (a[::sx, ::sy] for a in tables)
    v_x = sx * v_x
    v_y = sy * v_y
    if swap:
        return (*(a.T for a in scalars), v_y.T, v_x.T)
    return (*scalars, v_x, v_y)


def generated_group(gens) -> list:
    """The elements of the group the reflections ``gens`` generate.

    ``gens`` lists reflections (sx, sy, swap) with the flips before the
    swap, as the package's ``_symmetry_wedge`` returns them; the elements
    are the products of their subsets, each flip applied before the swap,
    listed with the first reflection toggling fastest.
    """
    group = []
    for pick in itertools.product((False, True), repeat=len(gens)):
        chosen = [g for g, on in zip(reversed(gens), pick) if on]
        group.append((
            math.prod(g[0] for g in chosen),
            math.prod(g[1] for g in chosen),
            any(g[2] for g in chosen),
        ))
    return group


def image_sum(group, tables) -> np.ndarray:
    """The sum of the images of ``tables`` under every element of ``group``."""
    total = np.zeros(np.shape(tables))
    for g in group:
        for acc, image in zip(total, d4_table_image(g, tables)):
            acc += image
    return total


def _safe_klogq(k, logq) -> np.ndarray:
    """k * log(q) with the 0 * log(0) = 0 convention (limit of q^k at k=0)."""
    k = np.asarray(k, dtype=float)
    logq = np.asarray(logq, dtype=float)
    out = np.zeros(np.broadcast(k, logq).shape)
    np.multiply(k, logq, where=(k != 0), out=out)
    return out


def log_binom_coefficients_uncached(n: int) -> np.ndarray:
    """log C(n, k) for k = 0..n from 2(n + 1) ``math.lgamma`` calls."""
    lgn = math.lgamma(n + 1.0)
    return lgn - np.array([math.lgamma(v + 1.0) + math.lgamma(n - v + 1.0) for v in range(n + 1)])


def binom_log_pmf_matrix_uncached(n: int, q: np.ndarray) -> np.ndarray:
    """Log binomial pmf table, lgamma sums per call and masked products."""
    k = np.arange(n + 1, dtype=float)
    lgb = log_binom_coefficients_uncached(n)
    q = np.asarray(q, dtype=float)
    with np.errstate(divide="ignore"):
        logq = np.log(q)
        log1mq = np.log1p(-q)
    return (
        lgb[:, None]
        + _safe_klogq(k[:, None], logq[None, :])
        + _safe_klogq((n - k)[:, None], log1mq[None, :])
    )


def collective_tables_dense(total_copies: int, prior, cos_order: int) -> CollectiveTables:
    """Reduced 2-D quadrature (radius x polar cosine) over the full grid for every k."""
    _require_prior(SchemeKind.COLLECTIVE, prior)
    r = prior.radial_r
    t = prior.radial_t
    wr = prior.radial_w
    c, gw = gauss_legendre(cos_order)
    wc = gw / 2.0  # uniform sphere measure: integral dm g(cosΘ) = ∫ g(c) dc/2

    # log((1 - r^2)/4) = 2 log t - log 4, with t = cos u exact near r = 1
    log_quarter = 2.0 * np.log(t) - math.log(4.0)
    log_cos = np.log(0.5 * (1.0 + np.outer(r, c)))
    w2 = np.outer(wr, wc)
    w2_t = w2 * t[:, None]
    w2_rc = w2 * (r[:, None] * c[None, :])

    ks = collective_k_values(total_copies)
    prob = np.empty(ks.size)
    v_t = np.empty(ks.size)
    v_par = np.empty(ks.size)
    for i, k in enumerate(ks):
        hk = total_copies / 2.0 - k
        logd = collective_log_weight(k, total_copies) + (2.0 * k) * log_cos
        if hk > 0:
            logd = logd + hk * log_quarter[:, None]
        d = np.exp(logd)
        prob[i] = float(np.einsum("ij,ij->", w2, d))
        v_t[i] = float(np.einsum("ij,ij->", w2_t, d))
        v_par[i] = float(np.einsum("ij,ij->", w2_rc, d))
    return CollectiveTables(
        total_copies=total_copies, k_values=ks, prob=prob, v_t=v_t, v_par=v_par
    )


def support_windows_per_entry(total_copies: int, prior: Prior, cos_order: int):
    """(ks, i0, i1, j0) of every spin label, one cosine search per kept entry.

    The windows of the package's ``_support_windows``: radial rows
    i0 <= i < i1 and cosine columns j >= j0, with j0 the smallest
    ``searchsorted`` position over the label's kept rows, less one.
    """
    r = prior.radial_r
    c, gw = gauss_legendre(cos_order)
    ks = collective_k_values(total_copies)
    lc = np.array([collective_log_weight(k, total_copies) for k in ks])
    hk = total_copies / 2.0 - ks
    log_wc_max = math.log(gw.max() / 2.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hk_lq = np.outer(hk, 2.0 * np.log(prior.radial_t) - math.log(4.0))
        log_wr = np.log(prior.radial_w)
        base = lc[:, None] + np.where(hk[:, None] > 0, hk_lq, 0.0) + log_wr
        last = base + np.outer(2.0 * ks, np.log(0.5 * (1.0 + r * c[-1])))
        floor = last.max(axis=1, keepdims=True) + (math.log(gw[-1] / 2.0) - _WINDOW_CUT_NATS)
        kept = last + log_wc_max >= floor
        need = (floor - base - log_wc_max) / (2.0 * ks[:, None])
        c_min = np.where((r > 0) & (ks[:, None] > 0), (2.0 * np.exp(need) - 1.0) / r, -np.inf)
    pos = np.where(kept, np.searchsorted(c, c_min), c.size)
    j0 = np.maximum(pos.min(axis=1) - 1, 0)
    i0 = kept.argmax(axis=1)
    i1 = r.size - kept[:, ::-1].argmax(axis=1)
    return ks, i0, i1, j0


def collective_tables_windowed(total_copies: int, prior, cos_order: int) -> CollectiveTables:
    """Each label exponentiated entry by entry over its support window."""
    _require_prior(SchemeKind.COLLECTIVE, prior)
    r = prior.radial_r
    t = prior.radial_t
    wr = prior.radial_w
    c, gw = gauss_legendre(cos_order)
    wc = gw / 2.0

    log_cos = np.log(0.5 * (1.0 + np.outer(r, c)))
    w2 = np.outer(wr, wc)
    w2_t = w2 * t[:, None]
    w2_rc = w2 * (r[:, None] * c[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_quarter = 2.0 * np.log(t) - math.log(4.0)

    ks, i0, i1, j0 = support_windows_per_entry(total_copies, prior, cos_order)
    prob = np.empty(ks.size)
    v_t = np.empty(ks.size)
    v_par = np.empty(ks.size)
    for i, k in enumerate(ks):
        rows = slice(i0[i], i1[i])
        win = (rows, slice(j0[i], None))
        hk = total_copies / 2.0 - k
        d = (2.0 * k) * log_cos[win]
        d += collective_log_weight(k, total_copies)
        if hk > 0:
            d += (hk * log_quarter[rows])[:, None]
        np.exp(d, out=d)
        prob[i] = float(np.einsum("ij,ij->", w2[win], d))
        v_t[i] = float(np.einsum("ij,ij->", w2_t[win], d))
        v_par[i] = float(np.einsum("ij,ij->", w2_rc[win], d))
    return CollectiveTables(
        total_copies=total_copies, k_values=ks, prob=prob, v_t=v_t, v_par=v_par
    )


def sphere_grid(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Direction grid on the whole unit sphere: ``order`` Gauss nodes in
    cos(theta) times ``order`` uniform azimuths.

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


def sphere_product_nodes(prior: Prior) -> tuple[np.ndarray, np.ndarray]:
    """The full-ball prior's radial rule times ``sphere_grid`` at its angular order.

    Returns (nodes4, weights) in the layout of ``Prior.product_nodes``
    (radius-major), over every direction of the sphere, not only the
    prior's meridian.
    """
    dirs, wdir = sphere_grid(prior.angular_order)
    return dataclasses.replace(prior, directions=dirs, angular_w=wdir).product_nodes()


def collective_v_norm(total_copies: int, prior: Prior, k: float, direction) -> float:
    """|V(k, m̂)| by direct 3-D quadrature over the whole sphere.

    The independent route for the rotational-invariance check: no
    reduction, just sum w * 𝐫 * p(k, m̂ | r⃗) over every (radial node,
    direction) pair of the prior's radial rule and ``sphere_grid`` at the
    prior's angular order, one radial node at a time.
    """
    _require_prior(SchemeKind.COLLECTIVE, prior)
    d = np.asarray(direction, dtype=float)
    d = d / float(np.sqrt(d @ d))
    dirs, wdir = sphere_grid(prior.angular_order)
    dots = dirs @ d
    v = np.zeros(4)
    for r, t, wr in zip(prior.radial_r, prior.radial_t, prior.radial_w):
        wp = wr * wdir * _collective_density(total_copies, float(k), t, r * dots)
        v[0] += t * wp.sum()
        v[1:] += r * (wp @ dirs)
    return float(np.sqrt(v @ v))


def collective_weight_exact(total_copies: int, x: int) -> int:
    """c_k for k = x - N/2 as an exact integer: (2k + 1)(C(N, x) - C(N, x + 1))."""
    return (2 * x - total_copies + 1) * (math.comb(total_copies, x) - math.comb(total_copies, x + 1))


def _collective_density(total_copies: int, k: float, t, dots):
    """Vectorized p(k, m̂ | r⃗) from time components t and projections dots = r⃗·m̂,
    with the shape of t and dots broadcast together."""
    hk = total_copies / 2.0 - k
    logp = collective_log_weight(k, total_copies)
    with np.errstate(divide="ignore"):
        if hk > 0:
            logp = logp + hk * (2.0 * np.log(t) - math.log(4.0))
        if k > 0:
            logp = logp + 2.0 * k * np.log(0.5 * (1.0 + dots))
    return np.broadcast_to(np.exp(logp), np.broadcast_shapes(np.shape(t), np.shape(dots)))


def collective_fidelity_full_grid(
    total_copies: int, prior: Prior, angular_order: int = 12
) -> float:
    """Collective optimal fidelity by brute-force 3-D quadrature.

    Enumerates a direction grid (Gauss x uniform azimuth) for m̂ and sums
    (P + |V|)/2 over (k, m̂) against the prior's radial rule times the
    whole-sphere grid at its angular order (``sphere_product_nodes``) — the
    slow independent route that the reduced engine is checked against.
    """
    _require_prior(SchemeKind.COLLECTIVE, prior)
    dirs, wdir = sphere_grid(angular_order)
    nodes4, weights = sphere_product_nodes(prior)
    total = 0.0
    for k in collective_k_values(total_copies):
        for j in range(dirs.shape[0]):
            p = _collective_density(
                total_copies, float(k), nodes4[:, 0], nodes4[:, 1:] @ dirs[j]
            )
            wp = weights * p
            mass = float(wp.sum())
            v = wp @ nodes4
            total += wdir[j] * (mass + float(np.sqrt(v @ v)))
    return 0.5 * total


def fidelity_from_guesses(
    spec: SchemeSpec, prior: Prior, guesses, kept: np.ndarray | None = None
) -> tuple[float, float]:
    """Direct Eq.-5-style route: sum_x integral dρ f(r⃗, R⃗(x)) p(x|r⃗).

    ``guesses`` is an (t, x, y) triple of (n+1, n+1) guess-component
    tables; ``kept`` optionally restricts the outcome sum.  For each radial
    node it forms every direction's outcome probabilities and fidelities
    explicitly as (directions, n+1, n+1) arrays — no shared code with the
    table engine, no factorization of the outcome sum, no use of symmetry —
    and returns (fidelity_sum, probability_mass) over the kept outcomes.
    Intended for cross-checks at modest orders: memory grows as
    directions x (n+1)^2.
    """
    if spec.kind is not SchemeKind.LOCAL_XY:
        raise ValueError("the outcome-sum route is implemented for the local x/y scheme")
    _require_prior(spec.kind, prior)
    n = spec.n_per_axis
    tg, gx, gy = guesses
    mask = np.ones((n + 1, n + 1), dtype=bool) if kept is None else kept
    total = 0.0
    mass = 0.0
    for i in range(prior.radial_r.size):
        r = prior.radial_r[i]
        t = prior.radial_t[i]
        w = prior.radial_w[i] * prior.angular_w
        rx = r * prior.directions[:, 0]
        ry = r * prior.directions[:, 1]
        bx = np.exp(binom_log_pmf_matrix_uncached(n, 0.5 * (1.0 + rx))).T
        by = np.exp(binom_log_pmf_matrix_uncached(n, 0.5 * (1.0 + ry))).T
        pmat = bx[:, :, None] * by[:, None, :]
        fmat = 0.5 * (1.0 + t * tg + rx[:, None, None] * gx + ry[:, None, None] * gy)
        total += float(w @ (pmat * fmat)[:, mask].sum(axis=1))
        mass += float(w @ pmat[:, mask].sum(axis=1))
    return total, mass


# Newton steps that polish the root angles: one settles a simple root;
# the rest serve near-double roots, where Newton converges only linearly.
_NEWTON_STEPS = 4
_RESIDUAL_TOL = 1e-12
_ROOT_TOL = 5e-15
_LIKELIHOOD_TIE_TOL = 1e-12


def boundary_equation(phi, R, gamma):
    """g(phi) = cos(2 phi) - R cos(gamma + phi); zero at boundary optima.

    R and gamma are floats or arrays that broadcast against phi.
    """
    phi = np.asarray(phi, dtype=float)
    return np.cos(2.0 * phi) - R * np.cos(gamma + phi)


def _pure_log_likelihood(phi: float, ax: float, ay: float) -> float:
    """Per-copy log-likelihood of a pure equatorial state at azimuth phi.

    l(phi) = ax log((1+cos phi)/2) + (1-ax) log((1-cos phi)/2)
           + ay log((1+sin phi)/2) + (1-ay) log((1-sin phi)/2),
    with 0*log(0) = 0 so corner outcomes keep a finite value.
    """
    c, s = math.cos(phi), math.sin(phi)
    total = 0.0
    for a, trig in ((ax, c), (ay, s)):
        qp = 0.5 * (1.0 + trig)
        qm = 0.5 * (1.0 - trig)
        if a > 0.0:
            if qp <= 0.0:
                return -math.inf
            total += a * math.log(qp)
        if a < 1.0:
            if qm <= 0.0:
                return -math.inf
            total += (1.0 - a) * math.log(qm)
    return total


def _bisect_root(R: float, gamma: float, lo: float, hi: float, f_lo: float) -> float:
    """Bisection + final Newton polish on g inside a sign-change bracket."""
    f_hi = float(boundary_equation(hi, R, gamma))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = float(boundary_equation(mid, R, gamma))
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) != (f_mid < 0.0):
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo < _ROOT_TOL:
            break
    root = 0.5 * (lo + hi)
    for _ in range(3):
        g = float(boundary_equation(root, R, gamma))
        dg = -2.0 * math.sin(2.0 * root) + R * math.sin(gamma + root)
        if dg == 0.0:
            break
        step = g / dg
        new = root - step
        if not (lo - 1e-12 <= new <= hi + 1e-12):
            break
        root = new
        if abs(step) < 1e-16:
            break
    return root


def _boundary_roots(R: float, gamma: float) -> list[float]:
    """All roots of g in the window (gamma - pi/4, gamma + pi/4].

    The window always contains at least one root for R > 1; a fine scan is
    required because g can have two interior roots without changing sign
    at either window end.
    """
    lo_end = gamma - 0.25 * math.pi
    hi_end = gamma + 0.25 * math.pi
    grid = np.linspace(lo_end, hi_end, 129)
    vals = np.asarray(boundary_equation(grid, R, gamma))
    roots: list[float] = []
    exact = np.nonzero(vals == 0.0)[0]
    for i in exact:
        if i > 0:  # the open left end is excluded
            roots.append(float(grid[i]))
    sign_change = np.nonzero((vals[:-1] < 0.0) != (vals[1:] < 0.0))[0]
    for i in sign_change:
        if vals[i] == 0.0 or vals[i + 1] == 0.0:
            continue
        roots.append(_bisect_root(R, gamma, float(grid[i]), float(grid[i + 1]), float(vals[i])))
    roots.sort()
    dedup: list[float] = []
    for r in roots:
        if not dedup or abs(r - dedup[-1]) > 1e-10:
            dedup.append(r)
    return dedup


def _newton_seed_root(R: float, gamma: float) -> float | None:
    """Newton iteration from the small-(R-1) seed gamma - (R-1) cot(2 gamma).

    Returns a polished root when the iteration stays inside the window and
    converges; None signals the caller to rely on the scanned brackets
    (the seed degenerates when cot(2 gamma) blows up near gamma = 0, pi/2).
    """
    s2g = math.sin(2.0 * gamma)
    if s2g == 0.0:
        return None
    step0 = (R - 1.0) * math.cos(2.0 * gamma) / s2g
    if not abs(step0) < 0.25 * math.pi:
        return None
    phi = gamma - step0
    lo_end = gamma - 0.25 * math.pi
    hi_end = gamma + 0.25 * math.pi
    for _ in range(60):
        if not (lo_end - 1e-9 <= phi <= hi_end + 1e-9):
            return None
        g = float(boundary_equation(phi, R, gamma))
        dg = -2.0 * math.sin(2.0 * phi) + R * math.sin(gamma + phi)
        if dg == 0.0:
            return None
        step = g / dg
        phi -= step
        if abs(step) < _ROOT_TOL:
            break
    if abs(float(boundary_equation(phi, R, gamma))) < 1e-12 and lo_end < phi <= hi_end:
        return phi
    return None


def ml_phi_scan(R: float, gamma: float, ax: float, ay: float) -> float:
    """Boundary azimuth maximizing the likelihood for an unphysical point.

    Stationary points come from the scanned brackets plus the seeded
    Newton root; the winner is the one with the largest per-copy
    log-likelihood, ties within 1e-12 resolving to the root closest to
    gamma.  Corner outcomes (cos 2 gamma = 0) are solved exactly by
    Phi = gamma.
    """
    if abs(math.cos(2.0 * gamma)) < 1e-14:
        return gamma
    roots = _boundary_roots(R, gamma)
    seeded = _newton_seed_root(R, gamma)
    if seeded is not None and all(abs(seeded - r) > 1e-10 for r in roots):
        roots.append(seeded)
    if not roots:
        if abs(float(boundary_equation(gamma, R, gamma))) < 1e-9:
            roots = [gamma]
        else:
            raise DegenerateEstimateError(
                f"no boundary stationary point found for R={R}, gamma={gamma}"
            )
    if len(roots) == 1:
        return roots[0]
    liks = [_pure_log_likelihood(r, ax, ay) for r in roots]
    best = max(liks)
    contenders = [r for r, l in zip(roots, liks) if l >= best - _LIKELIHOOD_TIE_TOL]
    return min(contenders, key=lambda r: abs(r - gamma))


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


def ml_phi_ferrari(ax, ay) -> np.ndarray:
    """Boundary azimuths from the closed-form quartic, closest-to-gamma pick.

    The admissible candidate (:func:`_boundary_candidates`) closest to
    gamma as a wrapped angle wins: it was the candidate of largest
    likelihood on every unphysical outcome with k_x >= k_y >= n/2 up to
    n = 1024 counts per axis and at n = 2048 and 4096, and on the 235,300
    such outcomes that 10^6 Monte Carlo draws per n reach at
    n = 2^12 ... 2^24.  Corner rows (cos 2 gamma = 0) return gamma exactly.
    Angles are returned in (gamma - pi, gamma + pi]; non-finite input
    raises ValueError and a row with no admissible root
    :class:`DegenerateEstimateError`.
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


def likelihood_pick(roots, admissible, ax, ay, gamma) -> np.ndarray:
    """Per row, the admissible root of largest log-likelihood.

    Likelihood ties within 1e-12 go to the root closest to gamma as a
    wrapped angle.
    """
    liks = np.where(admissible, _log_likelihood(roots, ax[:, None], ay[:, None]), -np.inf)
    best = liks.max(axis=1, keepdims=True)
    near_best = liks >= best - _LIKELIHOOD_TIE_TOL
    offset = np.abs((roots - gamma[:, None] + np.pi) % (2.0 * np.pi) - np.pi)
    pick = np.where(near_best, offset, np.inf).argmin(axis=1)
    return roots[np.arange(roots.shape[0]), pick]


def _frequency_polar(ax, ay):
    ax = np.asarray(ax, dtype=float)
    ay = np.asarray(ay, dtype=float)
    rx = 2.0 * ax - 1.0
    ry = 2.0 * ay - 1.0
    return ax, ay, np.hypot(rx, ry), np.arctan2(ry, rx)


def ml_phi_likelihood(ax, ay) -> np.ndarray:
    """The closed-form quartic's candidates with the likelihood pick."""
    ax, ay, R, gamma = _frequency_polar(ax, ay)
    roots, admissible = _boundary_candidates(R, gamma)
    phi = likelihood_pick(roots, admissible, ax, ay, gamma)
    return np.where(np.abs(np.cos(2.0 * gamma)) < 1e-14, gamma, phi)


def ml_phi_companion(ax, ay) -> np.ndarray:
    """Boundary azimuths from companion-matrix eigenvalues, likelihood pick."""
    ax, ay, R, gamma = _frequency_polar(ax, ay)
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
    phi = likelihood_pick(roots, admissible, ax, ay, gamma)

    corner = np.abs(np.cos(2.0 * gamma)) < 1e-14
    lost = ~(corner | admissible.any(axis=1))
    if lost.any():
        i = int(np.argmax(lost))
        raise DegenerateEstimateError(
            f"no boundary stationary point found for R={R[i]}, gamma={gamma[i]}"
        )
    return np.where(corner, gamma, phi)


def ml_phi_mpmath(ax: float, ay: float) -> mpmath.mpf:
    """The ML boundary azimuth to 50 digits, at the same float frequencies.

    Bisection of L'(phi) = delta_x / sin phi - delta_y / cos phi
    - tan(phi/2) + tan(pi/4 - phi/2) on the folded arc (0, pi/2), with
    delta = 2 min(a, 1 - a), then reflected into the quadrant of r⃗.
    """
    with mpmath.workdps(50):
        a, b = mpmath.mpf(ax), mpmath.mpf(ay)
        dx, dy = 2 * min(a, 1 - a), 2 * min(b, 1 - b)
        lo, hi = mpmath.mpf(0), mpmath.pi / 2
        for _ in range(180):
            mid = (lo + hi) / 2
            slope = (
                dx / mpmath.sin(mid) - dy / mpmath.cos(mid)
                - mpmath.tan(mid / 2) + mpmath.tan(mpmath.pi / 4 - mid / 2)
            )
            if slope > 0:
                lo = mid
            else:
                hi = mid
        phi = (lo + hi) / 2
        if 2 * a - 1 < 0:
            phi = mpmath.pi - phi
        if 2 * b - 1 < 0:
            phi = -phi
        return phi


def guess_error(phi: float, root: mpmath.mpf) -> float:
    """max |(cos, sin) of the float angle - (cos, sin) of the 50-digit root|.

    The float cos and sin come from numpy, as the guess rule takes them.
    """
    c, s = float(np.cos(phi)), float(np.sin(phi))
    with mpmath.workdps(50):
        return float(max(abs(c - mpmath.cos(root)), abs(s - mpmath.sin(root))))


def physical_mask(n: int) -> np.ndarray:
    """Outcomes whose tomographic point is inside the disc, exactly.

    (2 k_x - n)^2 + (2 k_y - n)^2 <= n^2 in integer arithmetic.
    """
    k = np.arange(n + 1)
    dx = (2 * k - n)[:, None] ** 2
    dy = (2 * k - n)[None, :] ** 2
    return dx + dy <= n * n


def tomography_guess_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(t, x, y) guess components for physical outcomes; NaN when unphysical."""
    alpha = np.arange(n + 1, dtype=float) / n
    rx = 2.0 * alpha - 1.0
    gx, gy = np.meshgrid(rx, rx, indexing="ij")
    rr = gx**2 + gy**2
    phys = physical_mask(n)
    tg = np.where(phys, np.sqrt(np.maximum(0.0, 1.0 - rr)), np.nan)
    gx = np.where(phys, gx, np.nan)
    gy = np.where(phys, gy, np.nan)
    return tg, gx, gy, phys


def ml_wedge(phys: np.ndarray) -> np.ndarray:
    """Unphysical outcomes with k_x >= k_y >= n/2: one per orbit of D4 on the counts."""
    n = phys.shape[0] - 1
    k = np.arange(n + 1)
    return ~phys & (k[:, None] >= k[None, :]) & (2 * k[None, :] >= n)


def ml_guess_tables_unfolded(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, x, y) ML guess components, solved on the wedge and unfolded.

    Each wedge row's (cos phi, sin phi) is carried to its images by the
    swap, y -> -y and x -> -x in turn; each step writes only the images not
    yet filled, so an outcome that two group elements reach keeps the first
    value, and the wedge its own.
    """
    tg, gx, gy, phys = tomography_guess_tables(n)
    tg[~phys] = 0.0
    filled = ml_wedge(phys)
    kx, ky = np.nonzero(filled)
    phi = ml_phi_batch(kx / n, ky / n)
    gx[kx, ky] = np.cos(phi)
    gy[kx, ky] = np.sin(phi)
    for sx, _, swap in reversed(_REFLECTIONS):
        if swap:
            new = filled.T & ~filled
            np.copyto(gx, gy.T, where=new)
            np.copyto(gy, gx.T, where=new)
        else:
            axis, negated = (0, gx) if sx == -1 else (1, gy)
            new = np.flip(filled, axis) & ~filled
            for a in (gx, gy):
                np.copyto(a, np.flip(a, axis), where=new)
            np.negative(negated, out=negated, where=new)
        filled |= new
    return tg, gx, gy


def ml_guess_tables_full(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, x, y) ML guess components, solving every unphysical outcome."""
    tg, gx, gy, phys = tomography_guess_tables(n)
    if not np.all(phys):
        alpha = np.arange(n + 1, dtype=float) / n
        ax, ay = np.meshgrid(alpha, alpha, indexing="ij")
        phi = ml_phi_batch(ax[~phys], ay[~phys])
        tg[~phys] = 0.0
        gx[~phys] = np.cos(phi)
        gy[~phys] = np.sin(phi)
    return tg, gx, gy


def mc_local_table_lookup(spec: SchemeSpec, estimator: str, prior: Prior, samples: int, seed):
    """Local Monte Carlo report from guess tables indexed at the sampled counts.

    The states and counts are drawn as the package draws them: the states,
    then two binomial counts per sample.
    """
    n = spec.n_per_axis
    rng = np.random.default_rng(seed)
    t_states, vecs = sample_states(prior.kind, samples, rng)
    counts = rng.binomial(n, 0.5 * (1.0 + vecs[:, :2]))
    kx, ky = counts[:, 0], counts[:, 1]
    kept = None
    if estimator == "optimal":
        tg, gx, gy = _optimal_guess_tables(local_tables(spec, prior))
    elif estimator == "ml":
        tg, gx, gy = ml_guess_tables_unfolded(n)
    else:
        tg, gx, gy, phys = tomography_guess_tables(n)
        kept = phys[kx, ky]
    f = 0.5 * (1.0 + t_states * tg[kx, ky] + vecs[:, 0] * gx[kx, ky] + vecs[:, 1] * gy[kx, ky])
    if kept is None:
        return _mc_report(spec, estimator, f)
    return _mc_report(spec, estimator, f[kept], discarded_fraction=1.0 - kept.sum() / samples)


def sample_full_ball_bisection(size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(t, vecs) of ``size`` full-ball Bures states, radius by bisection.

    The radial CDF in u (r = sin u) is (2/pi)(u - sin(2u)/2); draw order
    q, z, azimuth.
    """
    q = rng.random(size)
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


def collective_fidelities_chunked(rng, tables: CollectiveTables, t_states, vecs) -> np.ndarray:
    """Per-sample collective fidelities, one fresh temporary per expression."""
    N = tables.total_copies
    samples = t_states.size
    norm = np.hypot(tables.v_t, tables.v_par)
    g_t = tables.v_t / norm
    g_par = tables.v_par / norm
    r = np.sqrt(np.einsum("ij,ij->i", vecs, vecs))

    ks = tables.k_values
    logc = np.array([collective_log_weight(k, N) for k in ks])
    hk = N / 2.0 - ks
    m_exp = 2.0 * ks + 1.0

    f = np.empty(samples)
    chunk = max(1, (1 << 22) // max(ks.size, 1))
    for s in range(0, samples, chunk):
        e = min(s + chunk, samples)
        u = rng.random((e - s, 2))
        rr = r[s:e]
        tt = t_states[s:e]
        log_a = np.log1p(rr) - math.log(2.0)
        log_b = np.log1p(-rr) - math.log(2.0)
        log_ratio = log_b - log_a
        # marginal over directions: p(k|r) = c_k ((1-r^2)/4)^(N/2-k) I_k(r),
        # I_k = (a^m - b^m)/(r m) with m = 2k+1, via expm1 for stability
        small = rr < 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = np.log(-np.expm1(np.outer(log_ratio, m_exp))) - np.log(
                np.outer(rr, m_exp)
            )
        if small.any():
            tail[small] = math.log(2.0)
        log_i = np.outer(log_a, m_exp) + tail
        log_quarter = 2.0 * np.log(np.maximum(tt, 1e-300)) - math.log(4.0)
        logp = logc[None, :] + np.outer(log_quarter, hk) + log_i
        probs = np.exp(logp - logp.max(axis=1, keepdims=True))
        cum = np.cumsum(probs, axis=1)
        cum /= cum[:, -1:]
        idx = (u[:, 0:1] > cum).sum(axis=1)
        idx = np.minimum(idx, ks.size - 1)

        mm = m_exp[idx]
        a = 0.5 * (1.0 + rr)
        d = np.exp(mm * log_ratio)
        base = d + u[:, 1] * (1.0 - d)
        with np.errstate(divide="ignore"):
            root = np.exp(np.log(np.maximum(base, 1e-300)) / mm)
        cos_th = np.where(small, 2.0 * u[:, 1] - 1.0, (2.0 * a * root - 1.0) / np.maximum(rr, 1e-300))
        cos_th = np.clip(cos_th, -1.0, 1.0)
        f[s:e] = 0.5 * (1.0 + tt * g_t[idx] + g_par[idx] * (rr * cos_th))
    return f


def greedy_adaptive_per_axis(
    prior: Prior, total_copies: int, samples: int, seed, chunk: int = 1024
) -> np.ndarray:
    """Greedy-fidelity adaptive runs, axis by axis; returns per-sample fidelities."""
    grid = build_prior(
        prior.kind, radial_order=_GREEDY_RADIAL_ORDER, angular_order=_GREEDY_ANGULAR_ORDER
    )
    nodes4, w0 = grid.product_nodes()
    betas = np.pi * np.arange(_GREEDY_AXES) / _GREEDY_AXES
    cos_b, sin_b = np.cos(betas), np.sin(betas)
    # q_plus[j, node] = probability of the +1 outcome along axis j
    q_plus = 0.5 * (1.0 + cos_b[:, None] * nodes4[None, :, 1] + sin_b[:, None] * nodes4[None, :, 2])

    rng = np.random.default_rng(seed)
    t_states, vecs = sample_states(prior.kind, samples, rng)

    f = np.empty(samples)
    for s in range(0, samples, chunk):
        e = min(s + chunk, samples)
        S = e - s
        u = rng.random((S, total_copies))
        post = np.repeat(w0[None, :], S, axis=0)
        for step in range(total_copies):
            v_tot = post @ nodes4  # (S, 4)
            scores = np.empty((S, _GREEDY_AXES))
            for j in range(_GREEDY_AXES):
                v_plus = (post * q_plus[j]) @ nodes4
                v_minus = v_tot - v_plus
                scores[:, j] = np.sqrt(np.einsum("sd,sd->s", v_plus, v_plus)) + np.sqrt(
                    np.einsum("sd,sd->s", v_minus, v_minus)
                )
            jstar = _greedy_pick(scores)
            q_true = 0.5 * (1.0 + vecs[s:e, 0] * cos_b[jstar] + vecs[s:e, 1] * sin_b[jstar])
            plus = u[:, step] < q_true
            q_sel = q_plus[jstar]
            post = post * np.where(plus[:, None], q_sel, 1.0 - q_sel)
            post /= post.sum(axis=1, keepdims=True)
        v = np.vecdot(post[:, None, :], np.ascontiguousarray(nodes4.T))
        v /= np.sqrt(np.einsum("sd,sd->s", v, v))[:, None]
        f[s:e] = 0.5 * (
            1.0 + t_states[s:e] * v[:, 0] + vecs[s:e, 0] * v[:, 1] + vecs[s:e, 1] * v[:, 2]
        )
    return f


def _legendre_and_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p_prev, p = np.ones_like(x), x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (p_prev - x * p) / (1 - x * x)


def gauss_legendre_reference(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-negative nodes of the n-point rule (n even), increasing, and their weights."""
    if n % 2:
        raise ValueError("the reference rule is for even orders")
    i = np.arange(n // 2, 0, -1, dtype=np.longdouble)
    x = np.cos(np.pi * (4 * i - 1) / (4 * n + 2))
    for _ in range(20):
        p, dp = _legendre_and_derivative(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 4 * np.finfo(np.longdouble).eps:
            break
    else:
        raise RuntimeError(f"Newton's method did not converge at n = {n}")
    _, dp = _legendre_and_derivative(n, x)
    return x, 2 / ((1 - x * x) * dp * dp)
