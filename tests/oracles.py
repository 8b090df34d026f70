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

``ml_phi_companion`` is the batched ML boundary solver as it was before the
closed-form quartic: the four roots of each row from one (m, 4, 4) stack of
companion-matrix eigenvalues, the same Newton polish and residual filter,
and selection by likelihood (``likelihood_pick``), as the package made it
before the closest-to-gamma pick was checked equal to it.
``ml_phi_likelihood`` applies that pick to the package's own candidates.
``ml_guess_tables_full`` is the ML guess table as it was before the wedge:
every unphysical outcome solved by the package's ``ml_phi_batch``.

``local_tables_dense`` is the symmetry-wedge engine as it was before the
binomial support tiles: it integrates one direction per orbit of the prior's
D4 symmetries, like the package engine, but multiplies every column's full
(n+1)-row binomial tables, negligible rows included.

``binom_log_pmf_matrix_uncached`` is the log binomial table as it was before
the coefficients were cached: 2(n + 1) ``math.lgamma`` calls on every call,
and k log q formed by a masked multiply into zeros whatever q is.

``collective_tables_dense`` is the collective engine as it was before the
support windows: for every spin label it exponentiates and sums the whole
(radius x polar cosine) grid, negligible entries included.

The Monte Carlo loops as they were before the cache-sized blocks:

* ``mc_draw_counts_chunked`` draws each chunk of up to 2^23 local outcome
  uniforms as a fresh array and counts the +1 outcomes with ``<`` and
  ``sum``;
* ``collective_fidelities_chunked`` samples the collective spin label and
  polar cosine on chunks of up to 2^22 (sample, label) entries, each
  expression a fresh temporary;
* ``greedy_adaptive_per_axis`` scores the twelve greedy axes one
  elementwise product and one GEMM at a time.  It takes two rules from the
  package: score ties go to the lowest axis (``_greedy_pick``), and the
  final posterior mean is one dot product per sample and component.  Its
  per-sample fidelities then match the package's bit for bit, whatever
  the chunk size.

The cross-check routes share no code with the table engines:

* ``fidelity_from_guesses`` sums sum_x integral dρ f(r⃗, R⃗(x)) p(x|r⃗) for
  given local x/y guess tables, forming every direction's outcome
  probabilities explicitly;
* ``collective_v_norm`` is |V(k, m̂)| by direct 3-D quadrature over the
  prior's own grid, for the rotational-invariance check;
* ``collective_fidelity_full_grid`` is the collective optimal fidelity by
  brute-force quadrature over a direction grid for m̂ and the prior's full
  product grid.
"""

from __future__ import annotations

import math

import numpy as np

from blochest.core import Prior, build_prior, sample_states, sphere_grid
from blochest.estimators import (
    _NEWTON_STEPS,
    _RESIDUAL_TOL,
    DegenerateEstimateError,
    _boundary_candidates,
    boundary_equation,
    ml_phi_batch,
)
from blochest.evaluator import (
    _GREEDY_ANGULAR_ORDER,
    _GREEDY_AXES,
    _GREEDY_RADIAL_ORDER,
    _TABLE_CHUNK,
    CollectiveTables,
    LocalTables,
    _d4_table_image,
    _greedy_pick,
    _require_prior,
    _symmetry_wedge,
    _tomography_guess_tables,
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
        bx = np.exp(binom_log_pmf_matrix(n, 0.5 * (1.0 + r * cx)))
        by = np.exp(binom_log_pmf_matrix(n, 0.5 * (1.0 + r * sy)))
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
    group, reps, rep_w = _symmetry_wedge(prior)
    n_r = prior.radial_r.size
    r = np.repeat(prior.radial_r, reps.size)
    t = np.repeat(prior.radial_t, reps.size)
    w = np.outer(prior.radial_w, rep_w).ravel()
    rx = r * np.tile(prior.directions[reps, 0], n_r)
    ry = r * np.tile(prior.directions[reps, 1], n_r)

    wedge = np.zeros((4, K, K))
    for s in range(0, w.size, _TABLE_CHUNK):
        c = slice(s, s + _TABLE_CHUNK)
        bx = np.exp(binom_log_pmf_matrix(n, 0.5 * (1.0 + rx[c])))
        wby = np.exp(binom_log_pmf_matrix(n, 0.5 * (1.0 + ry[c]))) * w[c]
        wedge[0] += bx @ wby.T
        wedge[1] += bx @ (wby * t[c]).T
        wedge[2] += (bx * rx[c]) @ wby.T
        wedge[3] += bx @ (wby * ry[c]).T

    total = np.zeros((4, K, K))
    for g in group:
        for acc, image in zip(total, _d4_table_image(g, wedge)):
            acc += image
    prob, v_t, v_x, v_y = total
    return LocalTables(n_per_axis=n, prob=prob, v_t=v_t, v_x=v_x, v_y=v_y)


def _safe_klogq(k, logq) -> np.ndarray:
    """k * log(q) with the 0 * log(0) = 0 convention (limit of q^k at k=0)."""
    k = np.asarray(k, dtype=float)
    logq = np.asarray(logq, dtype=float)
    out = np.zeros(np.broadcast(k, logq).shape)
    np.multiply(k, logq, where=(k != 0), out=out)
    return out


def binom_log_pmf_matrix_uncached(n: int, q: np.ndarray) -> np.ndarray:
    """Log binomial pmf table, lgamma sums per call and masked products."""
    k = np.arange(n + 1, dtype=float)
    lgn = math.lgamma(n + 1.0)
    lgb = lgn - np.array([math.lgamma(v + 1.0) + math.lgamma(n - v + 1.0) for v in k])
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


def collective_v_norm(total_copies: int, prior: Prior, k: float, direction) -> float:
    """|V(k, m̂)| by direct 3-D quadrature over the prior's own grid.

    The independent route for the rotational-invariance check: no
    reduction, just sum w * 𝐫 * p(k, m̂ | r⃗) over every (radial node,
    direction) pair of the prior, one radial node at a time.
    """
    _require_prior(SchemeKind.COLLECTIVE, prior)
    d = np.asarray(direction, dtype=float)
    d = d / float(np.sqrt(d @ d))
    dirs = prior.directions
    dots = dirs @ d
    v = np.zeros(4)
    for r, t, wr in zip(prior.radial_r, prior.radial_t, prior.radial_w):
        wp = wr * prior.angular_w * _collective_density(total_copies, float(k), t, r * dots)
        v[0] += t * wp.sum()
        v[1:] += r * (wp @ dirs)
    return float(np.sqrt(v @ v))


def _collective_density(total_copies: int, k: float, t, dots):
    """Vectorized p(k, m̂ | r⃗) from time components t and projections dots = r⃗·m̂."""
    hk = total_copies / 2.0 - k
    logp = collective_log_weight(k, total_copies)
    with np.errstate(divide="ignore"):
        if hk > 0:
            logp = logp + hk * (2.0 * np.log(t) - math.log(4.0))
        if k > 0:
            logp = logp + 2.0 * k * np.log(0.5 * (1.0 + dots))
    return np.exp(logp)


def collective_fidelity_full_grid(
    total_copies: int, prior: Prior, angular_order: int = 12
) -> float:
    """Collective optimal fidelity by brute-force 3-D quadrature.

    Enumerates a direction grid (Gauss x uniform azimuth) for m̂ and sums
    (P + |V|)/2 over (k, m̂) against the prior's full product grid — the
    slow independent route that the reduced engine is checked against.
    """
    _require_prior(SchemeKind.COLLECTIVE, prior)
    dirs, wdir = sphere_grid(angular_order)
    nodes4, weights = prior.product_nodes()
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
        bx = np.exp(binom_log_pmf_matrix(n, 0.5 * (1.0 + rx))).T
        by = np.exp(binom_log_pmf_matrix(n, 0.5 * (1.0 + ry))).T
        pmat = bx[:, :, None] * by[:, None, :]
        fmat = 0.5 * (1.0 + t * tg + rx[:, None, None] * gx + ry[:, None, None] * gy)
        total += float(w @ (pmat * fmat)[:, mask].sum(axis=1))
        mass += float(w @ pmat[:, mask].sum(axis=1))
    return total, mass


_ROOT_TOL = 5e-15
_LIKELIHOOD_TIE_TOL = 1e-12


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
    """The package's boundary candidates with the likelihood pick."""
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


def ml_guess_tables_full(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, x, y) ML guess components, solving every unphysical outcome."""
    tg, gx, gy, phys = _tomography_guess_tables(n)
    if not np.all(phys):
        alpha = np.arange(n + 1, dtype=float) / n
        ax, ay = np.meshgrid(alpha, alpha, indexing="ij")
        phi = ml_phi_batch(ax[~phys], ay[~phys])
        tg = tg.copy()
        gx = gx.copy()
        gy = gy.copy()
        tg[~phys] = 0.0
        gx[~phys] = np.cos(phi)
        gy[~phys] = np.sin(phi)
    return tg, gx, gy


def mc_draw_counts_chunked(rng, vecs: np.ndarray, n_half: int) -> tuple[np.ndarray, np.ndarray]:
    """Simulate per-axis +1 counts; one uniform per copy, row-major.

    Chunked by whole samples so the stream is identical to a single
    (samples, N) draw.
    """
    samples = vecs.shape[0]
    total = 2 * n_half
    chunk = max(1, (1 << 23) // max(total, 1))
    kx = np.empty(samples, dtype=np.int64)
    ky = np.empty(samples, dtype=np.int64)
    qx = 0.5 * (1.0 + vecs[:, 0])
    qy = 0.5 * (1.0 + vecs[:, 1])
    for s in range(0, samples, chunk):
        e = min(s + chunk, samples)
        u = rng.random((e - s, total))
        kx[s:e] = (u[:, :n_half] < qx[s:e, None]).sum(axis=1)
        ky[s:e] = (u[:, n_half:] < qy[s:e, None]).sum(axis=1)
    return kx, ky


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
