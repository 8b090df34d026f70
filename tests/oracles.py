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
"""

from __future__ import annotations

import math

import numpy as np

from blochest.estimators import DegenerateEstimateError, boundary_equation
from blochest.evaluator import LocalTables
from blochest.schemes import SchemeKind, binom_log_pmf_matrix


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
