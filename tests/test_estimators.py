"""Tomographic inversion, boundary-constrained ML, and the Bayes-optimal guess."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom as scipy_binom

from blochest.core import PriorKind, build_prior
from blochest.estimators import (
    DegenerateEstimateError,
    _quartic_roots,
    MLGuess,
    TomographicGuess,
    boundary_equation,
    ml_estimate,
    ml_phi_batch,
    optimal_estimate,
    random_estimate,
    tomography_estimate,
)
from blochest.evaluator import _physical_mask
from blochest.schemes import LocalOutcome, SchemeKind, SchemeSpec, enumerate_outcomes, local_probability
from oracles import ml_phi_companion, ml_phi_likelihood, ml_phi_scan


def _scipy_local_prob(outcome, vecs: np.ndarray) -> np.ndarray:
    """Independent local x/y outcome probability (scipy binomials)."""
    n = outcome.n_per_axis
    kx, ky = outcome.counts
    qx = 0.5 * (1.0 + vecs[:, 0])
    qy = 0.5 * (1.0 + vecs[:, 1])
    return scipy_binom.pmf(kx, n, qx) * scipy_binom.pmf(ky, n, qy)


class TestTomography:
    def test_balanced_counts_give_center(self):
        g = tomography_estimate(LocalOutcome(2, (1, 1)))
        assert g.radius == 0.0
        assert g.physical
        assert g.embedded.vec4 == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-15)

    def test_extreme_x_counts(self):
        g = tomography_estimate(LocalOutcome(2, (2, 1)))
        assert g.radius == pytest.approx(1.0, abs=1e-15)
        assert g.azimuth == pytest.approx(0.0, abs=1e-15)
        assert g.embedded.vec4 == pytest.approx([0.0, 1.0, 0.0, 0.0], abs=1e-12)

    def test_interior_frequencies(self):
        g = tomography_estimate(LocalOutcome(10, (9, 7)))
        assert g.radius == pytest.approx(math.sqrt(0.8), rel=1e-14)
        assert g.physical
        e = g.embedded
        assert e.spatial[2] == 0.0
        assert e.time_component**2 + float(e.spatial @ e.spatial) == pytest.approx(1.0, abs=1e-14)

    def test_unphysical_point_flagged(self):
        g = tomography_estimate(LocalOutcome(2, (2, 2)))
        assert g.radius == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert not g.physical
        with pytest.raises(DegenerateEstimateError):
            _ = g.embedded


def _loglik(phi: float, ax: float, ay: float) -> float:
    total = 0.0
    for a, trig in ((ax, math.cos(phi)), (ay, math.sin(phi))):
        qp, qm = 0.5 * (1.0 + trig), 0.5 * (1.0 - trig)
        if a > 0.0:
            total += -math.inf if qp <= 0.0 else a * math.log(qp)
        if a < 1.0:
            total += -math.inf if qm <= 0.0 else (1.0 - a) * math.log(qm)
    return total


def _bisection_oracle(R: float, gamma: float, ax: float, ay: float) -> float:
    """Dense-scan bisection for the boundary azimuth, maximum likelihood wins."""
    lo, hi = gamma - 0.25 * math.pi, gamma + 0.25 * math.pi
    grid = np.linspace(lo + 1e-12, hi, 100_001)
    vals = np.cos(2.0 * grid) - R * np.cos(gamma + grid)
    roots = []
    idx = np.nonzero((vals[:-1] < 0) != (vals[1:] < 0))[0]
    for i in idx:
        a, b = float(grid[i]), float(grid[i + 1])
        fa = float(vals[i])
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = math.cos(2.0 * m) - R * math.cos(gamma + m)
            if (fa < 0) != (fm < 0):
                b = m
            else:
                a, fa = m, fm
        roots.append(0.5 * (a + b))
    assert roots, "oracle found no boundary root"
    liks = [_loglik(r, ax, ay) for r in roots]
    return roots[int(np.argmax(liks))]


class TestMaximumLikelihood:
    def test_corner_outcome_exact(self):
        # all counts up on both axes: gamma = pi/4, solution is exactly there
        g = ml_estimate(LocalOutcome(3, (3, 3)))
        assert g.phi == pytest.approx(math.pi / 4.0, abs=0.0)
        assert g.guess.time_component == 0.0
        assert g.guess.spatial[:2] == pytest.approx(
            [math.cos(math.pi / 4), math.sin(math.pi / 4)], abs=1e-15
        )

    def test_physical_point_passes_through(self):
        out = LocalOutcome(10, (7, 6))
        ml = ml_estimate(out)
        tomo = tomography_estimate(out)
        assert ml.phi is None
        assert np.array_equal(ml.guess.vec4, tomo.embedded.vec4)

    def test_boundary_solution_against_bisection_oracle(self):
        R, gamma = 1.1, math.pi / 3.0
        ax = 0.5 * (1.0 + R * math.cos(gamma))
        ay = 0.5 * (1.0 + R * math.sin(gamma))
        phi = float(ml_phi_batch(np.array([ax]), np.array([ay]))[0])
        oracle = _bisection_oracle(R, gamma, ax, ay)
        assert phi == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("counts,n", [((4, 3), 4), ((6, 5), 6), ((8, 1), 8), ((5, 0), 5)])
    def test_integer_outcomes_match_batch(self, counts, n):
        out = LocalOutcome(n, counts)
        tomo = tomography_estimate(out)
        if tomo.physical:
            pytest.skip("chosen counts are physical")
        g = ml_estimate(out)
        ax, ay = out.alphas
        batch = float(ml_phi_batch(np.array([ax]), np.array([ay]))[0])
        assert g.phi == pytest.approx(batch, abs=1e-12)

    def test_random_unphysical_points_against_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            R = rng.uniform(1.0001, 1.4)
            gamma = rng.uniform(-math.pi, math.pi)
            if abs(math.cos(2.0 * gamma)) < 1e-3:
                continue
            ax = 0.5 * (1.0 + R * math.cos(gamma))
            ay = 0.5 * (1.0 + R * math.sin(gamma))
            if not (0.0 <= ax <= 1.0 and 0.0 <= ay <= 1.0):
                continue
            phi = float(ml_phi_batch(np.array([ax]), np.array([ay]))[0])
            oracle = _bisection_oracle(R, gamma, ax, ay)
            assert phi == pytest.approx(oracle, abs=1e-9)

    def test_near_axis_bump_root(self):
        # r_x pinned at 1 with a tiny r_y: the true maximum sits at
        # phi ~ 2 eps / 3, a feature far narrower than any fixed scan grid.
        for n in (32, 64, 512):
            eps = 1.0 / n
            phi = float(ml_phi_batch(np.array([1.0]), np.array([0.5 * (1.0 + eps)]))[0])
            assert phi == pytest.approx(2.0 * eps / 3.0, rel=0.02)

    def test_branch_continuity_across_unit_radius(self):
        gamma = 0.6
        dists = []
        for eps in (1e-4, 1e-6, 1e-8):
            inner_R, outer_R = 1.0 - eps, 1.0 + eps
            t_in = math.sqrt(1.0 - inner_R**2)
            inner = np.array(
                [t_in, inner_R * math.cos(gamma), inner_R * math.sin(gamma), 0.0]
            )
            ax = 0.5 * (1.0 + outer_R * math.cos(gamma))
            ay = 0.5 * (1.0 + outer_R * math.sin(gamma))
            phi = float(ml_phi_batch(np.array([ax]), np.array([ay]))[0])
            outer = np.array([0.0, math.cos(phi), math.sin(phi), 0.0])
            dists.append(float(np.linalg.norm(inner - outer)))
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 3.0 * math.sqrt(2e-8)

    def test_boundary_equation_shape(self):
        phis = np.linspace(0.0, 1.0, 5)
        vals = boundary_equation(phis, 1.2, 0.3)
        assert vals.shape == (5,)
        assert np.allclose(vals, np.cos(2 * phis) - 1.2 * np.cos(0.3 + phis))


SCAN_TOL = 1e-12

# The symmetries of the count square: (ax, ay) -> its images under D4.
SQUARE_IMAGES = (
    lambda x, y: (x, y),
    lambda x, y: (1.0 - x, y),
    lambda x, y: (x, 1.0 - y),
    lambda x, y: (1.0 - x, 1.0 - y),
    lambda x, y: (y, x),
    lambda x, y: (1.0 - y, x),
    lambda x, y: (y, 1.0 - x),
    lambda x, y: (1.0 - y, 1.0 - x),
)


def _batch_vs_scan(solve, ax: float, ay: float) -> tuple[float, float]:
    """(batch, scan) boundary azimuths for one unphysical frequency pair."""
    rx, ry = 2.0 * ax - 1.0, 2.0 * ay - 1.0
    scan = ml_phi_scan(math.hypot(rx, ry), math.atan2(ry, rx), ax, ay)
    return float(solve(np.array([ax]), np.array([ay]))[0]), scan


def _against_scan(solver):
    """Tests of ``solver`` against the former scan-and-bisect solver.

    Each class gets its own test functions, so that hypothesis sees one
    executor per function.
    """

    class AgainstScan:
        solve = staticmethod(solver)

        @given(ax=st.floats(0.0, 1.0), ay=st.floats(0.0, 1.0))
        @example(ax=1.0, ay=0.5 + 0.5 / 4096)
        def test_random_unphysical(self, ax, ay):
            assume(math.hypot(2.0 * ax - 1.0, 2.0 * ay - 1.0) > 1.0)
            phi, scan = _batch_vs_scan(self.solve, ax, ay)
            assert phi == pytest.approx(scan, abs=SCAN_TOL)

        @given(n=st.integers(2, 4096), image=st.sampled_from(SQUARE_IMAGES))
        @example(n=4096, image=SQUARE_IMAGES[0])
        @example(n=2, image=SQUARE_IMAGES[0])
        def test_near_axis(self, n, image):
            ax, ay = image(1.0, 0.5 * (1.0 + 1.0 / n))
            phi, scan = _batch_vs_scan(self.solve, ax, ay)
            assert phi == pytest.approx(scan, abs=SCAN_TOL)

        @pytest.mark.parametrize("ax,ay", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)])
        def test_corners(self, ax, ay):
            phi, scan = _batch_vs_scan(self.solve, ax, ay)
            assert phi == scan == math.atan2(2.0 * ay - 1.0, 2.0 * ax - 1.0)

        @given(exponent=st.floats(-15.0, -1.0), gamma=st.floats(-math.pi, math.pi))
        @example(exponent=-15.0, gamma=0.6)
        @example(exponent=-15.0, gamma=-2.5)
        def test_unit_radius_limit(self, exponent, gamma):
            # At R = 1 the root at gamma meets a second root when gamma is
            # a multiple of pi/2.  Near there both solvers place the root
            # only to about 1e-16 / |sin 2 gamma| (a 60-digit solve puts
            # either one up to ~1e-9 off at |sin 2 gamma| ~ 1e-7), so the
            # 1e-12 comparison keeps to gamma where the root is well
            # separated.
            assume(abs(math.sin(2.0 * gamma)) >= 1e-3)
            R = 1.0 + 10.0**exponent
            ax = 0.5 * (1.0 + R * math.cos(gamma))
            ay = 0.5 * (1.0 + R * math.sin(gamma))
            assume(0.0 <= ax <= 1.0 and 0.0 <= ay <= 1.0)
            assume(math.hypot(2.0 * ax - 1.0, 2.0 * ay - 1.0) > 1.0)
            phi, scan = _batch_vs_scan(self.solve, ax, ay)
            assert phi == pytest.approx(scan, abs=SCAN_TOL)

        def test_whole_table(self):
            n = 64
            alpha = np.arange(n + 1, dtype=float) / n
            ax, ay = np.meshgrid(alpha, alpha, indexing="ij")
            unphys = ~_physical_mask(n)
            assert unphys.sum() == 1016
            phi = self.solve(ax[unphys], ay[unphys])
            for got, x, y in zip(phi, ax[unphys], ay[unphys]):
                rx, ry = 2.0 * x - 1.0, 2.0 * y - 1.0
                scan = ml_phi_scan(math.hypot(rx, ry), math.atan2(ry, rx), x, y)
                assert got == pytest.approx(scan, abs=SCAN_TOL)

        def test_no_admissible_root_raises(self):
            # R = 2e300: no angle brings the residual of g near 0, so no
            # NaN comes back.
            with pytest.raises(DegenerateEstimateError):
                self.solve(np.array([0.5, 1e300]), np.array([1.0, 0.3]))

    return AgainstScan


# the closed-form quartic solver, and the companion-matrix solver it replaced
TestQuarticAgainstScan = _against_scan(ml_phi_batch)
TestCompanionAgainstScan = _against_scan(ml_phi_companion)


def _unphysical_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    alpha = np.arange(n + 1, dtype=float) / n
    ax, ay = np.meshgrid(alpha, alpha, indexing="ij")
    unphys = ~_physical_mask(n)
    return ax[unphys], ay[unphys]


class TestClosedFormSolver:
    """The closed-form solver against the companion solver and the likelihood pick."""

    @settings(max_examples=25)
    @given(n=st.integers(1, 128))
    @example(n=1)
    @example(n=2)
    @example(n=255)
    @example(n=256)
    def test_whole_table_matches_companion(self, n):
        ax, ay = _unphysical_rows(n)
        phi = ml_phi_batch(ax, ay)
        assert np.abs(phi - ml_phi_companion(ax, ay)).max() <= SCAN_TOL

    @given(ax=st.floats(0.0, 1.0), ay=st.floats(0.0, 1.0))
    @example(ax=1.0, ay=0.5 + 0.5 / 4096)
    @example(ax=1.0, ay=1.0)
    @example(ax=1.0 - 1e-15, ay=1.0)
    def test_closest_root_is_likeliest(self, ax, ay):
        assume(math.hypot(2.0 * ax - 1.0, 2.0 * ay - 1.0) > 1.0)
        ax, ay = np.array([ax]), np.array([ay])
        assert ml_phi_batch(ax, ay)[0] == ml_phi_likelihood(ax, ay)[0]

    @given(
        n=st.integers(1, 4096),
        kx=st.floats(0.0, 1.0),
        ky=st.floats(0.0, 1.0),
        image=st.sampled_from(SQUARE_IMAGES),
    )
    @example(n=4096, kx=1.0, ky=0.5, image=SQUARE_IMAGES[0])
    def test_closest_root_is_likeliest_on_counts(self, n, kx, ky, image):
        # counts drawn as fractions of n, rounded, then mapped by a square symmetry
        ax, ay = image(round(kx * n) / n, round(ky * n) / n)
        assume(math.hypot(2.0 * ax - 1.0, 2.0 * ay - 1.0) > 1.0)
        ax, ay = np.array([ax]), np.array([ay])
        assert ml_phi_batch(ax, ay)[0] == ml_phi_likelihood(ax, ay)[0]

    @given(R=st.floats(1.0, math.sqrt(2.0)), gamma=st.floats(-math.pi, math.pi))
    @example(R=1.0, gamma=0.0)  # a double root at z = 1
    @example(R=1.0, gamma=math.pi / 4.0)
    @example(R=math.sqrt(2.0), gamma=math.pi / 4.0)  # the corner
    def test_closed_form_roots(self, R, gamma):
        z = _quartic_roots(np.array([R]), np.array([gamma]))[0]
        a = R * cmath.exp(1j * gamma)
        assert np.abs(z**4 - a * z**3 - a.conjugate() * z + 1.0).max() <= 1e-13
        # the same four roots as the companion-matrix eigenvalues, up to
        # the sqrt(eps) spread of a double root
        ref = np.roots([1.0, -a, 0.0, -a.conjugate(), 1.0])
        assert np.abs(z[:, None] - ref[None, :]).min(axis=1).max() <= 1e-7
        assert np.abs(z[:, None] - ref[None, :]).min(axis=0).max() <= 1e-7

    def test_scalar_input(self):
        phi = ml_phi_batch(0.9, 1.0)
        assert phi.shape == ()
        assert phi == ml_estimate(LocalOutcome(10, (9, 10))).phi == 0.9886980582976127

    def test_result_has_the_input_shape(self):
        ax = np.array([[0.9, 1.0, 0.95], [1.0, 0.0, 0.1]])
        ay = np.array([[1.0, 0.9, 1.0], [1.0, 0.0, 0.05]])
        phi = ml_phi_batch(ax, ay)
        assert phi.shape == (2, 3)
        assert np.array_equal(phi.ravel(), ml_phi_batch(ax.ravel(), ay.ravel()))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rows_raise(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ml_phi_batch(np.array([1.0, bad]), np.array([1.0, 0.9]))
        with pytest.raises(ValueError, match="finite"):
            ml_phi_batch(np.array([0.9]), np.array([bad]))


@pytest.fixture(scope="module")
def prior():
    return build_prior(PriorKind.EQUATORIAL_BURES, 48, 96)


class TestOptimalEstimate:
    def test_uninformative_outcome_gives_center(self, prior):
        guess, norm = optimal_estimate(
            LocalOutcome(1, (0, 0)), lambda o, v: np.full(len(v), 0.25), prior
        )
        assert guess.vec4 == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-12)
        assert norm == pytest.approx(0.25 * float(prior.mean_embedding()[0]), rel=1e-12)

    def test_normalization_of_posterior_vector(self, prior):
        # probability weights engineered so V = (0.3, 0.4, 0, 0), whose
        # normalized guess must be (0.6, 0.8, 0, 0) with |V| = 0.5
        m = prior.mean_embedding()
        nodes4, w = prior.product_nodes()
        x2 = float(w @ nodes4[:, 1] ** 2)

        def prob_scalar(_, vecs):
            return np.full(len(vecs), 0.3 / m[0])

        guess, norm = optimal_estimate(LocalOutcome(1, (0, 0)), prob_scalar, prior)
        assert norm == pytest.approx(0.3, rel=1e-10)
        assert guess.vec4 == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-10)

        def prob_xy(_, vecs):
            return 0.3 / m[0] + (0.4 / x2) * vecs[:, 0]

        guess, norm = optimal_estimate(LocalOutcome(1, (0, 0)), prob_xy, prior)
        assert norm == pytest.approx(0.5, rel=1e-10)
        assert guess.vec4 == pytest.approx([0.6, 0.8, 0.0, 0.0], abs=1e-10)

    def test_single_copy_outcome_vs_riemann_oracle(self, prior):
        outcome = LocalOutcome(1, (1, 1))
        guess, norm = optimal_estimate(outcome, _scipy_local_prob, prior)

        # dense midpoint Riemann sum over (u, theta), r = sin u
        nu, nth = 3000, 2048
        u = (np.arange(nu) + 0.5) * (0.5 * math.pi / nu)
        du = 0.5 * math.pi / nu
        th = (np.arange(nth) + 0.5) * (2.0 * math.pi / nth)
        r = np.sin(u)
        t = np.cos(u)
        wu = np.sin(u) * du              # radial weight of the planar ensemble
        qx = 0.5 * (1.0 + r[:, None] * np.cos(th)[None, :])
        qy = 0.5 * (1.0 + r[:, None] * np.sin(th)[None, :])
        p = qx * qy                      # both single-copy counts up
        wth = 1.0 / nth
        V = np.array(
            [
                float((wu * t) @ p.sum(axis=1)) * wth,
                float(wu @ ((p * (r[:, None] * np.cos(th)[None, :])).sum(axis=1))) * wth,
                float(wu @ ((p * (r[:, None] * np.sin(th)[None, :])).sum(axis=1))) * wth,
                0.0,
            ]
        )
        oracle_norm = float(np.linalg.norm(V))
        oracle_guess = V / oracle_norm
        assert norm == pytest.approx(oracle_norm, abs=1e-6)
        assert guess.vec4 == pytest.approx(oracle_guess, abs=1e-6)

    def test_probability_shape_validated(self, prior):
        with pytest.raises(ValueError):
            optimal_estimate(LocalOutcome(1, (0, 0)), lambda o, v: np.ones(3), prior)

    def test_equivariance_under_plane_rotation(self, prior):
        delta = 0.83
        c, s = math.cos(delta), math.sin(delta)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        outcome = LocalOutcome(2, (2, 1))

        def prob_rotated(o, vecs):
            return _scipy_local_prob(o, vecs @ rot)  # rows become rot^(-1) @ v

        base, _ = optimal_estimate(outcome, _scipy_local_prob, prior)
        turned, _ = optimal_estimate(outcome, prob_rotated, prior)
        assert turned.time_component == pytest.approx(base.time_component, abs=1e-10)
        assert turned.spatial == pytest.approx(rot @ base.spatial, abs=1e-10)


class TestRandomEstimate:
    def test_default_is_center(self):
        assert random_estimate().vec4 == pytest.approx([1, 0, 0, 0], abs=0.0)

    @pytest.mark.parametrize("kind", list(PriorKind))
    def test_prior_symmetric_center(self, kind):
        p = build_prior(kind, 32, 32)
        assert random_estimate(p).vec4 == pytest.approx([1, 0, 0, 0], abs=1e-12)


class TestPhysicalityAcrossOutcomes:
    @pytest.mark.parametrize("total", [2, 6, 12, 20])
    def test_ml_guesses_all_physical(self, total):
        outcomes = enumerate_outcomes(SchemeSpec(SchemeKind.LOCAL_XY, total)).outcomes
        for out in outcomes:
            g = ml_estimate(out).guess
            assert g.time_component >= 0.0
            norm2 = g.time_component**2 + float(g.spatial @ g.spatial)
            assert abs(norm2 - 1.0) <= 1e-12

    def test_optimal_guesses_physical(self):
        prior = build_prior(PriorKind.EQUATORIAL_BURES, 24, 48)
        outcomes = enumerate_outcomes(SchemeSpec(SchemeKind.LOCAL_XY, 6)).outcomes
        for out in outcomes:
            g, norm = optimal_estimate(out, _scipy_local_prob, prior)
            assert norm > 0.0
            assert g.time_component >= 0.0
            norm2 = g.time_component**2 + float(g.spatial @ g.spatial)
            assert abs(norm2 - 1.0) <= 1e-12


class TestProbabilityOracleAgreement:
    def test_library_matches_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 12))
            kx = int(rng.integers(0, n + 1))
            ky = int(rng.integers(0, n + 1))
            r = rng.uniform(0, 1)
            th = rng.uniform(0, 2 * math.pi)
            state = np.array([r * math.cos(th), r * math.sin(th), 0.0])
            mine = local_probability(LocalOutcome(n, (kx, ky)), state)
            ref = float(_scipy_local_prob(LocalOutcome(n, (kx, ky)), state[None, :])[0])
            assert mine == pytest.approx(ref, rel=1e-10, abs=1e-280)
