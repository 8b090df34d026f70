"""Tomographic inversion, boundary-constrained ML, and the Bayes-optimal guess.

The tomography and ML guesses come from the evaluator's rule for any
arrays of counts (``_count_guesses``), the optimal guess from its count
tables (``local_tables`` and ``_optimal_guess_tables``).
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom as scipy_binom

from blochest.core import PriorKind, build_prior
from blochest.estimators import DegenerateEstimateError, ml_phi_batch
from blochest.evaluator import (
    LocalTables,
    _count_guesses,
    _ml_boundary,
    _optimal_guess_tables,
    local_tables,
)
from blochest.schemes import SchemeKind, SchemeSpec, binom_log_pmf_matrix
from oracles import (
    _quartic_roots,
    boundary_equation,
    guess_error,
    local_tables_per_node,
    ml_phi_companion,
    ml_phi_ferrari,
    ml_phi_likelihood,
    ml_phi_mpmath,
    ml_phi_scan,
    physical_mask,
)


def _scipy_local_prob(n: int, kx: int, ky: int, vecs: np.ndarray) -> np.ndarray:
    """Independent local x/y outcome probability (scipy binomials)."""
    qx = 0.5 * (1.0 + vecs[:, 0])
    qy = 0.5 * (1.0 + vecs[:, 1])
    return scipy_binom.pmf(kx, n, qx) * scipy_binom.pmf(ky, n, qy)


def _guess(estimator: str, n: int, kx: int, ky: int) -> tuple[np.ndarray, bool]:
    """(t, x, y) of the evaluator's guess rule at one outcome, and whether it is kept."""
    (t, x, y), kept = _count_guesses(estimator, n, np.array([kx]), np.array([ky]))
    return np.array([t[0], x[0], y[0]]), kept is None or bool(kept[0])


class TestTomography:
    def test_balanced_counts_give_center(self):
        g, kept = _guess("tomography", 2, 1, 1)
        assert g[1] == g[2] == 0.0
        assert kept
        assert g == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)

    def test_extreme_x_counts(self):
        g, _ = _guess("tomography", 2, 2, 1)
        assert math.hypot(g[1], g[2]) == pytest.approx(1.0, abs=1e-15)
        assert math.atan2(g[2], g[1]) == pytest.approx(0.0, abs=1e-15)
        assert g == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)

    def test_interior_frequencies(self):
        g, kept = _guess("tomography", 10, 9, 7)
        assert math.hypot(g[1], g[2]) == pytest.approx(math.sqrt(0.8), rel=1e-14)
        assert kept
        assert float(g @ g) == pytest.approx(1.0, abs=1e-14)

    def test_unphysical_point_flagged(self):
        g, kept = _guess("tomography", 2, 2, 2)
        assert math.hypot(g[1], g[2]) == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert not kept

    def test_physicality_is_the_tables_exact_test(self):
        # n = 274 has outcomes on the circle whose float R is 1 + 2^-52,
        # e.g. (32, 225): (2*32 - 274)^2 + (2*225 - 274)^2 = 274^2.
        n = 274
        _, kept = _count_guesses("tomography", n, *np.indices((n + 1, n + 1)))
        assert np.array_equal(kept, physical_mask(n))
        assert math.hypot(2 * 32 / n - 1, 2 * 225 / n - 1) > 1.0
        assert kept[32, 225]
        assert np.array_equal(_guess("ml", n, 32, 225)[0], _guess("tomography", n, 32, 225)[0])


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
        assert ml_phi_batch(1.0, 1.0) == pytest.approx(math.pi / 4.0, abs=0.0)
        g, kept = _guess("ml", 3, 3, 3)
        assert kept and g[0] == 0.0
        assert g[1:] == pytest.approx(
            [math.cos(math.pi / 4), math.sin(math.pi / 4)], abs=1e-15
        )

    def test_physical_point_passes_through(self):
        ml, _ = _guess("ml", 10, 7, 6)
        tomo, kept = _guess("tomography", 10, 7, 6)
        assert kept
        assert np.array_equal(ml, tomo)

    def test_boundary_solution_against_bisection_oracle(self):
        R, gamma = 1.1, math.pi / 3.0
        ax = 0.5 * (1.0 + R * math.cos(gamma))
        ay = 0.5 * (1.0 + R * math.sin(gamma))
        phi = float(ml_phi_batch(np.array([ax]), np.array([ay]))[0])
        oracle = _bisection_oracle(R, gamma, ax, ay)
        assert phi == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("counts,n", [((4, 3), 4), ((6, 5), 6), ((8, 1), 8), ((5, 0), 5)])
    def test_integer_outcomes_match_batch(self, counts, n):
        if _guess("tomography", n, *counts)[1]:
            pytest.skip("chosen counts are physical")
        g, _ = _guess("ml", n, *counts)
        ax, ay = counts[0] / n, counts[1] / n
        rx, ry = 2.0 * ax - 1.0, 2.0 * ay - 1.0
        scan = ml_phi_scan(math.hypot(rx, ry), math.atan2(ry, rx), ax, ay)
        assert g[0] == 0.0
        assert math.atan2(g[2], g[1]) == pytest.approx(scan, abs=1e-12)

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
            unphys = ~physical_mask(n)
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


# the package's solver (the slope bisection, which replaced the closed-form
# quartic the class is named for), and the companion-matrix solver
TestQuarticAgainstScan = _against_scan(ml_phi_batch)
TestCompanionAgainstScan = _against_scan(ml_phi_companion)


def _unphysical_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    alpha = np.arange(n + 1, dtype=float) / n
    ax, ay = np.meshgrid(alpha, alpha, indexing="ij")
    unphys = ~physical_mask(n)
    return ax[unphys], ay[unphys]


class TestClosedFormSolver:
    """The package's solver against the companion solver; the closed form's pick."""

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
        assert ml_phi_ferrari(ax, ay)[0] == ml_phi_likelihood(ax, ay)[0]

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
        assert ml_phi_ferrari(ax, ay)[0] == ml_phi_likelihood(ax, ay)[0]

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
        assert phi == 0.9886980582976127

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


def _near_axis_or_diagonal(n: int, i: int, j: int, diagonal: bool, image) -> tuple[float, float]:
    """Frequencies of counts next to the k_x = n edge's midpoint or the diagonal.

    Off the diagonal the counts are (n - i, n/2 + j); on it they are
    (k, k - |j| mod 4) with k = n - i floor(n/16).  ``image`` is a symmetry
    of the count square.  Physical counts are rejected.
    """
    if diagonal:
        kx = n - i * (n // 16)
        ky = kx - abs(j) % 4
    else:
        kx, ky = n - i, n // 2 + j
    assume(0 <= kx and 0 <= ky <= n and (2 * kx - n) ** 2 + (2 * ky - n) ** 2 > n * n)
    return image(kx / n, ky / n)


_NEAR_AXIS_OR_DIAGONAL = dict(
    i=st.integers(0, 3), j=st.integers(-50, 50), diagonal=st.booleans(),
    image=st.sampled_from(SQUARE_IMAGES),
)


class TestSlopeBisection:
    """The slope bisection against 50-digit roots and the likelihood pick."""

    @given(n=st.integers(1, 2**24), **_NEAR_AXIS_OR_DIAGONAL)
    # (n; k_x, k_y) = (51951; 25976, 0), where the closed-form quartic was 4.3e-12 off
    @example(n=51951, i=0, j=1, diagonal=False, image=SQUARE_IMAGES[6])
    @example(n=2**24, i=0, j=1, diagonal=False, image=SQUARE_IMAGES[0])
    @example(n=2**24, i=1, j=1, diagonal=True, image=SQUARE_IMAGES[3])
    def test_against_50_digit_roots(self, n, i, j, diagonal, image):
        ax, ay = _near_axis_or_diagonal(n, i, j, diagonal, image)
        phi = float(ml_phi_batch(ax, ay))
        assert guess_error(phi, ml_phi_mpmath(ax, ay)) <= 5e-16

    # The closed-form candidates drift from the root at large n (1.2e-9 at
    # n = 13163739), so the 1e-12 comparison stops at n = 2^14.
    @given(n=st.integers(1, 2**14), **_NEAR_AXIS_OR_DIAGONAL)
    @example(n=2**14, i=0, j=1, diagonal=False, image=SQUARE_IMAGES[6])
    def test_picks_the_likeliest_root(self, n, i, j, diagonal, image):
        ax, ay = _near_axis_or_diagonal(n, i, j, diagonal, image)
        ax, ay = np.array([ax]), np.array([ay])
        assert abs(ml_phi_batch(ax, ay)[0] - ml_phi_likelihood(ax, ay)[0]) <= 1e-12

    def test_direct_solve_matches_its_wedge_image(self):
        # k_y = 0 and k_x within 50 of n/2: a direct solve sits next to the
        # y axis, its wedge image next to the x axis
        worst = 0.0
        for n in np.random.default_rng(0).integers(1000, 2**24, size=200):
            n = int(n)
            kx = np.arange(n // 2 - 50, n // 2 + 51)
            kx = kx[2 * kx != n]
            ky = np.zeros_like(kx)
            phi = ml_phi_batch(kx / n, ky / n)
            c, s = _ml_boundary(n, kx, ky)
            worst = max(worst, np.abs(np.cos(phi) - c).max(), np.abs(np.sin(phi) - s).max())
        assert worst <= 1e-15

    # n <= 256 is compared with the companion solver above
    @pytest.mark.parametrize("n", [384, 512, 1024])
    def test_whole_table_matches_ferrari(self, n):
        ax, ay = _unphysical_rows(n)
        phi = ml_phi_batch(ax, ay)
        ref = ml_phi_ferrari(ax, ay)
        assert np.abs(np.cos(phi) - np.cos(ref)).max() <= SCAN_TOL
        assert np.abs(np.sin(phi) - np.sin(ref)).max() <= SCAN_TOL

    @pytest.mark.parametrize("ax,ay", [(-1e-17, 0.9), (0.9, 1.0 + 2**-52), (2.0, 0.5)])
    def test_frequencies_outside_the_unit_interval_raise(self, ax, ay):
        with pytest.raises(DegenerateEstimateError, match=r"\[0, 1\]"):
            ml_phi_batch(np.array([1.0, ax]), np.array([1.0, ay]))


@pytest.fixture(scope="module")
def prior():
    return build_prior(PriorKind.EQUATORIAL_BURES, 48, 96)


class TestOptimalEstimate:
    """V/|V| from the local tables, against a Riemann sum and the per-node tables."""

    def test_uninformative_outcome_gives_center(self, prior):
        # the balanced outcome of N = 4 is even under x -> -x and y -> -y,
        # so V has no spatial part
        spec = SchemeSpec(SchemeKind.LOCAL_XY, 4)
        tables = local_tables(spec, prior)
        guess = [g[1, 1] for g in _optimal_guess_tables(tables)]
        assert guess == pytest.approx([1.0, 0.0, 0.0], abs=1e-12)
        ref = local_tables_per_node(spec, prior)
        assert tables.v_t[1, 1] == pytest.approx(ref.v_t[1, 1], rel=1e-12)

    def test_normalization_of_posterior_vector(self):
        # V = (0.3, 0, 0), (0.3, 0.4, 0) and 0 on hand-made tables: the
        # guesses are (1, 0, 0), (0.6, 0.8, 0), and the unit t axis where
        # V vanishes
        zero = np.zeros((2, 2))
        tables = LocalTables(
            n_per_axis=1,
            prob=zero,
            v_t=np.array([[0.3, 0.3], [0.0, 0.0]]),
            v_x=np.array([[0.0, 0.4], [0.0, 0.0]]),
            v_y=zero,
        )
        tg, gx, gy = _optimal_guess_tables(tables)
        assert [tg[0, 0], gx[0, 0], gy[0, 0]] == pytest.approx([1.0, 0.0, 0.0], abs=1e-10)
        assert [tg[0, 1], gx[0, 1], gy[0, 1]] == pytest.approx([0.6, 0.8, 0.0], abs=1e-10)
        assert np.array_equal(tg[1], [1.0, 1.0]) and not gx[1].any() and not gy[1].any()

    def test_single_copy_outcome_vs_riemann_oracle(self, prior):
        # both single-copy counts up
        tables = local_tables(SchemeSpec(SchemeKind.LOCAL_XY, 2), prior)
        norm = math.sqrt(tables.v_t[1, 1] ** 2 + tables.v_x[1, 1] ** 2 + tables.v_y[1, 1] ** 2)
        guess = [g[1, 1] for g in _optimal_guess_tables(tables)]

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
            ]
        )
        oracle_norm = float(np.linalg.norm(V))
        oracle_guess = V / oracle_norm
        assert norm == pytest.approx(oracle_norm, abs=1e-6)
        assert guess == pytest.approx(oracle_guess, abs=1e-6)

    def test_equivariance_under_plane_rotation(self, prior):
        # A quarter turn (x, y) -> (-y, x) of the state maps the counts
        # (k_x, k_y) to (n - k_y, k_x), and the prior's 96 directions onto
        # themselves, so it turns the guess at (2, 1) into that at (1, 2).
        spec = SchemeSpec(SchemeKind.LOCAL_XY, 4)
        tg, gx, gy = _optimal_guess_tables(local_tables(spec, prior))
        bt, bx, by = _optimal_guess_tables(local_tables_per_node(spec, prior))
        assert [tg[1, 2], gx[1, 2], gy[1, 2]] == pytest.approx(
            [bt[2, 1], -by[2, 1], bx[2, 1]], abs=1e-10
        )


class TestPhysicalityAcrossOutcomes:
    @pytest.mark.parametrize("total", [2, 6, 12, 20])
    def test_ml_guesses_all_physical(self, total):
        n = total // 2
        (t, x, y), _ = _count_guesses("ml", n, *np.indices((n + 1, n + 1)))
        assert np.all(t >= 0.0)
        assert np.abs(t**2 + x**2 + y**2 - 1.0).max() <= 1e-12

    def test_optimal_guesses_physical(self):
        prior = build_prior(PriorKind.EQUATORIAL_BURES, 24, 48)
        spec = SchemeSpec(SchemeKind.LOCAL_XY, 6)
        tables = local_tables(spec, prior)
        assert np.all(np.sqrt(tables.v_t**2 + tables.v_x**2 + tables.v_y**2) > 0.0)
        t, x, y = _optimal_guess_tables(tables)
        assert np.all(t >= 0.0)
        assert np.abs(t**2 + x**2 + y**2 - 1.0).max() <= 1e-12
        ref = _optimal_guess_tables(local_tables_per_node(spec, prior))
        for got, want in zip((t, x, y), ref):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


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
            b = np.exp(binom_log_pmf_matrix(n, 0.5 * (1.0 + state[:2])))
            mine = b[kx, 0] * b[ky, 1]
            ref = float(_scipy_local_prob(n, kx, ky, state[None, :])[0])
            assert mine == pytest.approx(ref, rel=1e-10, abs=1e-280)
