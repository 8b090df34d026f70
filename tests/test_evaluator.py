"""Average-fidelity pipelines: exact enumeration, Monte Carlo, discard
accounting, adaptive policies, and the cross-route identities tying them
together."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import binom as scipy_binom

from blochest import core, evaluator
from blochest.core import PriorKind, build_prior
from blochest.evaluator import (
    AllOutcomesDiscardedError,
    EnumerationLimitError,
    FidelityReport,
    Method,
    adaptive_local_fidelity,
    collective_tables,
    exact_fidelity,
    local_tables,
    monte_carlo_fidelity,
)
from blochest.quadrature import QuadratureError
from blochest.schemes import SchemeKind, SchemeSpec
from oracles import collective_fidelity_full_grid, collective_v_norm, fidelity_from_guesses

# Anchor values computed at the frozen production orders (128 radial, 256
# angular); regression tolerance leaves room for BLAS reassociation only.
LOCAL_OPT_N2 = 0.8435921354681386
LOCAL_ML_N2 = 0.7357022603955152
COLLECTIVE_N2 = 0.7888619789666418


def _riemann_local_optimal_n2() -> float:
    """Single-copy-per-axis average fidelity by brute force.

    Dense midpoint grid over (u, theta) with r = sin u, all four outcomes
    enumerated explicitly; F = sum_x (P_x + |V_x|)/2.
    """
    nu, nth = 1500, 1536
    u = (np.arange(nu) + 0.5) * (0.5 * math.pi / nu)
    du = 0.5 * math.pi / nu
    th = (np.arange(nth) + 0.5) * (2.0 * math.pi / nth)
    r, t = np.sin(u), np.cos(u)
    wu = np.sin(u) * du
    wth = 1.0 / nth
    cx, sy = np.cos(th), np.sin(th)
    qx = 0.5 * (1.0 + r[:, None] * cx[None, :])
    qy = 0.5 * (1.0 + r[:, None] * sy[None, :])
    total = 0.0
    for ix in (0, 1):
        px = qx if ix else 1.0 - qx
        for iy in (0, 1):
            p = px * (qy if iy else 1.0 - qy)
            w = wu[:, None] * (p * wth)
            P = float(w.sum())
            V = np.array(
                [
                    float((w * t[:, None]).sum()),
                    float((w * (r[:, None] * cx[None, :])).sum()),
                    float((w * (r[:, None] * sy[None, :])).sum()),
                ]
            )
            total += 0.5 * (P + float(np.linalg.norm(V)))
    return total


class TestExactLocal:
    def test_two_copies_optimal_anchor(self, eq_prior):
        rep = exact_fidelity(
            SchemeSpec(SchemeKind.LOCAL_XY, 2), "optimal", eq_prior,
            radial_order=128, angular_order=256,
        )
        assert rep.fidelity == pytest.approx(LOCAL_OPT_N2, abs=1e-10)
        assert rep.method is Method.EXACT_ENUMERATION
        assert rep.stderr == 0.0
        assert rep.discarded_fraction is None
        assert rep.copies == 2

    def test_two_copies_optimal_vs_riemann_pipeline(self, eq_prior):
        rep = exact_fidelity(
            SchemeSpec(SchemeKind.LOCAL_XY, 2), "optimal", eq_prior,
            radial_order=128, angular_order=256,
        )
        assert rep.fidelity == pytest.approx(_riemann_local_optimal_n2(), abs=1e-6)

    def test_two_copies_ml_anchor(self, eq_prior):
        rep = exact_fidelity(
            SchemeSpec(SchemeKind.LOCAL_XY, 2), "ml", eq_prior,
            radial_order=128, angular_order=256,
        )
        assert rep.fidelity == pytest.approx(LOCAL_ML_N2, abs=1e-10)

    def test_optimal_dominates_ml(self, eq_prior):
        for n in (2, 6):
            opt = exact_fidelity(
                SchemeSpec(SchemeKind.LOCAL_XY, n), "optimal", eq_prior,
                radial_order=128, angular_order=256,
            ).fidelity
            ml = exact_fidelity(
                SchemeSpec(SchemeKind.LOCAL_XY, n), "ml", eq_prior,
                radial_order=128, angular_order=256,
            ).fidelity
            assert opt >= ml

    def test_auto_orders_stabilize(self, eq_prior_small):
        rep = exact_fidelity(SchemeSpec(SchemeKind.LOCAL_XY, 2), "optimal", eq_prior_small)
        assert rep.fidelity == pytest.approx(LOCAL_OPT_N2, abs=1e-8)

    def test_guess_route_identity(self, eq_prior_small):
        # Outcome-summed fidelity from explicit guess tables must equal the
        # (P + |V|)/2 closed form of the same average.
        spec = SchemeSpec(SchemeKind.LOCAL_XY, 4)
        tables = local_tables(spec, eq_prior_small)
        vnorm = np.sqrt(tables.v_t**2 + tables.v_x**2 + tables.v_y**2)
        closed = 0.5 * (tables.prob.sum() + vnorm.sum())
        guesses = (tables.v_t / vnorm, tables.v_x / vnorm, tables.v_y / vnorm)
        summed, mass = fidelity_from_guesses(spec, eq_prior_small, guesses)
        assert mass == pytest.approx(1.0, abs=1e-10)
        assert summed == pytest.approx(closed, abs=1e-10)

    def test_enumeration_limit(self, eq_prior_small):
        with pytest.raises(EnumerationLimitError):
            exact_fidelity(
                SchemeSpec(SchemeKind.LOCAL_XY, 200), "optimal", eq_prior_small,
                enumeration_limit=50,
            )

    def test_estimator_and_prior_validation(self, eq_prior, full_prior):
        local = SchemeSpec(SchemeKind.LOCAL_XY, 2)
        coll = SchemeSpec(SchemeKind.COLLECTIVE, 2)
        with pytest.raises(ValueError, match="random_guess_fidelity"):
            exact_fidelity(local, "random", eq_prior)
        with pytest.raises(ValueError):
            exact_fidelity(local, "optimal", full_prior)
        with pytest.raises(ValueError):
            exact_fidelity(coll, "optimal", eq_prior)
        with pytest.raises(ValueError):
            exact_fidelity(coll, "ml", full_prior)
        with pytest.raises(ValueError):
            exact_fidelity(local, "unknown-name", eq_prior)


class TestExactCollective:
    def test_two_copies_anchor_and_dual_route(self, full_prior):
        rep = exact_fidelity(
            SchemeSpec(SchemeKind.COLLECTIVE, 2), "optimal", full_prior,
            radial_order=128, angular_order=256,
        )
        assert rep.fidelity == pytest.approx(COLLECTIVE_N2, abs=1e-10)
        # independent full-sphere grid route, no reduction to the radial line
        brute = collective_fidelity_full_grid(
            2, build_prior(PriorKind.FULL_BURES, 64, 24), angular_order=24
        )
        assert rep.fidelity == pytest.approx(brute, abs=1e-10)

    def test_direction_independence_of_v_norm(self, full_prior_small):
        dirs = [
            np.array([0.0, 0.0, 1.0]),
            np.array([1.0, 0.0, 0.0]),
            np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0),
            np.array([0.36, -0.48, 0.8]),
        ]
        for n, k in ((2, 1.0), (3, 1.5), (3, 0.5), (6, 2.0)):
            vals = [collective_v_norm(n, full_prior_small, k, d) for d in dirs]
            for v in vals[1:]:
                assert v == pytest.approx(vals[0], abs=1e-10)

    def test_tables_sum_to_unit_mass(self):
        tables = collective_tables(4, build_prior(PriorKind.FULL_BURES, 32, 64))
        assert tables.prob.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(tables.prob >= 0.0)

    def test_error_bound_at_large_n(self, collective_sweep):
        for n, rep in collective_sweep:
            if n >= 200:
                assert 1.0 - rep.fidelity <= 1.3 / n


class TestTomographyDiscard:
    def test_two_copies_everything_discarded(self, eq_prior):
        with pytest.raises(AllOutcomesDiscardedError) as exc:
            exact_fidelity(SchemeSpec(SchemeKind.LOCAL_XY, 2), "tomography", eq_prior)
        assert exc.value.discarded_fraction == 1.0

    def test_four_copies_values(self, eq_prior):
        rep = exact_fidelity(
            SchemeSpec(SchemeKind.LOCAL_XY, 4), "tomography", eq_prior,
            radial_order=128, angular_order=256,
        )
        assert rep.fidelity == pytest.approx(0.7950367647058819, abs=1e-10)
        assert rep.discarded_fraction == pytest.approx(0.4333333333333331, abs=1e-10)
        assert rep.estimator == "tomography"

    def test_discard_mass_matches_enumeration(self, eq_prior_small):
        # the reported fraction must equal the probability mass on count
        # pairs whose frequency point leaves the unit disc
        spec = SchemeSpec(SchemeKind.LOCAL_XY, 4)
        rep = exact_fidelity(spec, "tomography", eq_prior_small)
        tables = local_tables(spec, build_prior(PriorKind.EQUATORIAL_BURES, 64, 128))
        n = tables.n_per_axis
        k = np.arange(n + 1)
        rx = (2.0 * k - n)[:, None]
        ry = (2.0 * k - n)[None, :]
        unphysical = rx**2 + ry**2 > n**2
        assert rep.discarded_fraction == pytest.approx(
            float(tables.prob[unphysical].sum()), abs=1e-8
        )

    def test_collective_scheme_rejected(self, full_prior):
        with pytest.raises(ValueError, match="local x/y scheme"):
            exact_fidelity(SchemeSpec(SchemeKind.COLLECTIVE, 4), "tomography", full_prior)

    def test_auto_orders_keep_the_given_grid(self, eq_prior):
        # auto mode verifies the given grid downward against half its
        # orders, so a stable value is the given grid's own
        a = exact_fidelity(SchemeSpec(SchemeKind.LOCAL_XY, 4), "tomography", eq_prior)
        b = exact_fidelity(
            SchemeSpec(SchemeKind.LOCAL_XY, 4), "tomography", eq_prior,
            radial_order=128, angular_order=256,
        )
        assert a.fidelity == b.fidelity
        assert a.discarded_fraction == b.discarded_fraction

    def test_fixed_state_discard_shrinks_with_copies(self):
        # for one interior state at radius 0.5, the chance of an unphysical
        # frequency point must fall as copies accumulate
        theta = math.pi / 7.0
        state_q = (
            0.5 * (1.0 + 0.5 * math.cos(theta)),
            0.5 * (1.0 + 0.5 * math.sin(theta)),
        )
        fractions = []
        for total in (4, 16, 64):
            n = total // 2
            k = np.arange(n + 1)
            px = scipy_binom.pmf(k, n, state_q[0])
            py = scipy_binom.pmf(k, n, state_q[1])
            rx = (2.0 * k - n)[:, None]
            ry = (2.0 * k - n)[None, :]
            unphysical = rx**2 + ry**2 > n**2
            fractions.append(float(np.outer(px, py)[unphysical].sum()))
        assert fractions[0] > fractions[1] > fractions[2]

    def test_conditional_error_decay_regression(self, tomography_sweep):
        # Keeping only the physical outcomes makes the error of the kept
        # ensemble fall much faster than the unconditional analysis
        # suggests; this pins the measured conditional rate.
        from blochest.asymptotics import fit_exponent

        fit = fit_exponent(tomography_sweep)
        assert fit.exponent == pytest.approx(0.8627, abs=0.02)

    @pytest.mark.xfail(
        strict=True,
        reason="conditional-on-kept-outcomes average decays faster than the "
        "unconditional quarter-power analysis; see README discussion",
    )
    def test_quarter_power_band(self, tomography_sweep):
        from blochest.asymptotics import fit_exponent

        fit = fit_exponent(tomography_sweep)
        assert 0.15 <= fit.exponent <= 0.35


class TestMonteCarlo:
    def test_local_ml_matches_exact(self, eq_prior):
        spec = SchemeSpec(SchemeKind.LOCAL_XY, 10)
        exact = exact_fidelity(spec, "ml", eq_prior, radial_order=128, angular_order=256)
        mc = monte_carlo_fidelity(spec, "ml", eq_prior, 100_000, seed=20260816)
        assert mc.method is Method.MONTE_CARLO
        assert mc.stderr > 0.0
        assert abs(mc.fidelity - exact.fidelity) <= 3.0 * mc.stderr

    def test_seed_reproducibility(self, eq_prior):
        spec = SchemeSpec(SchemeKind.LOCAL_XY, 6)
        a = monte_carlo_fidelity(spec, "optimal", eq_prior, 20_000, seed=99)
        b = monte_carlo_fidelity(spec, "optimal", eq_prior, 20_000, seed=99)
        assert a.fidelity == b.fidelity
        assert a.stderr == b.stderr
        c = monte_carlo_fidelity(spec, "optimal", eq_prior, 20_000, seed=100)
        assert c.fidelity != a.fidelity

    def test_single_sample_stderr_flagged_zero(self, eq_prior):
        rep = monte_carlo_fidelity(SchemeSpec(SchemeKind.LOCAL_XY, 4), "optimal", eq_prior, 1, seed=5)
        assert rep.stderr == 0.0
        assert math.isfinite(rep.fidelity)

    def test_tomography_discard_tracking(self, eq_prior):
        spec = SchemeSpec(SchemeKind.LOCAL_XY, 6)
        exact = exact_fidelity(spec, "tomography", eq_prior, radial_order=128, angular_order=256)
        mc = monte_carlo_fidelity(spec, "tomography", eq_prior, 60_000, seed=31)
        assert abs(mc.fidelity - exact.fidelity) <= 3.0 * mc.stderr
        d = exact.discarded_fraction
        sigma = math.sqrt(d * (1.0 - d) / 60_000)
        assert abs(mc.discarded_fraction - d) <= 4.0 * sigma

    def test_tomography_all_discarded(self, eq_prior):
        with pytest.raises(AllOutcomesDiscardedError):
            monte_carlo_fidelity(SchemeSpec(SchemeKind.LOCAL_XY, 2), "tomography", eq_prior, 500, seed=3)

    def test_collective_matches_exact(self, full_prior):
        spec = SchemeSpec(SchemeKind.COLLECTIVE, 6)
        exact = exact_fidelity(spec, "optimal", full_prior, radial_order=128, angular_order=256)
        mc = monte_carlo_fidelity(spec, "optimal", full_prior, 50_000, seed=8)
        assert abs(mc.fidelity - exact.fidelity) <= 3.0 * mc.stderr

    def test_optimal_guesses_where_the_tables_vanish(self, eq_prior):
        """At N = 1024 the support tiles leave outcomes with all-zero tables,
        where V/|V| was 0/0; they get a unit guess and no warning."""
        spec = SchemeSpec(SchemeKind.LOCAL_XY, 1024)
        tables = evaluator.local_tables(spec, eq_prior)
        norm = np.sqrt(tables.v_t**2 + tables.v_x**2 + tables.v_y**2)
        assert np.any(norm == 0.0) and np.all(tables.prob[norm == 0.0] == 0.0)
        tg, gx, gy = evaluator._optimal_guess_tables(tables)
        assert np.abs(tg**2 + gx**2 + gy**2 - 1.0).max() <= 1e-15
        rep = monte_carlo_fidelity(spec, "optimal", eq_prior, 10, 1)
        assert math.isfinite(rep.fidelity)

    def test_sample_count_validated(self, eq_prior):
        with pytest.raises(ValueError):
            monte_carlo_fidelity(SchemeSpec(SchemeKind.LOCAL_XY, 4), "optimal", eq_prior, 0, seed=1)


class TestExplicitOrders:
    @pytest.mark.parametrize("orders", [{"radial_order": 0}, {"angular_order": 0}])
    @pytest.mark.parametrize(
        "kind, estimator",
        [(SchemeKind.LOCAL_XY, "optimal"), (SchemeKind.LOCAL_XY, "ml"), (SchemeKind.COLLECTIVE, "optimal")],
    )
    def test_order_zero_raises(self, eq_prior_small, full_prior_small, kind, estimator, orders):
        prior = eq_prior_small if kind is SchemeKind.LOCAL_XY else full_prior_small
        spec = SchemeSpec(kind, 4)
        with pytest.raises(ValueError, match="orders must be >= 2"):
            exact_fidelity(spec, estimator, prior, **orders)

    def test_matching_orders_reuse_the_given_prior(self, eq_prior, full_prior, monkeypatch):
        def rebuild(*args, **kwargs):
            raise AssertionError("the prior was rebuilt at its own orders")

        monkeypatch.setattr(evaluator, "build_prior", rebuild)
        orders = {"radial_order": 128, "angular_order": 256}
        for kind, prior in ((SchemeKind.LOCAL_XY, eq_prior), (SchemeKind.COLLECTIVE, full_prior)):
            spec = SchemeSpec(kind, 4)
            exact_fidelity(spec, "optimal", prior, **orders)
            monte_carlo_fidelity(spec, "optimal", prior, 10, seed=1)
        exact_fidelity(SchemeSpec(SchemeKind.LOCAL_XY, 4), "tomography", eq_prior, **orders)

    def test_other_orders_rebuild(self, eq_prior_small):
        p = evaluator._prior_at_orders(eq_prior_small, 16, None)
        assert (p.kind, p.radial_order, p.angular_order) == (
            PriorKind.EQUATORIAL_BURES, 16, core.DEFAULT_ANGULAR_ORDER
        )
        assert evaluator._prior_at_orders(eq_prior_small, None, None) is eq_prior_small


def _record_builds(monkeypatch):
    """Record the (radial, angular) orders of every prior the evaluator builds.

    Each built prior must hold one direction per angular node: for the full
    ball that is the polar-cosine rule, not a whole-sphere grid.
    """
    built = []

    def recording_build_prior(kind, radial_order, angular_order):
        built.append((radial_order, angular_order))
        prior = build_prior(kind, radial_order, angular_order)
        assert prior.directions.shape == (angular_order, 3)
        return prior

    monkeypatch.setattr(evaluator, "build_prior", recording_build_prior)
    return built


class TestAutoRefinement:
    @pytest.mark.parametrize("estimator", evaluator.EXACT_ESTIMATORS)
    @pytest.mark.parametrize("copies", [2, 128, 384])
    def test_local_auto_is_the_given_grid_value(self, eq_prior, estimator, copies, monkeypatch):
        spec = SchemeSpec(SchemeKind.LOCAL_XY, copies)
        built = _record_builds(monkeypatch)
        if estimator == "tomography" and copies == 2:
            with pytest.raises(AllOutcomesDiscardedError):
                exact_fidelity(spec, estimator, eq_prior)
            assert built == []
            return
        auto = exact_fidelity(spec, estimator, eq_prior)
        assert built == [(64, 128)]  # checked against half the orders only
        given = exact_fidelity(spec, estimator, eq_prior, radial_order=128, angular_order=256)
        assert auto.fidelity == given.fidelity
        assert auto.discarded_fraction == given.discarded_fraction

    @pytest.mark.parametrize("estimator", evaluator.EXACT_ESTIMATORS)
    def test_failed_half_order_check_doubles_upward(self, estimator, monkeypatch):
        # at N = 8, F on 8x8 and 16x16 differs by 1e-5 or more, on 16x16 and
        # 32x32 by at most 1e-16
        spec = SchemeSpec(SchemeKind.LOCAL_XY, 8)
        prior = build_prior(PriorKind.EQUATORIAL_BURES, 16, 16)
        built = _record_builds(monkeypatch)
        auto = exact_fidelity(spec, estimator, prior)
        assert built == [(8, 8), (32, 32)]
        doubled = exact_fidelity(spec, estimator, prior, radial_order=32, angular_order=32)
        assert auto.fidelity == doubled.fidelity
        assert auto.discarded_fraction == doubled.discarded_fraction

    @pytest.mark.parametrize("orders", [(3, 16), (16, 2)])
    def test_orders_below_four_start_at_the_given_grid(self, orders, monkeypatch):
        prior = build_prior(PriorKind.EQUATORIAL_BURES, *orders)
        built = _record_builds(monkeypatch)
        exact_fidelity(SchemeSpec(SchemeKind.LOCAL_XY, 2), "optimal", prior)
        ro, ao = orders
        assert built[0] == (2 * ro, 2 * ao)

    def test_ladder_stops_at_eight_times_the_given_orders(self, monkeypatch):
        # 4x4 at N = 64 moves F by ~1e-4 or more on every rung up to 32x32
        prior = build_prior(PriorKind.EQUATORIAL_BURES, 4, 4)
        built = _record_builds(monkeypatch)
        with pytest.raises(QuadratureError):
            exact_fidelity(SchemeSpec(SchemeKind.LOCAL_XY, 64), "optimal", prior)
        assert built == [(2, 2), (8, 8), (16, 16), (32, 32)]

    def test_collective_auto_is_the_doubled_grid_value(self, full_prior, monkeypatch):
        spec = SchemeSpec(SchemeKind.COLLECTIVE, 1024)
        built = _record_builds(monkeypatch)
        auto = exact_fidelity(spec, "optimal", full_prior)
        assert built == [(256, 512)]
        doubled = exact_fidelity(spec, "optimal", full_prior, radial_order=256, angular_order=512)
        assert auto.fidelity == doubled.fidelity

    def test_collective_ladder_climbs_to_the_exact_value(self, monkeypatch):
        # at N = 64 F on 8x16 lies 2.1e-5 from the exact value, on 16x32 2.4e-12
        spec = SchemeSpec(SchemeKind.COLLECTIVE, 64)
        prior = build_prior(PriorKind.FULL_BURES, 4, 8)
        built = _record_builds(monkeypatch)
        auto = exact_fidelity(spec, "optimal", prior)
        assert built == [(8, 16), (16, 32)]
        finer = exact_fidelity(spec, "optimal", prior, radial_order=16, angular_order=32)
        assert auto.fidelity == finer.fidelity

    def test_collective_ladder_reports_its_distance_from_the_exact_value(self, monkeypatch):
        # at N = 1024 F on every grid up to 16x16 lies 0.78 or more below the exact value
        prior = build_prior(PriorKind.FULL_BURES, 2, 2)
        built = _record_builds(monkeypatch)
        with pytest.raises(QuadratureError) as raised:
            exact_fidelity(SchemeSpec(SchemeKind.COLLECTIVE, 1024), "optimal", prior)
        assert built == [(4, 4), (8, 8), (16, 16)]
        last = evaluator._collective_exact_value(
            collective_tables(1024, build_prior(PriorKind.FULL_BURES, 16, 16))
        )
        exact = evaluator._collective_exact_value(evaluator._beta_tables(1024))
        assert raised.value.value == last
        assert raised.value.error == abs(last - exact) > 0.78

    @pytest.mark.parametrize(
        "orders, rules_built",
        [
            ({}, [(256, 512)]),  # the doubled rung
            ({"radial_order": 64, "angular_order": 96}, [(64, 96)]),
            ({"radial_order": 128, "angular_order": 64}, [(128, 64)]),
        ],
    )
    def test_collective_path_builds_no_direction_grid(
        self, full_prior, orders, rules_built, monkeypatch
    ):
        """Each rung builds the full prior at its orders, and that prior holds
        one meridian direction per polar-cosine node (:func:`_record_builds`),
        not a whole-sphere grid."""
        built = _record_builds(monkeypatch)
        spec = SchemeSpec(SchemeKind.COLLECTIVE, 257)
        exact_fidelity(spec, "optimal", full_prior, **orders)
        # Monte Carlo builds nothing: its grid is the prior it is given
        monte_carlo_fidelity(spec, "optimal", full_prior, 10, seed=1)
        assert built == rules_built


class TestAdaptivePolicies:
    def test_fixed_policy_is_the_static_scheme_bit_for_bit(self, eq_prior):
        a = adaptive_local_fidelity(eq_prior, 8, "fixed-xy", 3000, seed=11)
        m = monte_carlo_fidelity(SchemeSpec(SchemeKind.LOCAL_XY, 8), "optimal", eq_prior, 3000, seed=11)
        assert a.fidelity == m.fidelity
        assert a.stderr == m.stderr

    def test_greedy_tracks_exact_static_value(self, eq_prior):
        g = adaptive_local_fidelity(eq_prior, 6, "greedy-fidelity", 2000, seed=3)
        exact = exact_fidelity(
            SchemeSpec(SchemeKind.LOCAL_XY, 6), "optimal", eq_prior,
            radial_order=128, angular_order=256,
        )
        assert g.method is Method.MONTE_CARLO
        assert g.stderr > 0.0
        assert abs(g.fidelity - exact.fidelity) <= 5.0 * g.stderr

    def test_greedy_reproducible(self, eq_prior):
        a = adaptive_local_fidelity(eq_prior, 6, "greedy-fidelity", 1000, seed=21)
        b = adaptive_local_fidelity(eq_prior, 6, "greedy-fidelity", 1000, seed=21)
        assert a.fidelity == b.fidelity and a.stderr == b.stderr

    def test_policy_validated(self, eq_prior):
        with pytest.raises(ValueError):
            adaptive_local_fidelity(eq_prior, 6, "no-such-policy", 100, seed=1)


class TestSweep:
    def test_collective_prefactor_monotone(self, collective_sweep, the_constants):
        scaled = [n * (1.0 - rep.fidelity) for n, rep in collective_sweep]
        assert all(b > a for a, b in zip(scaled, scaled[1:]))
        assert all(s < the_constants.collective_coeff for s in scaled)


class TestFidelityReportValidation:
    def test_field_ranges(self, eq_prior):
        spec = SchemeSpec(SchemeKind.LOCAL_XY, 2)
        with pytest.raises(ValueError):
            FidelityReport(spec, "optimal", 2, 1.5, 0.0, Method.EXACT_ENUMERATION)
        with pytest.raises(ValueError):
            FidelityReport(spec, "optimal", 2, 0.9, -1e-3, Method.EXACT_ENUMERATION)
        with pytest.raises(ValueError):
            FidelityReport(
                spec, "tomography", 2, 0.9, 0.0, Method.EXACT_ENUMERATION,
                discarded_fraction=1.2,
            )
