"""Priors, their 4-vector nodes, the fidelity clamp, and the random-guess baseline."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from blochest.core import (
    PriorKind,
    build_prior,
    clamp_fidelity,
    random_guess_fidelity,
    sample_states,
)
from blochest.quadrature import adaptive_quad, gauss_legendre
from oracles import sample_full_ball_bisection, sphere_grid, sphere_product_nodes

RANDOM_GUESS_FULL = 0.5 + 8.0 / (9.0 * math.pi**2)


class TestEmbedding:
    """The prior's product nodes are embedded states (t, r⃗)."""

    def test_unit_four_norm(self):
        for kind in PriorKind:
            nodes4, _ = build_prior(kind, 16, 12).product_nodes()
            assert np.abs(np.einsum("ij,ij->i", nodes4, nodes4) - 1.0).max() <= 1e-12
            assert np.all(nodes4[:, 0] >= 0.0)

    def test_vec4_layout(self):
        p = build_prior(PriorKind.EQUATORIAL_BURES, 3, 4)
        nodes4, weights = p.product_nodes()
        # radius-major: node 4 i + j is radius i in direction j
        assert nodes4[5] == pytest.approx(
            [p.radial_t[1], *(p.radial_r[1] * p.directions[1])], abs=1e-15
        )
        assert weights[5] == pytest.approx(p.radial_w[1] * p.angular_w[1], rel=1e-15)


class TestFidelity:
    def test_clamp(self):
        assert clamp_fidelity(1.0 + 1e-16) == 1.0
        assert clamp_fidelity(-1e-17) == 0.0
        assert clamp_fidelity(0.25) == 0.25


def _radial_moment_oracle(kind: PriorKind, power: int) -> float:
    """<r^power> via adaptive integration in s = 1 - r^2 (independent of the
    sin-substituted Gauss rule the priors use)."""
    base = 2 if kind is PriorKind.FULL_BURES else 1

    def weight(s, extra):
        r2 = 1.0 - s
        return r2 ** (0.5 * (base + extra - 1)) / (2.0 * np.sqrt(s))

    num = adaptive_quad(lambda s: weight(s, power), 0.0, 1.0, abs_tol=1e-12).value
    den = adaptive_quad(lambda s: weight(s, 0), 0.0, 1.0, abs_tol=1e-12).value
    return num / den


class TestPriors:
    @pytest.mark.parametrize("kind", list(PriorKind))
    @pytest.mark.parametrize("orders", [(2, 2), (8, 16), (64, 64), (128, 256)])
    def test_total_weight_normalized(self, kind, orders):
        p = build_prior(kind, *orders)
        assert p.radial_w.sum() == pytest.approx(1.0, abs=1e-10)
        assert p.angular_w.sum() == pytest.approx(1.0, abs=1e-10)

    def test_equatorial_r_squared_moment(self):
        # ∫ r^2 dρ over the equatorial ensemble; closed form 2/3, checked
        # against the adaptive oracle as well.
        p = build_prior(PriorKind.EQUATORIAL_BURES, 64, 64)
        grid = float(p.radial_w @ p.radial_r**2)
        oracle = _radial_moment_oracle(PriorKind.EQUATORIAL_BURES, 2)
        assert oracle == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert grid == pytest.approx(oracle, abs=1e-8)

    @pytest.mark.parametrize("kind,power,closed", [
        (PriorKind.FULL_BURES, 1, 8.0 / (3.0 * math.pi)),
        (PriorKind.FULL_BURES, 2, 0.75),
        (PriorKind.EQUATORIAL_BURES, 1, math.pi / 4.0),
        (PriorKind.EQUATORIAL_BURES, 2, 2.0 / 3.0),
    ])
    def test_radial_moments_vs_adaptive_oracle(self, kind, power, closed):
        p = build_prior(kind, 64, 32)
        grid = float(p.radial_w @ p.radial_r**power)
        oracle = _radial_moment_oracle(kind, power)
        assert oracle == pytest.approx(closed, abs=1e-10)
        assert grid == pytest.approx(oracle, abs=1e-8)

    def test_radial_time_components_match(self):
        p = build_prior(PriorKind.FULL_BURES, 32, 16)
        assert np.allclose(p.radial_t**2 + p.radial_r**2, 1.0, atol=1e-14)

    def test_directions_unit(self):
        for kind in PriorKind:
            p = build_prior(kind, 8, 12)
            norms = np.linalg.norm(p.directions, axis=1)
            assert np.allclose(norms, 1.0, atol=1e-14)
        eq = build_prior(PriorKind.EQUATORIAL_BURES, 8, 12)
        assert np.all(eq.directions[:, 2] == 0.0)

    @pytest.mark.parametrize("kind", list(PriorKind))
    @pytest.mark.parametrize("orders", [(2, 2), (37, 6), (256, 8)])
    def test_radial_rule_is_the_priors_radial_half(self, kind, orders):
        # the radial rule does not depend on the angular order
        ro, ao = orders
        prior = build_prior(kind, ro, ao)
        other = build_prior(kind, ro, ao + 3)
        assert prior.kind is kind and prior.radial_order == ro
        for name in ("radial_r", "radial_t", "radial_w"):
            a, b = getattr(other, name), getattr(prior, name)
            assert a.tobytes() == b.tobytes()
            assert not a.flags.writeable

    def test_radial_rule_validates(self):
        with pytest.raises(ValueError, match="orders must be >= 2"):
            build_prior(PriorKind.FULL_BURES, 1, 8)
        with pytest.raises(ValueError, match="orders must be >= 2"):
            build_prior(PriorKind.EQUATORIAL_BURES, 8, 1)
        with pytest.raises(ValueError, match="orders must be >= 2"):
            build_prior(PriorKind.FULL_BURES, 8, 1)
        with pytest.raises(ValueError, match="unknown prior kind"):
            build_prior("full", 8, 8)

    @pytest.mark.parametrize("orders", [(2, 2), (37, 6), (64, 96), (128, 256), (256, 512)])
    def test_full_angular_rule_is_the_polar_cosine_rule(self, orders):
        # one meridian direction per cosine: 256 at the default orders, not 256^2
        ro, ao = orders
        prior = build_prior(PriorKind.FULL_BURES, ro, ao)
        c, gw = gauss_legendre(ao)
        assert prior.directions.shape == (ao, 3)
        assert prior.directions[:, 2].tobytes() == c.tobytes()
        assert prior.angular_w.tobytes() == (gw / 2.0).tobytes()
        assert np.all(prior.directions[:, 1] == 0.0)
        assert np.all(prior.directions[:, 0] >= 0.0)

    @pytest.mark.parametrize("kind", list(PriorKind))
    @pytest.mark.parametrize("orders", [(2, 2), (37, 6), (128, 256)])
    def test_angular_order_is_the_angular_rule_size(self, kind, orders):
        prior = build_prior(kind, *orders)
        assert prior.angular_order == prior.angular_w.size == orders[1]

    @pytest.mark.parametrize("kind", list(PriorKind))
    def test_rebuild_reuses_cached_rules(self, kind, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(n):
            calls.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        first = build_prior(kind, 37, 6)
        calls.clear()
        second = build_prior(kind, 37, 6)
        assert calls == []
        np.testing.assert_array_equal(second.radial_w, first.radial_w)


class TestRandomGuessFidelity:
    def test_full_value_high_order(self):
        p = build_prior(PriorKind.FULL_BURES, 64, 64)
        assert random_guess_fidelity(p) == pytest.approx(RANDOM_GUESS_FULL, abs=1e-6)

    def test_full_value_default_orders(self, full_prior):
        assert random_guess_fidelity(full_prior) == pytest.approx(RANDOM_GUESS_FULL, abs=1e-9)

    def test_low_order_ballpark(self):
        # The coarsest admissible grid already lands close (1.34e-2 off);
        # one more node brings it under 1e-3.
        p2 = build_prior(PriorKind.FULL_BURES, 2, 2)
        assert random_guess_fidelity(p2) == pytest.approx(RANDOM_GUESS_FULL, abs=2e-2)
        p3 = build_prior(PriorKind.FULL_BURES, 3, 3)
        assert random_guess_fidelity(p3) == pytest.approx(RANDOM_GUESS_FULL, abs=1e-3)

    def test_monotone_convergence_under_doubling(self):
        errs = []
        for order in (2, 4, 8, 16, 32, 64):
            p = build_prior(PriorKind.FULL_BURES, order, order)
            errs.append(abs(random_guess_fidelity(p) - RANDOM_GUESS_FULL))
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= coarse + 1e-15

    def test_equatorial_analogue(self, eq_prior):
        # (1 + <r>^2)/2 with <r> = pi/4 for the planar ensemble: 0.625.
        assert random_guess_fidelity(eq_prior) == pytest.approx(0.625, abs=1e-9)

    def test_equals_double_average_identity(self, full_prior):
        # The baseline is the prior-averaged fidelity of the prior-mean guess:
        # F_rand = (1 + |<𝐫>|^2) / 2, with <𝐫> over the whole sphere grid.
        dirs, wdir = sphere_grid(full_prior.angular_order)
        t_mean = float(full_prior.radial_w @ full_prior.radial_t)
        r_mean = float(full_prior.radial_w @ full_prior.radial_r)
        m = np.concatenate(([t_mean], r_mean * (wdir @ dirs)))
        assert random_guess_fidelity(full_prior) == pytest.approx(
            0.5 * (1.0 + float(m @ m)), abs=1e-12
        )


class TestSampleStates:
    @pytest.mark.parametrize("kind", list(PriorKind))
    def test_shapes_and_embedding(self, kind):
        rng = np.random.default_rng(5)
        t, vecs = sample_states(kind, 500, rng)
        assert t.shape == (500,)
        assert vecs.shape == (500, 3)
        assert np.allclose(t**2 + np.einsum("ij,ij->i", vecs, vecs), 1.0, atol=1e-12)
        assert np.all(t >= 0.0)

    def test_equatorial_confined_to_plane(self):
        rng = np.random.default_rng(6)
        _, vecs = sample_states(PriorKind.EQUATORIAL_BURES, 200, rng)
        assert np.all(vecs[:, 2] == 0.0)

    def test_full_leaves_plane(self):
        rng = np.random.default_rng(7)
        _, vecs = sample_states(PriorKind.FULL_BURES, 200, rng)
        assert np.any(np.abs(vecs[:, 2]) > 0.1)

    @pytest.mark.parametrize("kind,second_moment", [
        (PriorKind.FULL_BURES, 0.75),
        (PriorKind.EQUATORIAL_BURES, 2.0 / 3.0),
    ])
    def test_radial_second_moment(self, kind, second_moment):
        rng = np.random.default_rng(8)
        t, vecs = sample_states(kind, 40_000, rng)
        r2 = np.einsum("ij,ij->i", vecs, vecs)
        stderr = r2.std(ddof=1) / math.sqrt(r2.size)
        assert abs(r2.mean() - second_moment) <= 4.0 * stderr

    def test_reproducible_for_fixed_seed(self):
        a = sample_states(PriorKind.FULL_BURES, 50, np.random.default_rng(42))
        b = sample_states(PriorKind.FULL_BURES, 50, np.random.default_rng(42))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_full_ball_moments_match_quadrature(self):
        # E[t], E[t^2], E[z^2] and E[x^4] within 4 standard errors of the
        # prior's radial rule times the whole sphere grid (4/(3 pi), 1/4,
        # 1/4 and 1/8)
        t, vecs = sample_states(PriorKind.FULL_BURES, 200_000, np.random.default_rng(12))
        nodes4, weights = sphere_product_nodes(build_prior(PriorKind.FULL_BURES, 64, 64))
        for drawn, exact in [
            (t, weights @ nodes4[:, 0]),
            (t**2, weights @ nodes4[:, 0] ** 2),
            (vecs[:, 2] ** 2, weights @ nodes4[:, 3] ** 2),
            (vecs[:, 0] ** 4, weights @ nodes4[:, 1] ** 4),
        ]:
            stderr = drawn.std(ddof=1) / math.sqrt(drawn.size)
            assert abs(drawn.mean() - exact) <= 4.0 * stderr

    def test_full_ball_matches_the_bisection_sampler(self):
        # two-sample KS on t and each component, above the 0.1 % level
        t, vecs = sample_states(PriorKind.FULL_BURES, 100_000, np.random.default_rng(13))
        t_ref, vecs_ref = sample_full_ball_bisection(100_000, np.random.default_rng(14))
        for a, b in [(t, t_ref)] + [(vecs[:, i], vecs_ref[:, i]) for i in range(3)]:
            assert ks_2samp(a, b).pvalue > 1e-3
