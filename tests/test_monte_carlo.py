"""Monte Carlo kernels against the loops, tables and laws they replaced.

Local Monte Carlo guesses per sample by the rule that the exact tables
use, and matches the former guess tables indexed at the same binomial
counts exactly (``==``); the greedy policy runs the same per-element
arithmetic as its per-axis reference on the same uniforms, whatever the
chunk size.  The collective sampler draws each spin label from a binomial
count and one uniform, not by inverse CDF over every label as its chunked
reference does, so the two are compared in law: the labels against the
exact p(k|r), in rationals and by chi-square, and the fidelities against
the chunked loop's.  The memory tests pin the work arrays to the
sample-sized arrays themselves.
"""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, ks_2samp, poisson

from blochest import evaluator
from blochest.core import PriorKind, sample_states
from blochest.evaluator import (
    adaptive_local_fidelity,
    collective_tables,
    exact_fidelity,
    monte_carlo_fidelity,
)
from blochest.schemes import (
    EnumerationLimitError,
    SchemeKind,
    SchemeSpec,
    collective_k_values,
    collective_log_weight,
)
from oracles import (
    collective_fidelities_chunked,
    collective_weight_exact,
    greedy_adaptive_per_axis,
    mc_local_table_lookup,
)

SEEDS = st.integers(0, 2**32 - 1)
LAW_ALPHA = 1e-4  # least p-value of a test of two laws' equality
MC_SIGMAS = 5.0  # largest distance of two Monte Carlo means, in combined stderr


class TestLocalDraws:
    @pytest.mark.parametrize("seed", [17, 18])
    @pytest.mark.parametrize(
        "estimator, N",
        [("optimal", 2), ("ml", 2), ("optimal", 10), ("ml", 10), ("tomography", 10),
         ("optimal", 128), ("ml", 128), ("tomography", 128)],
    )
    def test_reports_match_table_lookup(self, eq_prior_small, estimator, N, seed):
        """The per-sample guess rule against the guess tables indexed at the counts."""
        spec = SchemeSpec(SchemeKind.LOCAL_XY, N)
        rule = monte_carlo_fidelity(spec, estimator, eq_prior_small, 3001, seed)
        assert rule == mc_local_table_lookup(spec, estimator, eq_prior_small, 3001, seed)
        if estimator == "tomography":
            assert 0.0 < rule.discarded_fraction < 1.0

    @pytest.mark.parametrize("samples", [1, 2])
    @pytest.mark.parametrize("estimator", ["ml", "tomography"])
    def test_samples_all_on_the_disc(self, eq_prior, estimator, samples):
        """N = 2^20: a few samples land inside the disc, so ML solves no boundary."""
        spec = SchemeSpec(SchemeKind.LOCAL_XY, 2**20)
        rep = monte_carlo_fidelity(spec, estimator, eq_prior, samples, seed=3)
        assert 0.99 < rep.fidelity <= 1.0
        if estimator == "tomography":
            assert rep.discarded_fraction == 0.0

    @pytest.mark.parametrize("estimator", ["ml", "tomography"])
    def test_memory_past_the_enumeration_limit(self, eq_prior, estimator):
        """N = 2^20 with 10^4 samples; (n+1)^2 guess tables would need 2 TB each."""
        spec = SchemeSpec(SchemeKind.LOCAL_XY, 2**20)
        tracemalloc.start()
        try:
            monte_carlo_fidelity(spec, estimator, eq_prior, 10_000, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20  # measured 0.79 MiB

    def test_optimal_past_the_enumeration_limit_raises(self, eq_prior):
        """Its guesses are read from (n+1)^2 tables: N = 2050 stops before
        they are built, unless the limit is raised."""
        with pytest.raises(EnumerationLimitError):
            monte_carlo_fidelity(SchemeSpec(SchemeKind.LOCAL_XY, 2050), "optimal", eq_prior, 10, 1)
        with pytest.raises(EnumerationLimitError):
            adaptive_local_fidelity(eq_prior, 2050, "fixed-xy", 10, 1)
        raised = monte_carlo_fidelity(
            SchemeSpec(SchemeKind.LOCAL_XY, 2050), "optimal", eq_prior, 10, 1,
            enumeration_limit=2050,
        )
        fixed = adaptive_local_fidelity(eq_prior, 2050, "fixed-xy", 10, 1, enumeration_limit=2050)
        assert raised == fixed

    @pytest.mark.parametrize(
        "kind, estimator",
        [(SchemeKind.LOCAL_XY, "ml"), (SchemeKind.LOCAL_XY, "tomography"),
         (SchemeKind.COLLECTIVE, "optimal")],
    )
    def test_past_the_enumeration_limit_without_tables(self, eq_prior, full_prior, kind, estimator):
        prior = eq_prior if kind is SchemeKind.LOCAL_XY else full_prior
        rep = monte_carlo_fidelity(SchemeSpec(kind, 2050), estimator, prior, 100, seed=2)
        assert 0.99 < rep.fidelity <= 1.0

    @pytest.mark.parametrize("estimator", ["optimal", "ml", "tomography"])
    def test_memory_stays_at_the_state_draws(self, eq_prior_small, estimator):
        """N = 128 with 2e5 samples: no stage holds more than drawing the states.

        Drawing 2e5 equatorial states peaks at 13.73 MiB, and every
        estimator's call peaks there too.
        """
        spec = SchemeSpec(SchemeKind.LOCAL_XY, 128)
        monte_carlo_fidelity(spec, estimator, eq_prior_small, 10, seed=1)  # warm caches
        tracemalloc.start()
        try:
            sample_states(PriorKind.EQUATORIAL_BURES, 200_000, np.random.default_rng(1))
            _, states_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            monte_carlo_fidelity(spec, estimator, eq_prior_small, 200_000, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= states_peak + 2**16


def _label_law(N: int, r: float) -> np.ndarray:
    """p(k|r) = c_k ((1 - r^2)/4)^(N/2 - k) I_k(r) over the labels, in floats."""
    ks = collective_k_values(N)
    m = 2.0 * ks + 1.0
    if r >= 1.0:
        return (ks == N / 2.0).astype(float)
    log_p = np.array([collective_log_weight(k, N) for k in ks])
    log_p += (N / 2.0 - ks) * math.log1p(-r * r) - (N / 2.0 - ks) * math.log(4.0)
    if r < 1e-12:  # I_k -> 2^-(m - 1)
        log_p += (1.0 - m) * math.log(2.0)
    else:  # I_k = (a^m - b^m)/(r m) with a, b = (1 +- r)/2
        log_a, log_b = math.log1p(r) - math.log(2.0), math.log1p(-r) - math.log(2.0)
        log_p += m * log_a + np.log(-np.expm1(m * (log_b - log_a))) - np.log(r * m)
    p = np.exp(log_p - log_p.max())
    return p / p.sum()


def _law_p_value(counts: np.ndarray, law: np.ndarray) -> float:
    """Chi-square p-value of label counts against a law.

    Labels expected fewer than 5 times are pooled into the last of the
    others.  When one label holds all but fewer than 5 expected draws, the
    p-value is the Poisson tail of the draws outside it.
    """
    assert counts[law == 0.0].sum() == 0
    expected = law * counts.sum()
    big = expected >= 5.0
    if big.sum() <= 1:
        return float(poisson.sf(counts[~big].sum() - 1, expected[~big].sum()))
    obs = counts[big].astype(float)
    exp = expected[big]
    obs[-1] += counts[~big].sum()
    exp[-1] += expected[~big].sum()
    return float(chisquare(obs, exp).pvalue)


def _same_law(f: np.ndarray, g: np.ndarray) -> None:
    """Two independent samples of per-sample fidelities share their law.

    The KS p-value is the asymptotic one: a radius of 0 makes the law
    discrete, and on its ties the exact count can fail (seen at p = 1)."""
    assert ks_2samp(f, g, method="asymp").pvalue > LAW_ALPHA
    z = (f.mean() - g.mean()) / math.sqrt(f.var(ddof=1) / f.size + g.var(ddof=1) / g.size)
    assert abs(z) <= MC_SIGMAS


class TestCollectiveSampler:
    @pytest.mark.parametrize("N", range(1, 41))
    def test_label_law_is_exact(self, N):
        """In exact rationals: for each binomial count n1, the uniforms in
        [1 - C(N, x)/C(N, x0), 1 - C(N, x + 1)/C(N, x0)) give label
        x - N/2 (checked at their midpoints); so the sampler's law is
        sum over n1 of Bin(n1) (C(N, x) - C(N, x + 1))/C(N, x0), and that
        equals c_k ((1 - r^2)/4)^(N/2 - k) I_k, I_k = (a^m - b^m)/(r m)."""
        half = (N + 1) // 2
        xs = range(half, N + 1)
        for a in (Fraction(501, 1000), Fraction(7, 13), Fraction(3, 4), Fraction(99, 100)):
            b, r = 1 - a, 2 * a - 1
            law = dict.fromkeys(xs, Fraction(0))
            for n1 in range(N + 1):
                x0 = max(n1, N - n1)
                edges = [1 - Fraction(comb(N, x), comb(N, x0)) for x in range(x0, N + 2)]
                mids = np.array([float((lo + hi) / 2) for lo, hi in zip(edges, edges[1:])])
                got = evaluator._spin_label_index(N, np.full(mids.size, n1), mids)
                assert np.array_equal(got, np.arange(x0, N + 1) - half)
                pmf = comb(N, n1) * a**n1 * b ** (N - n1)
                for x in range(x0, N + 1):
                    law[x] += pmf * (edges[x - x0 + 1] - edges[x - x0])
            for x in xs:
                m = 2 * x - N + 1  # 2k + 1
                target = (
                    collective_weight_exact(N, x)
                    * ((1 - r * r) / 4) ** (N - x)
                    * (a**m - b**m)
                    / (r * m)
                )
                assert law[x] == target
            assert sum(law.values()) == 1

    @pytest.mark.parametrize("r", [0.0, 1e-13, 0.5, 1.0 - 1e-9, 1.0])
    @pytest.mark.parametrize("N", [1, 2, 3, 9, 1024, 2047])
    def test_labels_follow_the_law(self, N, r):
        """10^5 seeded labels against p(k|r).  Over 100 seeds a case's
        p-values spread evenly on [0, 1] (the least 1.1e-3), so a bound of
        1e-4 fails a correct sampler about once in 10^4 seeds."""
        rng = np.random.default_rng(N + int(1e4 * r))
        samples = 100_000
        n1 = rng.binomial(N, 0.5 * (1.0 + r), samples)
        idx = evaluator._spin_label_index(N, n1, rng.random(samples))
        law = _label_law(N, r)
        assert _law_p_value(np.bincount(idx, minlength=law.size), law) > LAW_ALPHA

    def test_fidelities_match_chunked_loop(self, full_prior_small):
        """Fidelities of the same states from both samplers share a law.
        Over 40 seeds per N the least KS p-value was 0.014."""
        for N, seed in ((1, 0), (2, 1), (3, 2), (2047, 3), (2048, 4)):
            tables = collective_tables(N, full_prior_small)
            rng = np.random.default_rng(seed)
            t_states, vecs = sample_states(PriorKind.FULL_BURES, 4000, rng)
            f = evaluator._collective_fidelities(rng, tables, t_states, vecs)
            other = np.random.default_rng(seed + 100)
            g = collective_fidelities_chunked(other, tables, t_states, vecs)
            _same_law(f, g)

    @pytest.mark.parametrize("block", [None, 1, 7])
    def test_small_radius_branch(self, full_prior_small, block):
        """r < 1e-12 takes the limit I_k = 2^-2k and a uniform polar cosine;
        each radius's fidelities share the chunked loop's law, whether the
        sampler is handed all samples in one call (None) or ``block`` per
        call, so no sample's draw leans on the others in its call.
        Over 40 seeds per block (840 radius checks) the least KS p-value
        was 5.2e-4 and the largest |z| 3.98."""
        radii = np.array([0.0, 1e-14, 9.9e-13, 1e-12, 1e-6, 0.5, 1.0 - 1e-9])
        r = np.tile(radii, 3000)
        axis = np.random.default_rng(5).normal(size=(r.size, 3))
        vecs = r[:, None] * axis / np.linalg.norm(axis, axis=1, keepdims=True)
        t_states = np.sqrt(1.0 - r * r)
        tables = collective_tables(9, full_prior_small)
        rng = np.random.default_rng(6)
        step = r.size if block is None else block
        f = np.concatenate(
            [
                evaluator._collective_fidelities(rng, tables, t_states[s : s + step], vecs[s : s + step])
                for s in range(0, r.size, step)
            ]
        )
        g = collective_fidelities_chunked(np.random.default_rng(7), tables, t_states, vecs)
        assert np.all((f >= 0.0) & (f <= 1.0))
        for i in range(radii.size):
            _same_law(f[i :: radii.size], g[i :: radii.size])

    @pytest.mark.parametrize("N, samples", [(257, 5000), (1024, 2000)])
    def test_reports_match_chunked_loop(self, full_prior, N, samples):
        """Over 40 seeds the reports differed by at most 2.5 combined stderr."""
        spec = SchemeSpec(SchemeKind.COLLECTIVE, N)
        fast = monte_carlo_fidelity(spec, "optimal", full_prior, samples, seed=N)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluator, "_collective_fidelities", collective_fidelities_chunked)
            chunked = monte_carlo_fidelity(spec, "optimal", full_prior, samples, seed=N)
        z = (fast.fidelity - chunked.fidelity) / math.hypot(fast.stderr, chunked.stderr)
        assert abs(z) <= MC_SIGMAS

    @pytest.mark.parametrize("N", [1, 2, 257, 1024])
    def test_report_matches_exact_fidelity(self, full_prior, N):
        spec = SchemeSpec(SchemeKind.COLLECTIVE, N)
        exact = exact_fidelity(spec, "optimal", full_prior)
        mc = monte_carlo_fidelity(spec, "optimal", full_prior, 20_000, seed=N + 40)
        assert abs(mc.fidelity - exact.fidelity) <= MC_SIGMAS * mc.stderr

    def test_same_seed_same_report(self, full_prior):
        spec = SchemeSpec(SchemeKind.COLLECTIVE, 1024)
        first = monte_carlo_fidelity(spec, "optimal", full_prior, 3000, seed=11)
        assert monte_carlo_fidelity(spec, "optimal", full_prior, 3000, seed=11) == first
        assert monte_carlo_fidelity(spec, "optimal", full_prior, 3000, seed=12) != first

    def test_sampler_memory_stays_below_the_tables(self, full_prior):
        """N = 1024 with 2e4 samples: the chunked loop peaked at 258 MiB."""
        spec = SchemeSpec(SchemeKind.COLLECTIVE, 1024)
        tracemalloc.start()
        try:
            monte_carlo_fidelity(spec, "optimal", full_prior, 20_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # measured 4.1 MiB, the table build's own peak

    def test_pure_state_draws_without_warning(self, full_prior_small):
        """r = 1 makes log((1 - r)/2) = -inf, which is expected, not a warning."""
        vecs = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.3, 0.0, 0.0]])
        t_states = np.sqrt(np.maximum(0.0, 1.0 - np.einsum("ij,ij->i", vecs, vecs)))
        tables = collective_tables(9, full_prior_small)
        f = evaluator._collective_fidelities(np.random.default_rng(1), tables, t_states, vecs)
        assert np.all((f >= 0.0) & (f <= 1.0))

    def test_radius_above_one_leaves_its_block_exact(self, full_prior_small):
        """A radius past 1 is clamped: its sample gives the r = 1 value, not NaN."""
        r = np.array([1e-3, 0.3, 1.0 + 2.0**-52, 0.9, 1e-13])
        at_one = np.where(r > 1.0, 1.0, r)
        tables = collective_tables(9, full_prior_small)
        f, g = (
            evaluator._collective_fidelities(
                np.random.default_rng(8),
                tables,
                np.sqrt(np.maximum(0.0, 1.0 - radii * radii)),
                np.column_stack((np.zeros((r.size, 2)), radii)),
            )
            for radii in (r, at_one)
        )
        assert np.array_equal(f, g)
        assert not np.isnan(f).any()


class TestGreedy:
    def test_ties_go_to_the_lowest_axis(self):
        rng = np.random.default_rng(7)
        flat = 0.8 * (1.0 + 4e-16 * rng.random((50, 12)))  # round-off-level spread
        assert np.all(evaluator._greedy_pick(flat) == 0)
        pair = np.full((1, 12), 0.5)
        pair[0, [9, 3]] = 0.7, 0.7 * (1.0 - 3e-16)
        assert evaluator._greedy_pick(pair)[0] == 3
        gap = flat.copy()
        gap[:, 5] *= 1.0 + 1e-11  # the smallest real gap seen is 3e-11
        assert np.all(evaluator._greedy_pick(gap) == 5)

    @pytest.mark.parametrize("chunk", [1, 7])
    @pytest.mark.parametrize(
        "N, samples, seed", [(20, 30, 801), (5, 16, 3), (1, 9, 4), (3, 300, 12)]
    )
    def test_fidelities_do_not_depend_on_chunking(self, eq_prior, chunk, N, samples, seed):
        default = evaluator._greedy_adaptive(eq_prior, N, samples, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluator, "_GREEDY_CHUNK", chunk)
            chunked = evaluator._greedy_adaptive(eq_prior, N, samples, seed)
        assert np.array_equal(chunked, default)

    @pytest.mark.parametrize("chunk", [7, 128, 1024])
    def test_report_does_not_depend_on_chunk_size(self, eq_prior, chunk):
        default = adaptive_local_fidelity(eq_prior, 20, "greedy-fidelity", 300, seed=805)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluator, "_GREEDY_CHUNK", chunk)
            chunked = adaptive_local_fidelity(eq_prior, 20, "greedy-fidelity", 300, seed=805)
        assert chunked == default

    def test_memory_stays_at_one_chunk(self, eq_prior):
        """1000 samples at N = 20: 1024-sample chunks peaked at 33.8 MiB."""
        tracemalloc.start()
        try:
            adaptive_local_fidelity(eq_prior, 20, "greedy-fidelity", 1000, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    @settings(max_examples=15)
    @given(
        N=st.integers(1, 10),
        samples=st.integers(1, 20),
        chunk=st.sampled_from([1, 7, 1024]),
        seed=SEEDS,
    )
    def test_fidelities_match_per_axis_scores(self, eq_prior_small, N, samples, chunk, seed):
        f = evaluator._greedy_adaptive(eq_prior_small, N, samples, seed)
        g = greedy_adaptive_per_axis(eq_prior_small, N, samples, seed, chunk=chunk)
        assert np.array_equal(f, g)

    def test_report_matches_per_axis_scores(self, eq_prior):
        rep = adaptive_local_fidelity(eq_prior, 6, "greedy-fidelity", 300, seed=21)
        f = greedy_adaptive_per_axis(eq_prior, 6, 300, 21)
        assert rep.fidelity == float(f.mean())
        assert rep.stderr == float(np.std(f, ddof=1) / np.sqrt(300))
