"""Monte Carlo kernels against the loops and tables they replaced.

The comparisons are exact (``==``).  The blocked collective sampler and
the greedy policy run the same per-element arithmetic as their chunked
references on the same uniforms, whatever the block size; local Monte
Carlo guesses per sample by the rule that the exact tables use, and
matches the former guess tables indexed at the same binomial counts.  The
memory tests pin the work arrays to a cache-sized block, or to the
sample-sized arrays themselves.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochest import evaluator
from blochest.core import PriorKind, sample_states
from blochest.evaluator import (
    adaptive_local_fidelity,
    collective_tables,
    monte_carlo_fidelity,
)
from blochest.schemes import SchemeKind, SchemeSpec
from oracles import (
    collective_fidelities_chunked,
    greedy_adaptive_per_axis,
    mc_local_table_lookup,
)

BLOCKS = st.sampled_from([None, 1, 7])  # None keeps the package's block size
EDGES = st.sampled_from(["one", "block-1", "block", "block+1"])
SEEDS = st.integers(0, 2**32 - 1)


def _blocked(mp: pytest.MonkeyPatch, block, width: int) -> int:
    """Force blocks of ``block`` samples of ``width`` entries; return the block size."""
    if block is not None:
        mp.setattr(evaluator, "_MC_BLOCK_ELEMS", block * width)
    return evaluator._block_rows(width, 1 << 40)


def _samples_at(edge: str, rows: int) -> int:
    return max(1, {"one": 1, "block-1": rows - 1, "block": rows, "block+1": rows + 1}[edge])


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


class TestCollectiveSampler:
    @settings(max_examples=40)
    @given(N=st.integers(1, 2048), block=BLOCKS, edge=EDGES, seed=SEEDS)
    @example(N=1, block=None, edge="block+1", seed=0)
    @example(N=2, block=7, edge="block", seed=1)
    @example(N=3, block=1, edge="block+1", seed=2)
    @example(N=2047, block=None, edge="block-1", seed=3)
    @example(N=2048, block=None, edge="block+1", seed=4)
    def test_fidelities_match_chunked_loop(self, full_prior_small, N, block, edge, seed):
        tables = collective_tables(N, full_prior_small, cos_order=full_prior_small.angular_order)
        with pytest.MonkeyPatch.context() as mp:
            samples = _samples_at(edge, _blocked(mp, block, tables.k_values.size))
            rng = np.random.default_rng(seed)
            t_states, vecs = sample_states(PriorKind.FULL_BURES, samples, rng)
            state = rng.bit_generator.state
            f = evaluator._collective_fidelities(rng, tables, t_states, vecs)
            rng_old = np.random.default_rng()
            rng_old.bit_generator.state = state
            g = collective_fidelities_chunked(rng_old, tables, t_states, vecs)
        assert np.array_equal(f, g)
        assert rng.random() == rng_old.random()

    @pytest.mark.parametrize("block", [None, 1, 7])
    def test_small_radius_branch(self, full_prior_small, block):
        """r < 1e-12 takes the limit I_k = 2 and a uniform polar cosine."""
        r = np.tile([0.0, 1e-14, 9.9e-13, 1e-12, 1e-6, 0.5, 1.0 - 1e-9], 3)
        axis = np.random.default_rng(5).normal(size=(r.size, 3))
        vecs = r[:, None] * axis / np.linalg.norm(axis, axis=1, keepdims=True)
        t_states = np.sqrt(1.0 - r * r)
        tables = collective_tables(9, full_prior_small, cos_order=full_prior_small.angular_order)
        with pytest.MonkeyPatch.context() as mp:
            _blocked(mp, block, tables.k_values.size)
            f = evaluator._collective_fidelities(np.random.default_rng(6), tables, t_states, vecs)
        g = collective_fidelities_chunked(np.random.default_rng(6), tables, t_states, vecs)
        assert np.array_equal(f, g)
        assert np.all((f >= 0.0) & (f <= 1.0))

    @pytest.mark.parametrize("N, samples", [(257, 5000), (1024, 2000)])
    def test_reports_match_chunked_loop(self, full_prior, N, samples):
        spec = SchemeSpec(SchemeKind.COLLECTIVE, N)
        blocked = monte_carlo_fidelity(spec, "optimal", full_prior, samples, seed=N)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluator, "_collective_fidelities", collective_fidelities_chunked)
            chunked = monte_carlo_fidelity(spec, "optimal", full_prior, samples, seed=N)
        assert blocked == chunked

    def test_sampler_memory_stays_below_the_tables(self, full_prior):
        """N = 1024 with 2e4 samples: the chunked loop peaked at 258 MiB."""
        spec = SchemeSpec(SchemeKind.COLLECTIVE, 1024)
        tracemalloc.start()
        try:
            monte_carlo_fidelity(spec, "optimal", full_prior, 20_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # measured 4.6 MiB, the table build's own peak

    def test_pure_state_draws_without_warning(self, full_prior_small):
        """r = 1 makes log((1 - r)/2) = -inf, which is expected, not a warning."""
        vecs = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [0.3, 0.0, 0.0]])
        t_states = np.sqrt(np.maximum(0.0, 1.0 - np.einsum("ij,ij->i", vecs, vecs)))
        tables = collective_tables(9, full_prior_small, cos_order=full_prior_small.angular_order)
        f = evaluator._collective_fidelities(np.random.default_rng(1), tables, t_states, vecs)
        assert np.all((f >= 0.0) & (f <= 1.0))

    def test_radius_above_one_leaves_its_block_exact(self, full_prior_small):
        """A radius past 1 makes its own row NaN; the other rows match the oracle."""
        r = np.array([1e-3, 0.3, 1.0 + 2.0**-52, 0.9, 1e-13])
        vecs = np.zeros((r.size, 3))
        vecs[:, 2] = r
        t_states = np.sqrt(np.maximum(0.0, 1.0 - r * r))
        tables = collective_tables(9, full_prior_small, cos_order=full_prior_small.angular_order)
        with np.errstate(invalid="ignore"):
            f = evaluator._collective_fidelities(np.random.default_rng(8), tables, t_states, vecs)
            g = collective_fidelities_chunked(np.random.default_rng(8), tables, t_states, vecs)
        assert np.array_equal(f, g, equal_nan=True)
        assert np.isnan(f[2]) and not np.isnan(np.delete(f, 2)).any()

    def test_shortcut_cuts_give_the_exact_values(self):
        """expm1 is -1.0 and exp 0.0 beyond the sampler's cuts, down to -inf."""
        below = -np.logspace(0.0, 300.0, 4001)
        tails = np.concatenate((evaluator._EXPM1_IS_MINUS_ONE + 60.0 * below, [-np.inf]))
        assert np.all(np.expm1(tails) == -1.0)
        assert np.all(np.log(-np.expm1(tails)) == 0.0)
        zeros = np.concatenate((evaluator._EXP_IS_ZERO + below, [evaluator._EXP_IS_ZERO, -np.inf]))
        assert np.all(np.exp(zeros) == 0.0)

    @settings(max_examples=60)
    @given(K=st.integers(1, 600), seed=SEEDS)
    def test_bisection_matches_the_full_comparison(self, K, seed):
        rng = np.random.default_rng(seed)
        terms = rng.random((9, K)) ** 8
        terms[:, rng.random(K) < 0.3] = 0.0  # flat runs in the running sums
        terms[:, -1] = 1.0
        cum = np.cumsum(terms, axis=1)
        u = rng.random(9)
        u[0] = 0.0
        u[1] = np.nextafter(1.0, 0.0)
        u[2] = cum[2, K // 2] / cum[2, -1]  # a uniform equal to a normalised sum
        full = np.minimum(np.count_nonzero(u[:, None] > cum / cum[:, -1:], axis=1), K - 1)
        assert np.array_equal(evaluator._first_at_or_above(cum, u), full)


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
