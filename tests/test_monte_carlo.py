"""Blocked Monte Carlo kernels against the chunked loops they replaced.

The comparisons are exact (``==``).  Both kernels run the same
per-element arithmetic on the same uniforms, so the counts, the
per-sample fidelities and the reported fidelity and standard error agree
bit for bit, whatever the block size.  The memory tests pin the work
arrays to a cache-sized block.
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
    mc_draw_counts_chunked,
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
    @settings(max_examples=60)
    @given(n_half=st.integers(1, 600), block=BLOCKS, edge=EDGES, seed=SEEDS)
    @example(n_half=1, block=None, edge="block+1", seed=0)
    @example(n_half=4096, block=None, edge="block+1", seed=1)
    def test_counts_match_chunked_draws(self, n_half, block, edge, seed):
        with pytest.MonkeyPatch.context() as mp:
            samples = _samples_at(edge, _blocked(mp, block, 2 * n_half))
            rng = np.random.default_rng(seed)
            _, vecs = sample_states(PriorKind.EQUATORIAL_BURES, samples, rng)
            rng_new = np.random.default_rng(seed + 1)
            rng_old = np.random.default_rng(seed + 1)
            kx, ky = evaluator._mc_draw_counts(rng_new, vecs, n_half)
            ox, oy = mc_draw_counts_chunked(rng_old, vecs, n_half)
        assert np.array_equal(kx, ox) and np.array_equal(ky, oy)
        assert rng_new.random() == rng_old.random()  # same number of uniforms used

    @pytest.mark.parametrize("block", [None, 1, 7])
    @pytest.mark.parametrize("estimator", ["optimal", "ml", "tomography"])
    def test_reports_match_chunked_draws(self, eq_prior_small, estimator, block):
        spec = SchemeSpec(SchemeKind.LOCAL_XY, 10)
        with pytest.MonkeyPatch.context() as mp:
            _blocked(mp, block, 10)
            blocked = monte_carlo_fidelity(spec, estimator, eq_prior_small, 3001, seed=17)
            mp.setattr(evaluator, "_mc_draw_counts", mc_draw_counts_chunked)
            chunked = monte_carlo_fidelity(spec, estimator, eq_prior_small, 3001, seed=17)
        assert blocked == chunked
        if estimator == "tomography":
            assert 0.0 < blocked.discarded_fraction < 1.0

    def test_draw_memory_stays_in_one_block(self):
        """N = 4096: the chunked draws held a 64 MiB uniform array (128 MiB peak)."""
        _, vecs = sample_states(PriorKind.EQUATORIAL_BURES, 4096, np.random.default_rng(3))
        tracemalloc.start()
        try:
            evaluator._mc_draw_counts(np.random.default_rng(4), vecs, 2048)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # measured 1.3 MiB


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
