"""Check the ML boundary pick against the likelihood pick on whole tables and sampled counts.

``ml_phi_batch`` keeps the admissible root of the boundary quartic that is
closest to gamma.  This script compares that pick with the root of largest
likelihood (``likelihood_pick`` in ``tests/oracles.py``, ties within 1e-12
going to the root closest to gamma) on unphysical outcomes carried into the
wedge k_x >= k_y >= n/2, one outcome per orbit of the count model's
symmetries, as the package's guess rule carries them:

* every wedge outcome for n = 1 .. --n-max and each --extra n;
* the distinct wedge outcomes of SAMPLES local Monte Carlo draws (states,
  then two binomial counts, as ``monte_carlo_fidelity`` draws them) at each
  n in SAMPLED_NS, 2^12 .. 2^24 counts per axis.

It prints the rows checked and the mismatches of each pass (each mismatch
listed) and the time taken; the default run covers about 10^7 table rows
and takes a few minutes.

Usage: PYTHONPATH=src python3 demos/ml_pick_check.py [--n-max 1024] [--extra 2048 4096]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import ml_phi_likelihood  # noqa: E402

from blochest.core import PriorKind, sample_states  # noqa: E402
from blochest.estimators import ml_phi_batch  # noqa: E402
from blochest.evaluator import _count_guesses, _to_wedge  # noqa: E402

SAMPLED_NS = tuple(2**e for e in range(12, 25))
SAMPLES = 1_000_000
SEED = 2026


def wedge_rows(n: int, kx: np.ndarray, ky: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct wedge images of the unphysical outcomes among (kx, ky)."""
    _, kept = _count_guesses("tomography", n, kx, ky)
    wx, wy = _to_wedge(n, kx[~kept], ky[~kept])[:2]
    codes = np.unique(wx * (n + 1) + wy)
    return codes // (n + 1), codes % (n + 1)


def check(n: int, kx: np.ndarray, ky: np.ndarray) -> tuple[int, int]:
    """(rows, mismatches) of the two picks on the wedge rows; mismatches printed."""
    wx, wy = wedge_rows(n, kx, ky)
    ax, ay = wx / n, wy / n
    closest = ml_phi_batch(ax, ay)
    likeliest = ml_phi_likelihood(ax, ay)
    bad = np.flatnonzero(closest != likeliest)
    for i in bad:
        print(
            f"mismatch n={n} counts=({wx[i]}, {wy[i]}): "
            f"closest {closest[i]!r}, likeliest {likeliest[i]!r}"
        )
    return ax.size, bad.size


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=1024)
    parser.add_argument("--extra", type=int, nargs="*", default=[2048, 4096])
    args = parser.parse_args()

    start = time.perf_counter()
    rows = mismatches = 0
    for n in [*range(1, args.n_max + 1), *args.extra]:
        r, m = check(n, *np.indices((n + 1, n + 1)))
        rows += r
        mismatches += m
    print(f"table rows checked: {rows}")
    print(f"table mismatches: {mismatches}")

    rng = np.random.default_rng(SEED)
    rows = mismatches = 0
    for n in SAMPLED_NS:
        _, vecs = sample_states(PriorKind.EQUATORIAL_BURES, SAMPLES, rng)
        r, m = check(n, *rng.binomial(n, 0.5 * (1.0 + vecs[:, :2])).T)
        rows += r
        mismatches += m
    print(f"sampled rows checked: {rows} (n = 2^12 .. 2^24, {SAMPLES} samples each)")
    print(f"sampled mismatches: {mismatches}")
    print(f"time: {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
