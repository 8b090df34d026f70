"""Check the ML boundary solver against 50-digit roots on sampled counts up to n = 2^24.

``ml_phi_batch`` bisects the slope of the boundary log-likelihood.  This
script compares its (cos phi, sin phi) with the 50-digit root of the same
slope (``ml_phi_mpmath`` in ``tests/oracles.py``), and does the same for the
closed-form quartic it replaced (``ml_phi_ferrari``).  The outcomes are
unphysical count pairs carried into the wedge k_x >= k_y >= n/2, as the
package's guess rule carries them, at each n in SAMPLED_NS = 2^12 .. 2^24:

* the rows next to the axis, (n, n/2 + 1 .. n/2 + 3), and the corner,
  (n, n - 1 .. n - 3);
* ROWS distinct wedge outcomes of SAMPLES local Monte Carlo draws (states,
  then two binomial counts, as ``monte_carlo_fidelity`` draws them).

It prints, per n, the rows checked and each solver's largest error, and the
time taken (about a minute).

Usage: PYTHONPATH=src python3 demos/ml_root_check.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import guess_error, ml_phi_ferrari, ml_phi_mpmath  # noqa: E402

from blochest.core import PriorKind, sample_states  # noqa: E402
from blochest.estimators import ml_phi_batch  # noqa: E402
from blochest.evaluator import _count_guesses, _to_wedge  # noqa: E402

SAMPLED_NS = tuple(2**e for e in range(12, 25))
SAMPLES = 100_000
ROWS = 200
SEED = 2026


def wedge_rows(n: int, kx: np.ndarray, ky: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct wedge images of the unphysical outcomes among (kx, ky)."""
    _, kept = _count_guesses("tomography", n, kx, ky)
    wx, wy = _to_wedge(n, kx[~kept], ky[~kept])[:2]
    codes = np.unique(wx * (n + 1) + wy)
    return codes // (n + 1), codes % (n + 1)


def main() -> None:
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    print("n, rows, max error of ml_phi_batch, max error of ml_phi_ferrari")
    for n in SAMPLED_NS:
        _, vecs = sample_states(PriorKind.EQUATORIAL_BURES, SAMPLES, rng)
        wx, wy = wedge_rows(n, *rng.binomial(n, 0.5 * (1.0 + vecs[:, :2])).T)
        pick = rng.choice(wx.size, size=min(ROWS, wx.size), replace=False)
        edge = np.arange(1, 4)
        wx = np.concatenate([wx[pick], np.full(6, n)])
        wy = np.concatenate([wy[pick], n // 2 + edge, n - edge])
        ax, ay = wx / n, wy / n
        roots = [ml_phi_mpmath(x, y) for x, y in zip(ax, ay)]
        errors = [
            max(guess_error(phi, root) for phi, root in zip(solve(ax, ay), roots))
            for solve in (ml_phi_batch, ml_phi_ferrari)
        ]
        print(f"{n}, {ax.size}, {errors[0]:.2e}, {errors[1]:.2e}")
    print(f"time: {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
