"""Check the ML boundary pick against the likelihood pick on whole tables.

``ml_phi_batch`` keeps the admissible root of the boundary quartic that is
closest to gamma.  This script compares that pick with the root of largest
likelihood (``likelihood_pick`` in ``tests/oracles.py``, ties within 1e-12
going to the root closest to gamma) on every unphysical outcome of the
wedge k_x >= k_y >= n/2, one outcome per orbit of the count model's
symmetries, for n = 1 .. --n-max and each --extra n.  It prints the rows
checked, the mismatches (each one listed) and the time taken; the default
run covers about 10^7 rows in a few minutes.

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

from blochest.estimators import ml_phi_batch  # noqa: E402
from blochest.evaluator import _ml_wedge, _physical_mask  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=1024)
    parser.add_argument("--extra", type=int, nargs="*", default=[2048, 4096])
    args = parser.parse_args()

    start = time.perf_counter()
    rows = mismatches = 0
    for n in [*range(1, args.n_max + 1), *args.extra]:
        kx, ky = np.nonzero(_ml_wedge(_physical_mask(n)))
        ax, ay = kx / n, ky / n
        closest = ml_phi_batch(ax, ay)
        likeliest = ml_phi_likelihood(ax, ay)
        rows += ax.size
        for i in np.flatnonzero(closest != likeliest):
            mismatches += 1
            print(
                f"mismatch n={n} counts=({kx[i]}, {ky[i]}): "
                f"closest {closest[i]!r}, likeliest {likeliest[i]!r}"
            )
    elapsed = time.perf_counter() - start
    print(f"rows checked: {rows}")
    print(f"mismatches: {mismatches}")
    print(f"time: {elapsed:.1f} s")


if __name__ == "__main__":
    main()
