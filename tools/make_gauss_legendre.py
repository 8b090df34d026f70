"""Write the Gauss-Legendre rules blochest ships, from the installed numpy.

Usage (from the repository root):

    python3 tools/make_gauss_legendre.py    # write src/blochest/gauss_legendre.f64

For each order n in ``blochest.quadrature.STORED_ORDERS`` the file holds
the n/2 positive nodes of ``numpy.polynomial.legendre.leggauss(n)`` in
increasing order, then their weights, as little-endian float64.  The script
refuses a rule whose nodes are not exactly antisymmetric or whose weights
are not exactly symmetric, since the package rebuilds the negative half by
mirroring.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from blochest.quadrature import STORED_ORDERS, STORED_PATH  # noqa: E402


def half_rule(n: int) -> np.ndarray:
    """The positive nodes, then their weights, of numpy's n-point rule."""
    x, w = np.polynomial.legendre.leggauss(n)
    if not (np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])):
        raise SystemExit(f"leggauss({n}) is not exactly symmetric; the rule cannot be mirrored")
    return np.concatenate((x[n // 2 :], w[n // 2 :])).astype("<f8")


def main() -> int:
    data = b"".join(half_rule(n).tobytes() for n in STORED_ORDERS)
    STORED_PATH.write_bytes(data)
    print(f"wrote {len(data)} bytes to {STORED_PATH} (numpy {np.__version__})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
