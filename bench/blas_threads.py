"""Does the BLAS thread count change the bits of ``local_tables``?

Usage (from the repository root):

    python3 bench/blas_threads.py [--out bench/baseline.json]

Builds the N = 384 local x/y tables at 256x512 orders (the finer of the two
auto-refine passes of the exact-sweep workload) in fresh interpreters with
OPENBLAS_NUM_THREADS / OMP_NUM_THREADS set to 1, 2 and 2 again.  For each it
reports the SHA-1 of the four tables, the optimal fidelity computed from
them and the time ``local_tables`` took, and the largest difference between
the 1- and 2-thread tables.  ``--out`` merges the findings into
a JSON file under the key ``blas_threads``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
N = 384
ORDERS = (256, 512)
THREADS = (1, 2, 2)
CHILD_TIMEOUT_S = 300


def child(path: str) -> None:
    import hashlib
    import time

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from blochest import evaluator
    from blochest.core import PriorKind, build_prior
    from blochest.schemes import SchemeKind, SchemeSpec

    prior = build_prior(PriorKind.EQUATORIAL_BURES, *ORDERS)
    spec = SchemeSpec(SchemeKind.LOCAL_XY, N)
    t0 = time.perf_counter()
    tables = evaluator.local_tables(spec, prior)
    seconds = time.perf_counter() - t0
    stack = np.stack([tables.prob, tables.v_t, tables.v_x, tables.v_y])
    np.save(path, stack)
    digest = hashlib.sha1(stack.tobytes())
    norm = np.sqrt(tables.v_t**2 + tables.v_x**2 + tables.v_y**2)
    fidelity = 0.5 * float(tables.prob.sum() + norm.sum())
    print(json.dumps({"sha1": digest.hexdigest(), "fidelity": fidelity, "seconds": seconds}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None)
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child)
        return 0

    import numpy as np

    OUT.mkdir(exist_ok=True)
    runs = []
    stacks = []
    for i, threads in enumerate(THREADS):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        path = OUT / f"blas-tables-{i}.npy"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", str(path)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        run = json.loads(proc.stdout.strip().splitlines()[-1])
        run["threads"] = threads
        runs.append(run)
        stacks.append(np.load(path))
        path.unlink()
        print(json.dumps(run))

    one, two, two_again = runs
    finding = {
        "case": f"local_tables N={N} at {ORDERS[0]}x{ORDERS[1]} orders",
        "nproc": os.cpu_count(),
        "runs": runs,
        "bits_differ_1_vs_2_threads": one["sha1"] != two["sha1"],
        "bits_repeat_at_2_threads": two["sha1"] == two_again["sha1"],
        "table_max_abs_diff_1_vs_2_threads": float(np.abs(stacks[0] - stacks[1]).max()),
        "table_max_abs_value": float(np.abs(stacks[0]).max()),
        "fidelity_abs_diff_1_vs_2_threads": abs(one["fidelity"] - two["fidelity"]),
        "speedup_2_over_1_threads": one["seconds"] / two["seconds"],
    }
    print(json.dumps({k: v for k, v in finding.items() if k != "runs"}))
    if args.out:
        path = Path(args.out)
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged["blas_threads"] = finding
        path.write_text(json.dumps(merged, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
