"""Error-decay rates at large N for every estimation route.

Runs exact sweeps over N ∈ {64, 128, 256, 512, 1024}, prints 1 − F with the
natural scalings, and fits log(1 − F) against log N.  Also shows how the
collective product N·(1 − F) climbs toward its limit constant, and how the
tomography discard mass decays.  Past the enumeration limit, local Monte
Carlo (10^6 samples per N, N = 2^10 … 2^25) gives the ML product
(1 − F)·N^(3/4) and the discarded mass times N^(1/4), with standard errors.
The ML sweep is the slow part; total run time is under a minute.

Usage: python3 demos/exponent_study.py
"""

from __future__ import annotations

import numpy as np

from blochest.asymptotics import constants, fit_exponent
from blochest.core import PriorKind, build_prior
from blochest.evaluator import exact_fidelity, monte_carlo_fidelity
from blochest.schemes import SchemeKind, SchemeSpec

RADIAL_ORDER = 128
ANGULAR_ORDER = 256
NS = (64, 128, 256, 512, 1024)
MC_NS = tuple(2**e for e in range(10, 26))
MC_SAMPLES = 1_000_000
MC_SEED = 2026
ORDERS = {"radial_order": RADIAL_ORDER, "angular_order": ANGULAR_ORDER}


def exact_sweep(kind: SchemeKind, estimator: str, prior, **orders) -> list:
    """(N, exact report) pairs over NS."""
    return [(n, exact_fidelity(SchemeSpec(kind, n), estimator, prior, **orders)) for n in NS]


def main() -> None:
    eq = build_prior(PriorKind.EQUATORIAL_BURES, RADIAL_ORDER, ANGULAR_ORDER)
    full = build_prior(PriorKind.FULL_BURES, RADIAL_ORDER, ANGULAR_ORDER)
    limits = constants()

    print("collective measurements, full-ball ensemble")
    coll = exact_sweep(SchemeKind.COLLECTIVE, "optimal", full, **ORDERS)
    print(f"{'N':>6}  {'1-F':>12}  {'N(1-F)':>10}")
    for n, rep in coll:
        print(f"{n:>6}  {1 - rep.fidelity:>12.3e}  {n * (1 - rep.fidelity):>10.6f}")
    print(
        f"   →  N(1-F) rises toward {limits.collective_coeff:.6f} "
        f"(= 3/4 + 4/(3π)); the error is cleanly first order in 1/N.\n"
    )

    print("local x/y measurements, equatorial ensemble")
    results = {e: exact_sweep(SchemeKind.LOCAL_XY, e, eq, **ORDERS) for e in ("optimal", "ml")}
    tomo = exact_sweep(SchemeKind.LOCAL_XY, "tomography", eq)
    print(f"{'N':>6}  {'1-F opt':>12}  {'1-F ML':>12}  {'1-F tomo*':>12}  {'discarded':>10}")
    for (n, rep_o), (_, rep_m), (_, rep_t) in zip(results["optimal"], results["ml"], tomo):
        print(
            f"{n:>6}  {1 - rep_o.fidelity:>12.3e}  {1 - rep_m.fidelity:>12.3e}"
            f"  {1 - rep_t.fidelity:>12.3e}  {rep_t.discarded_fraction:>10.4f}"
        )
    print("   * averaged over the kept (physical) outcomes only\n")

    fit_o = fit_exponent(results["optimal"])
    fit_m = fit_exponent(results["ml"])
    fit_t = fit_exponent(tomo)
    log_n = np.log([n for n, _ in tomo])
    disc_slope = -float(
        np.polyfit(log_n, np.log([rep.discarded_fraction for _, rep in tomo]), 1)[0]
    )
    n_last, ml_last = results["ml"][-1]
    ml_coeff = (1 - ml_last.fidelity) * n_last**0.75

    print("fitted decay exponents, 1 - F ~ C · N^(-e)")
    print(f"  optimal guess        e = {fit_o.exponent:.4f}   (C = {fit_o.coefficient:.4f})")
    print(f"  maximum likelihood   e = {fit_m.exponent:.4f}   (C = {fit_m.coefficient:.4f})")
    print(f"  tomography (kept)    e = {fit_t.exponent:.4f}   (C = {fit_t.coefficient:.4f})")
    print(f"  discarded mass       e = {disc_slope:.4f}   (drifting toward 1/4)")
    print(
        f"\nML coefficient check: (1-F)·N^(3/4) at N = {n_last} is {ml_coeff:.5f}"
        f" against the asymptote {limits.xi_ml:.5f} — the N^(-3/4) regime sets"
        f" in very slowly.\n"
        "The kept-outcome tomography average decays like the ML error, not\n"
        "with the quarter power; only the discarded mass (and any average\n"
        "that charges discards a constant penalty) is the quarter-power\n"
        "quantity.  The README works through the distinction.\n"
    )

    print(f"local Monte Carlo past the enumeration limit, {MC_SAMPLES} samples per N")
    print(f"{'N':>9}  {'ML (1-F)·N^(3/4)':>20}  {'discarded·N^(1/4)':>20}")
    for n in MC_NS:
        spec = SchemeSpec(SchemeKind.LOCAL_XY, n)
        ml = monte_carlo_fidelity(spec, "ml", eq, MC_SAMPLES, MC_SEED + n)
        tomo = monte_carlo_fidelity(spec, "tomography", eq, MC_SAMPLES, MC_SEED + n)
        d = tomo.discarded_fraction
        d_err = np.sqrt(d * (1.0 - d) / MC_SAMPLES)
        print(
            f"{n:>9}  {(1 - ml.fidelity) * n**0.75:>12.4f} ± {ml.stderr * n**0.75:.4f}"
            f"  {d * n**0.25:>12.4f} ± {d_err * n**0.25:.4f}"
        )
    print(f"   →  the ML product falls toward ξ_ML = {limits.xi_ml:.5f}.")


if __name__ == "__main__":
    main()
