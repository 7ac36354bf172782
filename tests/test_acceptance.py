"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 9's
fidelity-increase clause (corrected fidelity above the post-excitation
baseline F0) is checked where it can hold, at partial coupling.  At
beta = 1 the excitation is exact and F0 = 1, so the same test instead
checks that correction holds the fidelity at F0 up to the second-order
code-word overlap error.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    damp_fock,
    kraus_completeness_residual,
    lossless_matching_frequency_oracle,
    to_density_matrix,
    trace_distance,
)
from gspp.channel import AMPLITUDE_MATCHED, INITIAL, fidelity_vs_distance, propagate_mixture
from gspp.coupling import excite_cat
from gspp.dispersion import effective_wavelength, solve_mode
from gspp.material import (
    CONSTANTS,
    GrapheneParams,
    conductivity,
    conductivity_full,
    conductivity_lowT,
    sigma_min,
)
from gspp.prism import (
    PrismGeometry,
    ValidityWarning,
    critical_angle,
    matching_frequency,
    overlap_sweep,
)
from gspp.qec import QecRunConfig, average_fidelity, orthogonality_monitor, run_ensemble

K = CONSTANTS


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_effective_wavelengths():
    """TM/TE effective wavelengths at the four reference points, 1% rel."""
    cases = [
        ("TM", 1.4, 300.0, 1550e-9, 36.42e-9),
        ("TM", 1.4, 300.0, 810e-9, 7.23e-9),
        ("TE", 0.4, 0.0, 1550e-9, 1549.77e-9),
        ("TE", 0.4, 0.0, 810e-9, 810.053e-9),
    ]
    results = []
    for pol, mu_c, temp, lam0, expected in cases:
        params = GrapheneParams.with_default_rates(mu_c, temp)
        omega = 2.0 * math.pi * K.c0 / lam0
        lam_eff = effective_wavelength(solve_mode(params, conductivity(params, omega), pol))
        results.append((pol, lam0, lam_eff, expected,
                        abs(lam_eff - expected) / expected))
    ok = all(r[4] < 0.01 for r in results)
    detail = "; ".join(f"{pol} {lam0 * 1e9:.0f}nm: {got * 1e9:.3f} vs {exp * 1e9:.3f}nm"
                       f" ({dev:.2%})" for pol, lam0, got, exp, dev in results)
    report(1, ok, detail)
    assert ok


def test_criterion_2_critical_angle():
    """arcsin(1/sqrt(1.5)) to 1e-6 degrees."""
    got = math.degrees(critical_angle(1.5))
    exact = math.degrees(math.asin(1.0 / math.sqrt(1.5)))
    ok = abs(got - exact) < 1e-6 and round(got, 3) == 54.736
    report(2, ok, f"critical angle {got:.6f} deg")
    assert ok


def test_criterion_3_conductivity_limits():
    """Universal-limit and low-temperature agreement of the two forms."""
    p0 = GrapheneParams(mu_c=0.0, temperature=0.0, gamma_intra=1e12, gamma_inter=1e12)
    sig0 = conductivity_lowT(p0, 0.5 * K.e / K.hbar).value
    universal_dev = abs(sig0 - sigma_min()) / sigma_min()

    # the closed form is the gamma_inter -> 0 limit of the interband term,
    # so the cross-check uses a small broadening
    p1 = GrapheneParams(mu_c=0.5, temperature=1.0, gamma_intra=1.0 / 5e-12,
                        gamma_inter=1e11)
    worst = 0.0
    for hw in (0.2, 0.6, 0.9, 1.1, 1.6):
        omega = hw * K.e / K.hbar
        full = conductivity_full(p1, omega).value
        low = conductivity_lowT(p1, omega).value
        worst = max(worst, abs(full - low) / abs(low))
    ok = universal_dev < 1e-10 and worst < 1e-3
    report(3, ok, f"universal dev {universal_dev:.2e}; full-vs-low worst {worst:.2e}")
    assert ok


def test_criterion_4_prism_coupling():
    """beta(d) exceeds 0.7 for both polarizations; TE dip near the edge."""
    warnings.simplefilter("ignore", ValidityWarning)
    # TM branch: theta = 64 deg, f = 0.81 THz, T = 300 K, mu_c in {0.5, 0.8}
    omega_tm = 2.0 * math.pi * 0.81e12
    tm_max = {}
    for mu_c in (0.5, 0.8):
        params = GrapheneParams.with_default_rates(mu_c, 300.0)
        geom = PrismGeometry(eps1=1.5, d=np.linspace(10e-6, 160e-6, 16),
                             theta_i=math.radians(64.0), polarization="TM")
        betas = overlap_sweep(geom, params, omega_tm)[0]
        tm_max[mu_c] = float(np.abs(betas).max())

    # TE branch: theta = 54.74 deg, mu_c = 1.24 eV, T = 0; evaluate each
    # spacing at its own reflectance dip (sharp below-edge resonance)
    params_te = GrapheneParams.with_default_rates(1.24, 0.0)
    geom_te = PrismGeometry(eps1=1.5, d=620e-9, theta_i=math.radians(54.74),
                            polarization="TE")
    w_root = lossless_matching_frequency_oracle(params_te, geom_te.eps1, geom_te.theta_i, "TE",
                                                2.0 * math.pi * 575e12, 2.0 * math.pi * 599e12)
    sweep_te = replace(geom_te, d=np.linspace(18e-6, 34e-6, 6))
    dips = matching_frequency(sweep_te, params_te, w_root - 2.0 * math.pi * 0.02e12,
                              w_root + 2.0 * math.pi * 0.35e12, n_scan=900)
    betas_te = overlap_sweep(sweep_te, params_te, dips)[0]
    te_max = float(np.abs(betas_te).max())

    # reflectance-dip location of the d = 620 nm geometry near 2 mu_c/hbar
    w_dip = matching_frequency(geom_te, params_te, 2.0 * math.pi * 520e12,
                               2.0 * math.pi * 680e12, n_scan=400)[0]
    w_edge = 2.0 * 1.24 * K.e / K.hbar
    dip_dev = abs(w_dip - w_edge) / w_edge

    ok = (max(tm_max.values()) > 0.7) and (te_max > 0.7) and dip_dev < 0.05
    report(4, ok, f"TM max|beta| {tm_max[0.5]:.3f} (mu=0.5) / {tm_max[0.8]:.3f} (mu=0.8); "
                  f"TE max|beta| {te_max:.3f}; TE dip at {dip_dev:.2%} from the edge")
    assert ok


def test_criterion_5_propagation_fidelity():
    """Analytic fidelity curves: monotone decay, turning points, plateau."""
    alpha = 3.0
    x = np.linspace(0.0, 3.0, 1501)
    ok = True
    details = []
    for beta in (1.0, 0.98, 0.95, 0.9, 0.8):
        g = math.asin(beta)
        f_init = fidelity_vs_distance(alpha, g, x, 1.0, reference=INITIAL)
        monotone = bool(np.all(np.diff(f_init) < 1e-12))
        tail = fidelity_vs_distance(alpha, g, [50.0], 1.0, reference=INITIAL)[0]
        f_match = fidelity_vs_distance(alpha, g, x, 1.0, reference=AMPLITUDE_MATCHED)
        i_min = int(np.argmin(f_match))
        x_turn = x[i_min]
        x_expect = math.log(math.sqrt(2.0) * beta)
        turn_ok = abs(x_turn - x_expect) <= 0.05 * x_expect
        plateau_ok = abs(f_match[i_min] - 0.5) < 0.05
        end_ok = f_match[-1] > 0.95
        case_ok = monotone and tail < 0.01 and turn_ok and plateau_ok and end_ok
        ok = ok and case_ok
        details.append(f"beta={beta}: turn {x_turn:.4f} vs {x_expect:.4f}, "
                       f"min {f_match[i_min]:.3f}, F(3) {f_match[-1]:.3f}")
    report(5, ok, "; ".join(details))
    assert ok


def test_criterion_6_kraus_completeness():
    """||E0+E0 + E1+E1 - 1|| <= (gamma dt)^2 D^2/4 at D = 64."""
    ok = True
    worst = 0.0
    for gamma_dt in (1e-4, 1e-3, 5e-3, 0.01):
        resid = kraus_completeness_residual(gamma_dt, 64)
        bound = gamma_dt**2 * 64**2 / 4.0
        worst = max(worst, resid / bound)
        ok = ok and resid <= bound
    report(6, ok, f"worst residual/bound {worst:.4f}")
    assert ok


def test_criterion_7_oracle_equivalence(rng):
    """Analytic coherent-dyad channel vs truncated-Fock Kraus channel."""
    dim = 64
    worst = 0.0
    for _ in range(20):
        alpha = rng.uniform(0.3, 3.0)
        g = rng.uniform(0.1, math.pi / 2)
        x = rng.uniform(0.0, 1.5)
        eta = math.exp(-2.0 * x)
        mix = excite_cat(alpha, g)
        analytic = to_density_matrix(propagate_mixture(mix, eta), dim).matrix
        fock = damp_fock(to_density_matrix(mix, dim), eta).matrix
        worst = max(worst, trace_distance(analytic, fock))
    ok = worst <= 1e-8
    report(7, ok, f"worst trace distance {worst:.2e} over 20 random (alpha, g, x)")
    assert ok


def test_criterion_8_monte_carlo_consistency():
    """p = 0 trajectory average against the analytic decohered mixture."""
    cfg = QecRunConfig(alpha=3.0, g=math.pi / 2, k0_kappa2=1.0, x_total=0.5,
                       parity_p=0.0, n_trajectories=10_000, seed=2024,
                       initial_check=False, apply_recovery=False, n_checkpoints=6)
    fid, _ = run_ensemble(cfg, (1.0, 0.0), 0)
    x = cfg.checkpoint_steps() * cfg.step
    analytic = fidelity_vs_distance(3.0, math.pi / 2, x, 1.0,
                                    reference=AMPLITUDE_MATCHED)
    mc = fid.mean(axis=1)
    se = fid.std(axis=1, ddof=1) / math.sqrt(cfg.n_trajectories)
    devs = [(mc[i] - analytic[i]) / se[i] for i in range(1, len(x))]
    ok = all(abs(d) <= 3.0 for d in devs)
    report(8, ok, "deviations (sigma): " + ", ".join(f"{d:+.2f}" for d in devs))
    assert ok


QEC_KW = dict(alpha=3.0, k0_kappa2=1.0, x_total=0.18, n_trajectories=10_000,
              seed=424242, n_checkpoints=5)


@pytest.fixture(scope="module")
def qec_curves():
    # the curves do not depend on the worker count (test_workers_equivalence)
    curves = {}
    for p in (0.0, 0.2, 0.6, 1.0):
        cfg = QecRunConfig(g=math.pi / 2, parity_p=p, **QEC_KW)
        curves[p] = average_fidelity(cfg, workers=2)
    return curves


def test_criterion_9_ordering(qec_curves):
    """F(p=1) >= F(0.6) >= F(0.2) >= F(0) within 2 standard errors."""
    ok = True
    worst = 0.0
    for lo, hi in ((0.0, 0.2), (0.2, 0.6), (0.6, 1.0)):
        clo, chi = qec_curves[lo], qec_curves[hi]
        for i in range(len(clo.x)):
            comb = math.hypot(clo.std_err[i], chi.std_err[i])
            margin = chi.f_bar[i] - clo.f_bar[i]
            if comb > 0:
                worst = min(worst, margin / comb) if margin < 0 else worst
            ok = ok and margin >= -2.0 * comb
    report(9, ok, f"ordering holds at every plotted distance "
                  f"(worst violation {worst:.2f} sigma)")
    assert ok


def test_criterion_9_f0_increase_literal(qec_curves):
    """Correction lifts the fidelity above the excitation baseline F0.

    F0 is the analytic pre-check fidelity at x = 0 against the
    matched-amplitude reference.  At partial coupling the excitation loses
    photons, F0 < 1, and the parity-checked, recovered fidelity must exceed
    F0 by more than 3 standard errors at every checkpoint (beta = 0.9877
    and beta = sin(0.8*pi/2) ~ 0.9511, the partial-coupling panels).

    At beta = 1 the excitation is exact, so F0 = 1 and no fidelity can
    exceed it.  There the clause holds as "correction keeps the fidelity at
    F0": 0 <= F0 - F_bar(x) <= max_overlap^2 + 2 sigma(x), where the only
    allowed loss is the second-order error of recovering on decayed code
    words whose overlap orthogonality_monitor reports.
    """
    for g, floor in ((math.asin(0.9877), 0.0), (0.8 * math.pi / 2, 0.2)):
        cfg = QecRunConfig(g=g, parity_p=1.0, **{**QEC_KW, "n_trajectories": 2000})
        partial = average_fidelity(cfg, workers=2)
        margin = partial.f_bar - partial.f0
        ok = bool(np.all(margin > 3.0 * partial.std_err)) and margin.min() > floor
        report(9, ok, f"beta={math.sin(g):.4f}: min F_bar - F0 = {margin.min():+.3f} "
                      f"(F0 = {partial.f0:.3f}, worst {(margin / partial.std_err).min():.0f} sigma)")
        assert ok, (f"beta={math.sin(g):.4f}: corrected fidelity must exceed F0 "
                    f"by > 3 sigma and by > {floor}")

    curve = qec_curves[1.0]
    cfg = QecRunConfig(g=math.pi / 2, parity_p=1.0, **QEC_KW)
    overlap_sq = orthogonality_monitor(cfg).max_overlap ** 2
    deficit = curve.f0 - curve.f_bar
    ok = (abs(curve.f0 - 1.0) <= 1e-12 and bool(np.all(deficit >= 0.0))
          and bool(np.all(deficit <= overlap_sq + 2.0 * curve.std_err)))
    report(9, ok, f"beta=1: F0 - 1 = {curve.f0 - 1.0:+.1e}; F0 - F_bar in "
                  f"[{deficit.min():.1e}, {deficit.max():.1e}] "
                  f"(max_overlap^2 = {overlap_sq:.1e})")
    assert ok, ("beta=1: F0 must be 1 and the corrected fidelity must stay "
                "within max_overlap^2 + 2 sigma below it")


def test_criterion_9_orthogonality():
    """Decayed code basis keeps |<0'|1'>| <= 1e-2 over the plotted range."""
    cfg = QecRunConfig(g=0.8 * math.pi / 2, parity_p=1.0,
                       **{**QEC_KW, "n_trajectories": 1})
    rep = orthogonality_monitor(cfg)
    ok = not rep.violated
    report(9, ok, f"orthogonality max {rep.max_overlap:.2e} over the plotted range")
    assert ok


def test_criterion_10_determinism(tmp_path):
    """Identical seeds reproduce byte-identical qec CSVs."""
    from gspp.cli import main
    argv = ["qec", "--seed", "11", "--alpha", "3", "--beta", "1",
            "--mu-c-ev", "1.4", "--temperature-k", "300", "--lambda0-nm", "1550",
            "--pol", "TM", "--k0kappa2x-max", "0.1", "--p-list", "0,1",
            "--trajectories", "200", "--checkpoints", "3", "--workers", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    ok = a.read_bytes() == b.read_bytes()
    report(10, ok, "byte-identical reruns with equal seeds")
    assert ok
