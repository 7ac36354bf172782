import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gspp.material
from conftest import quad_interband_oracle, slope_k2_oracle
from gspp.cli import frequency_grid, load_config, main
from gspp.material import (
    CONSTANTS,
    GrapheneParams,
    LogSingularityError,
    QuadratureError,
    conductivity,
    conductivity_full,
    conductivity_lowT,
    conductivity_slope,
    select_mode,
    sigma_min,
    _interband_full,
    _intraband_full,
    _slope_kernel,
)

EV = CONSTANTS.e
HBAR = CONSTANTS.hbar
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def ev_to_omega(hw_ev: float) -> float:
    return hw_ev * EV / HBAR


def test_constants_are_scipy_codata():
    # the literals are the CODATA 2022 values scipy.constants ships; eps0 is
    # derived from mu0 and c0 as 1/(mu0 c0^2)
    from scipy import constants as codata
    k = CONSTANTS
    assert (k.e, k.hbar, k.kB, k.mu0, k.c0) == (
        codata.e, codata.hbar, codata.k, codata.mu_0, codata.c)
    assert k.eps0 == 1.0 / (codata.mu_0 * codata.c**2)


def test_sigma_min_value():
    assert sigma_min() == pytest.approx(6.085e-5, rel=1e-3)
    # pi e^2/(2h) is the same number as e^2/(4 hbar)
    h = 2.0 * math.pi * HBAR
    assert sigma_min() == pytest.approx(math.pi * EV**2 / (2.0 * h), rel=1e-15)


def test_lowT_mu_zero_is_universal():
    p = GrapheneParams(mu_c=0.0, temperature=0.0, gamma_intra=1e12, gamma_inter=1e13)
    sig = conductivity_lowT(p, ev_to_omega(0.5))
    assert sig.value.real == pytest.approx(sigma_min(), rel=1e-15)
    assert sig.value.imag == 0.0


def test_lowT_interband_step():
    # hbar*omega = 4 mu_c: step active, Drude real part negligible
    p = GrapheneParams(mu_c=0.5, temperature=0.0, gamma_intra=1.0 / 5e-12,
                       gamma_inter=1.0 / 0.0658e-12)
    sig = conductivity_lowT(p, ev_to_omega(2.0))
    assert sig.value.real == pytest.approx(sigma_min(), rel=1e-4)


def test_lowT_log_straddle():
    p = GrapheneParams(mu_c=0.5, temperature=0.0, gamma_intra=1e12, gamma_inter=1e13)
    w_hi = ev_to_omega(1.0 + 1e-6)
    w_lo = ev_to_omega(1.0 - 1e-6)
    hi = conductivity_lowT(p, w_hi).value
    lo = conductivity_lowT(p, w_lo).value
    assert np.isfinite(hi) and np.isfinite(lo)
    # the step flips the real part by sigma_min
    assert hi.real - lo.real == pytest.approx(sigma_min(), rel=1e-3)
    # log arguments nearly equal on both sides of the divergence
    log_hi = abs((1.0 + 1e-6 - 1.0) / (1.0 + 1e-6 + 1.0))
    log_lo = abs((1.0 - 1e-6 - 1.0) / (1.0 - 1e-6 + 1.0))
    assert math.log(log_hi) - math.log(log_lo) == pytest.approx(0.0, abs=1e-4)
    assert hi.imag == pytest.approx(lo.imag, rel=1e-4)


def test_lowT_exact_singularity_raises():
    p = GrapheneParams(mu_c=0.5, temperature=0.0, gamma_intra=1e12, gamma_inter=1e13)
    with pytest.raises(LogSingularityError):
        conductivity_lowT(p, ev_to_omega(1.0))


def test_full_requires_positive_temperature():
    p = GrapheneParams(mu_c=0.5, temperature=0.0, gamma_intra=1e12, gamma_inter=1e13)
    with pytest.raises(ValueError):
        conductivity_full(p, ev_to_omega(0.5))


def test_full_universal_limit():
    # mu_c -> 0, T -> 0: sigma -> e^2/(4 hbar) for any omega
    p = GrapheneParams(mu_c=0.0, temperature=0.5, gamma_intra=1e12, gamma_inter=1e13)
    sig = conductivity_full(p, ev_to_omega(0.8))
    assert sig.value.real == pytest.approx(sigma_min(), rel=2e-3)
    assert abs(sig.value.imag) < 2e-3 * sigma_min()


def mpmath_interband(mp, p, omega, power):
    """Integral over eps > 0 of (f(-eps) - f(eps))/(a^2 - 4 (eps/hbar)^2)^power
    at 60 digits, with a = omega + i*gamma_inter and f the Fermi function.

    The integrand is taken over eps in eV with a^(2 power) factored out, so
    it is of order one: mpmath's convergence test is absolute, and stops
    at once on an integrand of order 1e-80."""
    mp.mp.dps = 60
    kT = mp.mpf(CONSTANTS.kB) * p.temperature / mp.mpf(EV)
    mu = mp.mpf(p.mu_c)
    a = mp.mpf(omega) + 1j * mp.mpf(p.gamma_inter)
    pc = mp.mpf(HBAR) * a / (2 * mp.mpf(EV))         # pole hbar*a/2, in eV

    def fermi(e):
        return 1 / (mp.e**((e - mu) / kT) + 1)

    def integrand(e):
        return (fermi(-e) - fermi(e)) / (1 - (e / pc) ** 2) ** power

    # split at the (complex) pole neighborhood and the Fermi edge so the
    # exponentially small absorption tail is fully resolved
    pr, pi_ = float(pc.real), float(pc.imag)
    splits = [pr - 8 * pi_, pr - 2 * pi_, pr - pi_ / 2, pr, pr + pi_ / 2,
              pr + 2 * pi_, pr + 8 * pi_, pr * 3, pr * 10, pr * 30,
              float(mu - 80 * kT), float(mu - 20 * kT), float(mu),
              float(mu + 20 * kT), float(mu + 80 * kT), float(mu) * 4, float(mu) * 20]
    nodes = [0] + sorted({x for x in splits if x > 0}) + [mp.inf]
    return mp.quad(integrand, nodes, maxdegree=12) * mp.mpf(EV) / a ** (2 * power)


def mpmath_intraband(mp, p, omega):
    """Drude term of the finite-temperature conductivity at 60 digits."""
    mp.mp.dps = 60
    kT = mp.mpf(CONSTANTS.kB) * p.temperature
    x = mp.mpf(p.mu_c) * mp.mpf(EV) / kT
    return (1j * mp.mpf(EV) ** 2 * kT / (mp.pi * mp.mpf(HBAR) ** 2 * (omega + 1j * p.gamma_intra))
            * (x + 2 * mp.log(1 + mp.e**(-x))))


def test_full_against_mpmath_oracle():
    # mu_c = 0.5 eV, T = 300 K, tau = 0.35 ps, f = 10 THz
    mp = pytest.importorskip("mpmath")
    p = GrapheneParams(mu_c=0.5, temperature=300.0, gamma_intra=1.0 / 0.35e-12,
                       gamma_inter=1.0 / 0.0658e-12)
    omega = 2.0 * math.pi * 10e12
    ours = conductivity_full(p, omega).value

    integral = mpmath_interband(mp, p, omega, 1)
    a = mp.mpf(omega) + 1j * mp.mpf(p.gamma_inter)
    inter = 1j * mp.mpf(EV) ** 2 * a / (mp.pi * mp.mpf(HBAR) ** 2) * integral
    oracle = complex(mpmath_intraband(mp, p, omega) + inter)
    assert abs(ours - oracle) / abs(oracle) < 1e-6


@pytest.mark.parametrize("mu_c,omega", [
    (0.5, 2.0 * math.pi * 10e12),
    (1.4, 2.0 * math.pi * CONSTANTS.c0 / 1550e-9),
    (0.5, 0.97 * 2.0 * 0.5 * EV / HBAR),
])
def test_slope_against_mpmath_oracle(mu_c, omega):
    mp = pytest.importorskip("mpmath")
    p = replace(GrapheneParams.with_default_rates(mu_c, 300.0), conductivity_model="full")
    ours = conductivity_slope(p, conductivity_full(p, omega))
    oracle = mpmath_slope(mp, p, omega)
    assert abs(ours - oracle) <= 1e-9 * abs(oracle)


@pytest.mark.parametrize("mu_c,temperature,hw_ev", [
    (0.5, 300.0, 0.0004),
    (0.5, 300.0, 0.2),
    (0.5, 300.0, 0.7),
    (0.5, 300.0, 1.5),
    (0.3, 1.0, 1.0),
])
def test_slope_narrow_resonance_against_mpmath(mu_c, temperature, hw_ev):
    # gamma_inter = 1e11 rad/s, a 10 ps interband time: the resonance's
    # width Im(abar) = gamma_inter/omega falls to 6.6e-5 at 1.5 eV, and K2
    # falls to 1e-11 at 0.1 THz; the 1 K case is pinned to the full form
    mp = pytest.importorskip("mpmath")
    p = replace(GrapheneParams.with_default_rates(mu_c, temperature), gamma_inter=1e11,
                conductivity_model="full")
    omega = ev_to_omega(hw_ev)
    ours = conductivity_slope(p, conductivity_full(p, omega))
    oracle = mpmath_slope(mp, p, omega)
    assert abs(ours - oracle) <= 1e-9 * abs(oracle)


def mpmath_slope(mp, p, omega):
    """Full-form d sigma/d omega at 60 digits: sigma = i e^2 a I1/(pi hbar^2)
    + Drude term, I_n the energy integrals of mpmath_interband, so
    d sigma/d omega = i e^2 (I1 - 2 a^2 I2)/(pi hbar^2) - Drude/(omega + i gamma_intra)."""
    i1 = mpmath_interband(mp, p, omega, 1)
    i2 = mpmath_interband(mp, p, omega, 2)
    a = mp.mpf(omega) + 1j * mp.mpf(p.gamma_inter)
    inter = 1j * mp.mpf(EV) ** 2 * (i1 - 2 * a**2 * i2) / (mp.pi * mp.mpf(HBAR) ** 2)
    intra = -mpmath_intraband(mp, p, omega) / (omega + 1j * p.gamma_intra)
    return complex(inter + intra)


@pytest.mark.parametrize("n_layers", [1, 2])
def test_lowT_slope_against_mpmath_derivative(n_layers):
    mp = pytest.importorskip("mpmath")
    p = replace(GrapheneParams.with_default_rates(0.4, 0.0), n_layers=n_layers)
    mp.mp.dps = 40
    e, hbar, mu = mp.mpf(EV), mp.mpf(HBAR), mp.mpf(0.4) * mp.mpf(EV)

    def closed_form(w):
        hw = hbar * w
        drude = 1j * e**2 * mu / (mp.pi * hbar**2 * (w + 1j * p.gamma_intra))
        step = 1 if hw > 2 * mu else 0
        inter = e**2 / (4 * hbar) * (step + 1j / mp.pi * mp.log(abs((hw - 2 * mu) / (hw + 2 * mu))))
        return n_layers * (drude + inter)

    for omega in (2.0 * math.pi * 10e12, 0.9 * 0.8 * EV / HBAR, 1.1 * 0.8 * EV / HBAR,
                  2.0 * math.pi * CONSTANTS.c0 / 810e-9):
        assert select_mode(p) == "low"
        ours = conductivity_slope(p, conductivity_lowT(p, omega))
        oracle = complex(mp.diff(closed_form, mp.mpf(omega)))
        assert abs(ours - oracle) <= 1e-9 * abs(oracle)


def test_fig2a_sweep_shape():
    # Drude roll-off at low f, interband step near hbar*w = 2 mu_c
    p = GrapheneParams(mu_c=0.5, temperature=300.0, gamma_intra=1.0 / 0.35e-12,
                       gamma_inter=1.0 / 0.0658e-12)
    freqs = np.logspace(math.log10(0.1e12), math.log10(1000e12), 40)
    vals = np.array([conductivity(p, 2.0 * math.pi * f).value for f in freqs])
    rescaled = vals / sigma_min()
    hw = HBAR * 2.0 * math.pi * freqs / EV
    low = rescaled[hw < 0.05]
    assert low[0].real > low[len(low) - 1].real  # Drude falls with frequency
    assert np.all(rescaled[hw < 0.5].imag > 0)   # inductive below the step
    above = rescaled[hw > 1.5]
    assert np.all(abs(above.real - 1.0) < 0.2)   # universal absorption above
    assert np.all(above.imag < 0)                # capacitive above


def test_dispatch_rules():
    p0 = GrapheneParams(mu_c=0.5, temperature=0.0, gamma_intra=1e12, gamma_inter=1e13)
    assert select_mode(p0) == "low"
    p300 = GrapheneParams(mu_c=0.5, temperature=300.0, gamma_intra=1e12, gamma_inter=1e13)
    assert select_mode(p300) == "full"


@pytest.mark.parametrize("n_layers", [1, 2])
def test_zero_temperature_neutral_sheet_dispatches_closed_form(n_layers):
    # kT < 0.01*min(|mu|, hbar*omega) read 0 < 0 here and picked the full
    # form, which rejects T = 0
    p = GrapheneParams(mu_c=0.0, temperature=0.0, gamma_intra=1e12, gamma_inter=1e13,
                       n_layers=n_layers)
    w = ev_to_omega(0.5)
    assert select_mode(p) == "low"
    assert conductivity(p, w).value == n_layers * sigma_min()


def test_zero_temperature_neutral_sheet_cli(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["sigma", "--temperature-k", "0", "--mu-c-ev", "0", "--points", "3",
                 "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")][1:]
    assert [(r[3], r[4]) for r in rows] == [("1.0", "0.0")] * 3


def test_params_model_override():
    p = GrapheneParams(mu_c=0.5, temperature=1.0, gamma_intra=1e12,
                       gamma_inter=1e13, conductivity_model="full")
    w = ev_to_omega(0.5)
    assert conductivity(p, w).value == conductivity_full(p, w).value


def test_near_threshold_agreement():
    # at kB T = 0.005 min(mu_c, hbar w), both forms agree to 1%.  The
    # closed form drops the interband broadening, so the comparison uses a
    # small gamma_inter (its gamma -> 0 limit).
    w = ev_to_omega(1.0)
    t_thresh = 0.005 * 0.4 * EV / CONSTANTS.kB
    p = GrapheneParams(mu_c=0.4, temperature=t_thresh, gamma_intra=1e12, gamma_inter=1e11)
    full = conductivity_full(p, w).value
    low = conductivity_lowT(p, w).value
    assert abs(full - low) / abs(low) < 0.01


def test_lowT_agreement_at_1K():
    # closed form = gamma_inter -> 0 limit; small broadening keeps the
    # Lorentzian absorption wing below the 1e-3 comparison floor
    p = GrapheneParams(mu_c=0.5, temperature=1.0, gamma_intra=1.0 / 5e-12,
                       gamma_inter=1e11)
    for hw in (0.2, 0.7, 0.95, 1.05, 1.5):
        full = conductivity_full(p, ev_to_omega(hw)).value
        low = conductivity_lowT(p, ev_to_omega(hw)).value
        assert abs(full - low) / abs(low) < 1e-3, hw


def test_passivity_random_sweep(rng):
    for _ in range(25):
        p = GrapheneParams(mu_c=float(rng.uniform(0.0, 1.5)),
                           temperature=float(rng.uniform(1.0, 400.0)),
                           gamma_intra=float(rng.uniform(1e11, 1e13)),
                           gamma_inter=float(rng.uniform(1e12, 1e14)))
        omega = float(rng.uniform(1e12, 4e15))
        assert conductivity(p, omega).value.real >= 0.0


def test_intraband_drude_scaling():
    p = GrapheneParams(mu_c=0.5, temperature=300.0, gamma_intra=3e12, gamma_inter=1e13)
    w1, w2 = 2.0 * math.pi * 1e12, 2.0 * math.pi * 7e12
    s1 = _intraband_full(p, w1) * (w1 + 1j * p.gamma_intra)
    s2 = _intraband_full(p, w2) * (w2 + 1j * p.gamma_intra)
    assert s1 == pytest.approx(s2, rel=1e-12)


def test_n_layers_linearity():
    base = dict(mu_c=0.5, temperature=300.0, gamma_intra=1e12, gamma_inter=1e13)
    w = 2.0 * math.pi * 5e12
    s1 = conductivity_full(GrapheneParams(**base), w).value
    s3 = conductivity_full(GrapheneParams(**base, n_layers=3), w).value
    assert s3 == pytest.approx(3.0 * s1, rel=1e-14)


def test_interband_positive_absorption():
    p = GrapheneParams(mu_c=0.3, temperature=200.0, gamma_intra=1e12, gamma_inter=1e13)
    val = _interband_full(p, ev_to_omega(0.9))
    assert val.real > 0.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        GrapheneParams(mu_c=0.5, temperature=-1.0, gamma_intra=1e12, gamma_inter=1e13)
    with pytest.raises(ValueError):
        GrapheneParams(mu_c=0.5, temperature=300.0, gamma_intra=0.0, gamma_inter=1e13)
    with pytest.raises(ValueError):
        GrapheneParams(mu_c=0.5, temperature=300.0, gamma_intra=1e12,
                       gamma_inter=1e13, eps_r=0.5)
    with pytest.raises(ValueError):
        conductivity(GrapheneParams(mu_c=0.5, temperature=300.0, gamma_intra=1e12,
                                    gamma_inter=1e13), -1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["mu_c", "temperature", "gamma_intra", "gamma_inter", "eps_r",
                                   "n_layers"])
def test_non_finite_parameter_rejected(field, value):
    # unchecked, a nan rate gives sigma = nan+nanj, an infinite
    # temperature fails inside the quadrature, and a non-finite layer
    # count fails in its integer conversion with a message naming no field
    base = dict(mu_c=0.5, temperature=300.0, gamma_intra=1e12, gamma_inter=1e13, eps_r=1.0)
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        GrapheneParams(**{**base, field: value})


def assert_interband_matches_oracle(params, omega):
    """_interband_full equals the numpy-scalar quad oracle bit for bit, or
    both raise the same exception type."""
    try:
        expected = quad_interband_oracle(params, omega)
    except Exception as exc:
        with pytest.raises(Exception) as got:
            _interband_full(params, omega)
        assert type(got.value) is type(exc)
        return
    assert _interband_full(params, omega) == expected, (params, omega)


def test_interband_bit_exact_on_fig2a_grid():
    cfg = load_config(str(CONFIG_DIR / "fig2a.cfg"))
    p = GrapheneParams(mu_c=float(cfg["mu_c_ev"]), temperature=float(cfg["temperature_k"]),
                       gamma_intra=1.0 / (float(cfg["tau_intra_ps"]) * 1e-12),
                       gamma_inter=1.0 / (float(cfg["tau_inter_ps"]) * 1e-12))
    freqs = frequency_grid(float(cfg["fmin_thz"]), float(cfg["fmax_thz"]),
                           int(cfg["points"]), True)
    for f in freqs:
        # the sigma command passes numpy-scalar frequencies
        assert_interband_matches_oracle(p, 2.0 * math.pi * f)


def test_interband_bit_exact_random_and_overflow():
    # mu = 0.5 eV, T = 10 K from 860 THz up: exp(-x) in the occupation of
    # the lower band overflows, where expit gives exactly 0
    points = [(0.5, 10.0, f) for f in (860.0, 1000.0, 2000.0)]
    rng = np.random.default_rng(4)
    points += [(float(rng.uniform(0.0, 1.5)), float(rng.uniform(1.0, 600.0)),
                float(rng.uniform(0.1, 2000.0))) for _ in range(200)]
    for i, (mu, t, f_thz) in enumerate(points):
        omega = 2.0 * math.pi * f_thz * 1e12
        assert_interband_matches_oracle(GrapheneParams.with_default_rates(mu, t),
                                        np.float64(omega) if i % 2 else omega)


def assert_slope_matches_oracle(params, omega):
    """conductivity_slope on the full form, with K2 on the fixed-panel rule,
    lies within 1e-9 of the sum of the slope's term magnitudes of the slope
    built from the adaptive K2 quad oracle, or both raise the same
    exception type."""
    sig = conductivity_full(params, omega)
    try:
        expected, scale = slope_k2_oracle(params, sig)
    except Exception as exc:
        with pytest.raises(Exception) as got:
            conductivity_slope(params, sig)
        assert type(got.value) is type(exc)
        return
    assert abs(conductivity_slope(params, sig) - expected) <= 1e-9 * scale, (params, omega)


def test_slope_matches_quad_oracle_on_fig2b_grid():
    cfg = load_config(str(CONFIG_DIR / "fig2b.cfg"))
    p = GrapheneParams(mu_c=float(cfg["mu_c_ev"]), temperature=float(cfg["temperature_k"]),
                       gamma_intra=1.0 / (float(cfg["tau_intra_ps"]) * 1e-12),
                       gamma_inter=1.0 / (float(cfg["tau_inter_ps"]) * 1e-12),
                       conductivity_model="full")
    freqs = frequency_grid(float(cfg["fmin_thz"]), float(cfg["fmax_thz"]),
                           int(cfg["points"]), True)
    for f in freqs:
        # the dispersion command passes numpy-scalar frequencies
        assert_slope_matches_oracle(p, 2.0 * math.pi * f)


@pytest.mark.parametrize("mu_c,temperature,hw_ev", [
    (0.5, 300.0, 1.5),
    (0.0, 300.0, 1.5),
    (0.3, 1.0, 1.0),
])
def test_slope_matches_quad_oracle_narrow_resonance(mu_c, temperature, hw_ev):
    # gamma_inter = 1e11 rad/s, a resonance of width 6.6e-5 at 1.5 eV: with
    # QUADPACK over u alone the oracle's K2 was 1.3e-8 off mpmath and its
    # slope 6.6e-9, 1.1e-8 and 2.7e-9 of the terms' sum off the engine's;
    # with the pole window over theta both are within 2e-12
    params = replace(GrapheneParams.with_default_rates(mu_c, temperature), gamma_inter=1e11,
                     conductivity_model="full")
    assert_slope_matches_oracle(params, ev_to_omega(hw_ev))


def test_slope_matches_quad_oracle_random_and_overflow():
    # mu = 0.5 eV, T = 10 K from 860 THz up: exp(-x) in the occupation of
    # the lower band overflows, where the panel rule must give exactly 0
    # without a RuntimeWarning
    points = [(0.5, 10.0, f) for f in (860.0, 1000.0, 2000.0)]
    rng = np.random.default_rng(5)
    points += [(float(rng.uniform(0.0, 1.5)), float(rng.uniform(1.0, 600.0)),
                float(rng.uniform(0.1, 2000.0))) for _ in range(200)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for i, (mu, t, f_thz) in enumerate(points):
            omega = 2.0 * math.pi * f_thz * 1e12
            params = replace(GrapheneParams.with_default_rates(mu, t),
                             conductivity_model="full", n_layers=1 + i % 3)
            assert_slope_matches_oracle(params, np.float64(omega) if i % 2 else omega)


@pytest.mark.parametrize("tau_inter_ps,f_thz,rel", [
    (0.0658, 2.53, 1e-14),
    (0.0658, 2.61, 1e-14),
    (10.0, 362.7, 1e-11),
    (10.0, 0.1, 1e-13),
])
def test_k2_against_mpmath(tau_inter_ps, f_thz, rel):
    # fig2b's material, where the adaptive K2 was 8.0e-9 (2.53 THz) and
    # 3.7e-9 (2.61 THz) off, the panel rule with the closed-form tail
    # 7.3e-11 and 2.2e-11 (its two terms cancel to the tail's size), and
    # with the tail series and d(u) = sinh/(cosh + cosh) 3.9e-16 and
    # 3.6e-16; a 10 ps interband time at 1.5 eV, a resonance of width
    # 6.6e-5, where the panel rule is 1.8e-13 off, the 8-point rule on the
    # same panels 4.5e-9 and abar^2 - u^2 taken unfactored 7.9e-9; and the
    # same at 0.1 THz, K2 = 1.1e-11, where the closed-form tail and d(u) as
    # a difference of two occupations near 1 were 3.6e-6 off and the
    # series and the sinh form are 8e-15.  K2 = 2 omega^3/hbar times the
    # energy integral of mpmath_interband at power 2
    mp = pytest.importorskip("mpmath")
    p = replace(GrapheneParams.with_default_rates(0.5, 300.0),
                gamma_inter=1.0 / (tau_inter_ps * 1e-12))
    omega = 2.0 * math.pi * f_thz * 1e12
    oracle = complex(mpmath_interband(mp, p, omega, 2) * 2 * mp.mpf(omega) ** 3 / mp.mpf(HBAR))
    assert abs(_slope_kernel(p, np.array([omega]))[0] - oracle) <= rel * abs(oracle)


def test_panel_rule_orders():
    # column 0 is the 16-point rule on [0, 1], exact for polynomials up to
    # degree 31, and column 1 the 12-point estimate, exact up to degree 23
    # only: y^27 it misses by 5.9e-11
    nodes, weights = gspp.material._panel_rule()
    moments = (nodes ** np.arange(32)[:, None]) @ weights
    exact = 1.0 / np.arange(1, 33)
    assert np.allclose(moments[:, 0], exact, rtol=1e-14, atol=0)
    assert np.allclose(moments[:24, 1], exact[:24], rtol=1e-14, atol=0)
    assert abs(moments[27, 1] / exact[27] - 1.0) > 1e-11


def test_pinned_low_model_at_finite_temperature():
    # 'low' pins the closed form where 'auto' picks the full form, for sigma
    # and its slope alike; the closed form does not depend on T
    w = 2.0 * math.pi * 10e12
    auto = GrapheneParams.with_default_rates(0.5, 300.0)
    low = replace(auto, conductivity_model="low")
    assert select_mode(auto) == "full"
    assert select_mode(low) == "low"
    sig = conductivity(low, w)
    assert sig.value == conductivity_lowT(auto, w).value
    cold = replace(auto, temperature=0.0)
    assert conductivity_slope(low, sig) == conductivity_slope(cold, conductivity(cold, w))
    assert conductivity_slope(low, sig) != conductivity_slope(auto, conductivity(auto, w))


def test_quadrature_error_propagates(monkeypatch, tmp_path):
    def unconverged(func, a, b, **kwargs):
        return 0.0, 1.0, {"last": 400}, "The maximum number of subdivisions (400) has been achieved."

    monkeypatch.setattr(gspp.material, "quad", unconverged)
    p = GrapheneParams.with_default_rates(0.5, 300.0)
    with pytest.raises(QuadratureError, match=r"at 1e\+13 Hz") as exc:
        conductivity_full(p, 2.0 * math.pi * 10e12)
    assert exc.value.error_estimate == 1.0
    assert exc.value.frequency_hz == pytest.approx(10e12, rel=1e-15)
    # a sweep names its first frequency that failed, in sweep order
    for f_thz in ([10.0, 20.0], [20.0, 10.0]):
        with pytest.raises(QuadratureError) as exc:
            conductivity(p, 2.0 * math.pi * 1e12 * np.array(f_thz))
        assert exc.value.frequency_hz == pytest.approx(f_thz[0] * 1e12, rel=1e-15)
    out = tmp_path / "s.csv"
    rc = main(["sigma", "--fmin-thz", "10", "--fmax-thz", "10", "--points", "1",
               "--out", str(out)])
    assert rc == 3
    assert not out.exists()
