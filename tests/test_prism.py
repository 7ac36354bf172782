import cmath
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import gspp.prism
from conftest import (
    atr_mp_oracle,
    atr_of,
    atr_system_oracle,
    boundary_residuals,
    lossless_matching_frequency_oracle,
    matching_frequency_oracle,
    overlap_beta_oracle,
    photon_norm_oracle,
)
from gspp.cli import load_config, main
from gspp.coupling import _cmul
from gspp.dispersion import UnsupportedModeError, solve_mode
from gspp.material import CONSTANTS, Conductivity, GrapheneParams, conductivity
from gspp.prism import (
    NotResonant,
    _atr_solve,
    _golden_dips,
    PrismGeometry,
    ValidityWarning,
    atr_solve_sigma,
    coupling_from_beta,
    critical_angle,
    matching_frequency,
    overlap_beta,
    overlap_sweep,
    prism_energy_fraction,
    prism_mode_normalization,
    reflectance_map,
)
from gspp.quantize import vector_potential_amplitude

K = CONSTANTS
CONDUCTIVITY = gspp.prism.conductivity  # the unpatched conductivity sweep
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# (bad, match) of TestBatchedAtr's and TestDipSearch's guard tests: sigma
# at the pole, at a denominator ratio below the 1e-12 limit, and non-finite
BAD_SIGMAS = [(0.0, r"denominator ratio \d"), (5e-13, r"denominator ratio [45]\.\d{3}e-13"),
              (math.inf, "denominator ratio nan"), (math.nan, "denominator ratio nan")]
BAD_IDS = ["pole", "ratio-5e-13", "inf", "nan"]


def te_geom(**kw):
    base = dict(eps1=1.5, d=620e-9, theta_i=math.radians(54.74), polarization="TE")
    base.update(kw)
    return PrismGeometry(**base)


def tm_geom(**kw):
    base = dict(eps1=1.5, d=50e-6, theta_i=math.radians(64.0), polarization="TM")
    base.update(kw)
    return PrismGeometry(**base)


def entry_points(geom, params):
    """Calls of every entry point that couples geom to the surface wave."""
    lo, hi, omega = 2.0 * math.pi * 0.3e12, 2.0 * math.pi * 1.5e12, 2.0 * math.pi * 0.81e12
    return [lambda: matching_frequency(geom, params, lo, hi, n_scan=50),
            lambda: overlap_sweep(geom, params, omega),
            lambda: overlap_beta(geom, params, omega),
            lambda: prism_mode_normalization(geom, params, omega)]


class TestPrismGeometry:
    def test_spacing_sweep_names_the_bad_spacing(self):
        with pytest.raises(ValueError, match=r"spacing d must be > 0, got -5e-06"):
            tm_geom(d=np.array([5e-6, 20e-6, -5e-6, 10e-6]))

    @pytest.mark.parametrize("bad", [0.0, math.pi / 2.0, 2.0, math.nan])
    def test_angle_sweep_names_the_bad_angle(self, bad):
        with pytest.raises(ValueError, match=r"must lie in \(0, pi/2\), got " + re.escape(str(bad))):
            tm_geom(theta_i=np.array([1.0, bad, 1.2]))

    def test_one_sweep_per_geometry(self):
        # a spacing sweep and an angle sweep at once used to fail late, in
        # numpy's broadcasting
        with pytest.raises(ValueError, match="not both a spacing sweep and an angle sweep"):
            tm_geom(d=np.array([5e-6, 20e-6, 10e-6]), theta_i=np.radians([60.0, 64.0]))

    def test_coupling_takes_one_angle(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        for solve in entry_points(tm_geom(theta_i=np.radians([60.0, 64.0])), params):
            with pytest.raises(ValueError, match="one incidence angle"):
                solve()

    @pytest.mark.parametrize("theta", [critical_angle(1.5), math.radians(40.0)],
                             ids=["critical", "below"])
    def test_coupling_at_or_below_critical_angle_not_resonant(self, theta):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        for solve in entry_points(tm_geom(theta_i=theta), params):
            with pytest.raises(NotResonant, match="not above the critical angle"):
                solve()


@pytest.mark.parametrize("call, match", [
    (lambda: tm_geom(eps1=math.nan), "eps1 = nan"),
    (lambda: critical_angle(math.nan), "got nan"),
    (lambda: coupling_from_beta(math.nan), "got nan"),
    (lambda: vector_potential_amplitude(*tm_mode_1550nm(), math.nan), "got nan"),
], ids=["PrismGeometry-eps1", "critical_angle", "coupling_from_beta", "beam-width"])
def test_nan_is_rejected(call, match):
    # each check reads "not x > bound", which nan fails
    with pytest.raises(ValueError, match=match):
        call()


def tm_mode_1550nm():
    """(mode, params) of the TM surface wave at 1550 nm, mu_c = 1.4 eV, 300 K."""
    params = GrapheneParams.with_default_rates(1.4, 300.0)
    return solve_mode(params, conductivity(params, 2.0 * math.pi * K.c0 / 1550e-9), "TM"), params


class TestCriticalAngle:
    def test_paper_value(self):
        assert math.degrees(critical_angle(1.5)) == pytest.approx(54.736, abs=1e-3)

    def test_unity(self):
        assert critical_angle(1.0) == pytest.approx(math.pi / 2.0)

    def test_arcsin_half(self):
        assert critical_angle(4.0) == pytest.approx(math.radians(30.0), abs=1e-12)


class TestAtrSolve:
    def test_fresnel_limit(self):
        # sigma -> 0, theta < theta_c: single-interface Fresnel amplitude
        omega = 2.0 * math.pi * 500e12
        k0 = omega / K.c0
        k1 = math.sqrt(1.5) * k0
        theta = math.radians(30.0)
        kz1 = k1 * math.cos(theta)
        kz0 = math.sqrt(k0**2 - (k1 * math.sin(theta)) ** 2)
        for pol, r_ref in (("TE", (kz1 - kz0) / (kz1 + kz0)),
                           ("TM", (kz1 / 1.5 - kz0) / (kz1 / 1.5 + kz0))):
            geom = te_geom(theta_i=theta, polarization=pol, d=500e-9)
            sol = atr_solve_sigma(geom, 1e-15 + 1e-15j, omega)
            assert abs(sol.r) == pytest.approx(abs(r_ref), rel=1e-9)

    def test_boundary_residuals_vanish(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        for geom, f in ((tm_geom(), 0.81e12), (te_geom(), 599e12)):
            sol = atr_of(geom, params, 2.0 * math.pi * f)
            scale = abs(sol.k_z_prism)
            assert np.abs(boundary_residuals(sol)).max() / scale < 1e-12

    @pytest.mark.parametrize("sweep", [dict(d=np.array([20e-6, 50e-6])),
                                       dict(theta_i=np.radians([60.0, 64.0]))],
                             ids=["spacings", "angles"])
    def test_sweep_geometry_raises(self, sweep):
        # a sweep used to fail with "only 0-dimensional arrays can be converted"
        with pytest.raises(ValueError, match="solves one point"):
            atr_solve_sigma(tm_geom(**sweep), 1j * 8.8e-3, 2.0 * math.pi * 0.81e12)

    def test_lossless_evanescent_total_reflection(self):
        # sigma' = 0 and evanescent gap: |r| = 1 exactly
        geom = tm_geom()
        sol = atr_solve_sigma(geom, 1j * 8.8e-3, 2.0 * math.pi * 0.81e12)
        assert sol.reflectance == pytest.approx(1.0, abs=1e-10)

    def test_decoupled_large_gap(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        sol = atr_of(tm_geom(d=5e-3), params, 2.0 * math.pi * 0.81e12)
        assert sol.reflectance == pytest.approx(1.0, abs=1e-6)

    def test_lossy_reflectance_below_one(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        sol = atr_of(tm_geom(), params, 2.0 * math.pi * 0.81e12)
        assert sol.reflectance < 1.0


class TestReflectanceMap:
    def test_values_in_unit_interval_and_dip(self):
        # TM map around the Fig-6(b) parameter set shows a coupling locus
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        thetas = np.radians(np.linspace(56.0, 75.0, 9))
        omegas = 2.0 * math.pi * np.linspace(0.3e12, 1.5e12, 9)
        grid = reflectance_map(tm_geom(d=200e-6, theta_i=thetas), params, omegas)
        assert grid.shape == (9, 9)
        assert np.all(grid >= 0.0) and np.all(grid <= 1.0 + 1e-12)
        assert grid.min() < 0.5

    def test_grid_point_equals_direct_call(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        theta, omega = math.radians(64.0), 2.0 * math.pi * 0.81e12
        grid = reflectance_map(tm_geom(d=200e-6, theta_i=theta), params, [omega])
        direct = atr_of(tm_geom(d=200e-6), params, omega).reflectance
        assert grid[0, 0] == direct

    def test_spacing_sweep_columns_equal_one_spacing_maps(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        omegas = 2.0 * math.pi * np.linspace(0.3e12, 1.5e12, 7)
        ds = np.array([30e-6, 200e-6, 90e-6])
        grid = reflectance_map(tm_geom(d=ds), params, omegas)
        assert grid.shape == (7, 3)
        for j, d in enumerate(ds.tolist()):
            np.testing.assert_array_equal(grid[:, j], reflectance_map(tm_geom(d=d), params,
                                                                      omegas)[:, 0])


class TestMatchingFrequency:
    def test_te_resonance_near_interband_edge(self):
        params = GrapheneParams.with_default_rates(1.24, 0.0)
        geom = te_geom()
        w0 = matching_frequency(geom, params, 2.0 * math.pi * 520e12,
                                2.0 * math.pi * 680e12)[0]
        hw = K.hbar * w0 / K.e
        assert abs(hw - 2.48) / 2.48 < 0.05

    def test_below_critical_angle_not_resonant(self):
        params = GrapheneParams.with_default_rates(1.24, 0.0)
        geom = te_geom(theta_i=math.radians(40.0))
        with pytest.raises(NotResonant):
            matching_frequency(geom, params, 2.0 * math.pi * 520e12,
                               2.0 * math.pi * 680e12)

    def test_no_dip_in_window(self):
        params = GrapheneParams.with_default_rates(1.24, 0.0)
        with pytest.raises(NotResonant):
            matching_frequency(te_geom(d=1e-3), params, 2.0 * math.pi * 100e12,
                               2.0 * math.pi * 150e12)

    @pytest.mark.parametrize("bad", [-5e-6, 0.0, math.nan])
    def test_non_positive_spacing_raises(self, bad):
        # PrismGeometry rejects d <= 0 in a spacing sweep too; the sweep's
        # spacings used to pass unchecked and give a dip at d = -5 um and d = 0
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        with pytest.raises(ValueError, match="spacing d must be > 0"):
            matching_frequency(tm_geom(d=np.array([5e-6, bad, 10e-6])), params,
                               2.0 * math.pi * 0.3e12, 2.0 * math.pi * 1.5e12)

    def test_lossless_root_agrees_with_lossy_dip(self):
        # reduce the intraband damping: the reflectance dip approaches the
        # reactive momentum-matching root (weak prism loading at large d)
        params = GrapheneParams(mu_c=0.5, temperature=300.0,
                                gamma_intra=(1.0 / 0.35e-12) / 100.0,
                                gamma_inter=1.0 / 0.0658e-12)
        geom = tm_geom(d=350e-6)
        lo, hi = 2.0 * math.pi * 0.3e12, 2.0 * math.pi * 1.5e12
        w_root = lossless_matching_frequency_oracle(params, geom.eps1, geom.theta_i,
                                                    geom.polarization, lo, hi)
        w_dip = matching_frequency(geom, params, lo, hi, n_scan=900)[0]
        assert abs(w_dip - w_root) / w_root < 0.01


class TestBatchedAtr:
    """reflectance_map and the dip scan of matching_frequency solve their
    boundary systems as one batch; each point must match the one-point
    solve."""

    @pytest.mark.parametrize("name", ["fig6a", "fig6b"])
    def test_map_matches_pointwise_solves(self, name):
        cfg = load_config(str(CONFIG_DIR / f"{name}.cfg"))
        params = GrapheneParams.with_default_rates(float(cfg["mu_c_ev"]),
                                                   float(cfg["temperature_k"]))
        eps1, d, pol = float(cfg["eps1"]), float(cfg["d_um"]) * 1e-6, cfg["pol"]
        thetas = np.radians(np.linspace(float(cfg["theta_min_deg"]),
                                        float(cfg["theta_max_deg"]), int(cfg["theta_points"])))
        omegas = 2.0 * math.pi * 1e12 * np.linspace(float(cfg["fmin_thz"]),
                                                    float(cfg["fmax_thz"]),
                                                    int(cfg["freq_points"]))
        grid = reflectance_map(PrismGeometry(eps1=eps1, d=d, theta_i=thetas, polarization=pol),
                               params, omegas)
        ref = np.empty_like(grid)
        for i, w in enumerate(omegas):
            sigma = conductivity(params, float(w)).value
            for j, th in enumerate(thetas):
                geom = PrismGeometry(eps1=eps1, d=d, theta_i=float(th), polarization=pol)
                ref[i, j] = atr_solve_sigma(geom, sigma, float(w)).reflectance
        np.testing.assert_allclose(grid, ref, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("geom, params, f_lo, f_hi, n_scan", [
        (te_geom(d=20e-6), GrapheneParams.with_default_rates(1.24, 0.0), 590.5e12, 591.1e12, 900),
        (te_geom(d=40e-6), GrapheneParams.with_default_rates(1.24, 0.0), 590.5e12, 591.1e12, 900),
        (tm_geom(), GrapheneParams.with_default_rates(0.5, 300.0), 0.3e12, 1.5e12, 400),
    ])
    def test_dip_matches_pointwise_scan(self, geom, params, f_lo, f_hi, n_scan):
        lo, hi = 2.0 * math.pi * f_lo, 2.0 * math.pi * f_hi
        omegas = np.linspace(lo, hi, n_scan)
        refl = np.array([atr_of(geom, params, float(w)).reflectance for w in omegas])
        i = int(np.argmin(refl))
        assert 0 < i < n_scan - 1
        ref = matching_frequency_oracle(geom, params, lo, hi, n_scan)
        got = matching_frequency(geom, params, lo, hi, n_scan=n_scan)[0]
        assert got == ref

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * complex
    @pytest.mark.parametrize("bad, match", BAD_SIGMAS, ids=BAD_IDS)
    def test_one_singular_point_raises(self, monkeypatch, tmp_path, bad, match):
        # one bad point per batch, from the sigma of one frequency
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        thetas = np.radians(np.linspace(56.0, 75.0, 5))
        omegas = 2.0 * math.pi * np.linspace(0.3e12, 1.5e12, 4)
        map_geom = tm_geom(d=200e-6, theta_i=float(thetas[2]))
        monkeypatch.setattr(gspp.prism, "conductivity", conductivity_with_one_bad(map_geom, bad))
        with pytest.raises(ArithmeticError, match=match):
            reflectance_map(tm_geom(d=200e-6, theta_i=thetas), params, omegas)
        out = tmp_path / "map.csv"
        assert main(["prism", "reflectance-map", "--out", str(out), "--mu-c-ev", "0.5",
                     "--temperature-k", "300", "--pol", "TM", "--eps1", "1.5", "--d-um", "200",
                     "--theta-min-deg", "56", "--theta-max-deg", "75", "--theta-points", "5",
                     "--fmin-thz", "0.3", "--fmax-thz", "1.5", "--freq-points", "4"]) == 3
        assert not out.exists()
        monkeypatch.setattr(gspp.prism, "conductivity", conductivity_with_one_bad(tm_geom(), bad))
        with pytest.raises(ArithmeticError, match=match):
            matching_frequency(tm_geom(d=50e-6), params, omegas[0], omegas[-1], n_scan=50)
        sigma = bad_sigma(tm_geom(), omegas[0], bad)
        with pytest.raises(ArithmeticError, match=match):
            atr_solve_sigma(tm_geom(), sigma, omegas[0])

    @pytest.mark.parametrize("geom, omega", [(tm_geom(), 2.0 * math.pi * 0.81e12),
                                             (te_geom(), 2.0 * math.pi * 599e12)],
                             ids=["TM", "TE"])
    def test_guard_limit(self, geom, omega):
        # a denominator that cancels to 2e-12 of its terms is solved; to 5e-13, rejected
        sol = atr_solve_sigma(geom, sigma_at_ratio(geom, omega, 2e-12), omega)
        assert all(cmath.isfinite(a) for a in (sol.r, sol.m1, sol.m2, sol.t))
        with pytest.raises(ArithmeticError, match=BAD_SIGMAS[1][1]):
            atr_solve_sigma(geom, sigma_at_ratio(geom, omega, 5e-13), omega)

    def test_d_array_matches_one_d_at_a_time(self):
        params = GrapheneParams.with_default_rates(1.24, 0.0)
        geom = te_geom()
        omegas = 2.0 * math.pi * np.linspace(590.5e12, 591.1e12, 900)
        sigmas = np.array([conductivity(params, float(w)).value for w in omegas])
        ds = np.linspace(15e-6, 40e-6, 26)
        batch = _atr_solve(replace(geom, d=ds[:, None]), sigmas, omegas)
        assert batch.r.shape == (26, 900)
        for i, d in enumerate(ds):
            one = _atr_solve(replace(geom, d=float(d)), sigmas, omegas)
            for name in ("r", "m1", "m2", "t", "omega", "k_x", "k_z_prism", "k_z_gap",
                         "sigma", "d"):
                np.testing.assert_array_equal(getattr(batch, name)[i], getattr(one, name))


def sigma_at_ratio(geom, omega, ratio):
    """A sheet conductivity at which the closed form's denominator
    den = (1 + q) + rho u^2 (1 - q) of geom at omega is ratio times
    |1 + q| + |rho u^2| |1 - q|; ratio 0 puts sigma at the pole."""
    sol = atr_solve_sigma(geom, 0.0, omega)
    kz0 = sol.k_z_gap
    u2 = cmath.exp(2j * kz0 * geom.d)
    q = kz0 / sol.k_z_prism if geom.polarization == "TE" else geom.eps1 * kz0 / sol.k_z_prism
    # rho = -(1 - tau)(1 + q)/(u^2 (1 - q)) gives den = tau (1 + q), ratio tau/(2 - tau)
    tau = 2.0 * ratio / (1.0 + ratio)
    rho = -(1.0 - tau) * (1.0 + q) / (u2 * (1.0 - q))
    if geom.polarization == "TE":
        # rho = -s/(2 kz0 + s), s = sigma mu0 omega
        return -2.0 * kz0 * rho / (1.0 + rho) / (K.mu0 * omega)
    # rho = s/(2 + s), s = sigma kz0/(omega eps0)
    return 2.0 * rho / (1.0 - rho) * omega * K.eps0 / kz0


def bad_sigma(geom, omega, bad):
    """bad itself when it is nan or inf; else a conductivity at which geom's
    denominator at omega cancels to the ratio bad."""
    return sigma_at_ratio(geom, omega, bad) if math.isfinite(bad) else complex(bad)


def conductivity_with_one_bad(geom, bad):
    """A prism.conductivity that puts bad_sigma at the middle frequency of
    a sweep."""

    def sweep(params, omegas):
        value = CONDUCTIVITY(params, omegas).value
        i = len(value) // 2
        value[i] = bad_sigma(geom, float(omegas[i]), bad)
        return Conductivity(value=value, omega=omegas)

    return sweep


def map_args(name):
    """(geometry, sigmas, omegas) of a reflectance-map config, the
    geometry's angles along the last axis and frequencies along the first."""
    cfg = load_config(str(CONFIG_DIR / f"{name}.cfg"))
    params = GrapheneParams.with_default_rates(float(cfg["mu_c_ev"]),
                                               float(cfg["temperature_k"]))
    thetas = np.radians(np.linspace(float(cfg["theta_min_deg"]),
                                    float(cfg["theta_max_deg"]), int(cfg["theta_points"])))
    omegas = 2.0 * math.pi * 1e12 * np.linspace(float(cfg["fmin_thz"]), float(cfg["fmax_thz"]),
                                                int(cfg["freq_points"]))
    geom = PrismGeometry(eps1=float(cfg["eps1"]), d=float(cfg["d_um"]) * 1e-6,
                         theta_i=thetas[None, :], polarization=cfg["pol"])
    return geom, CONDUCTIVITY(params, omegas).value[:, None], omegas[:, None]


def fig4b_te_scan_args():
    """The same for the fig4b-te dip scan, spacings along the first axis."""
    geom, params, lo, hi, n_scan = fig4b_te_window()
    omegas = np.linspace(lo, hi, n_scan)
    return replace(geom, d=geom.d[:, None]), CONDUCTIVITY(params, omegas).value, omegas


def relative_error(sol, ref):
    """Largest over points of |got - ref| / |ref|, got the amplitudes
    (r, m1, m2, t) of sol and the norm over those four, ref's last axis."""
    got = np.stack([sol.r, sol.m1, sol.m2, sol.t], axis=-1)
    return float(np.max(np.linalg.norm(got - ref, axis=-1) / np.linalg.norm(ref, axis=-1)))


class TestClosedForm:
    """_atr_solve solves the Otto stack in closed form; the LU solve of its
    4x4 boundary system, in double precision and in mpmath, is the
    oracle."""

    @pytest.mark.parametrize("name, tol", [("fig6a", 1e-12), ("fig6b", 1e-12), ("fig6c", 1e-12),
                                           ("fig4b-te", 1e-11)])
    def test_matches_lu_oracle(self, name, tol):
        # at the resonant fig4b-te spacings the double-precision LU is itself
        # up to 2.2e-12 off (test_matches_mpmath_lu); the closed form 9e-15
        args = fig4b_te_scan_args() if name == "fig4b-te" else map_args(name)
        assert relative_error(_atr_solve(*args), atr_system_oracle(*args)) <= tol

    def test_matches_mpmath_lu(self):
        # the fig6 grids every 12th point, each fig4b-te spacing's scan
        # minimum with its neighbours, and the fig4b-tm spacings.  The mpmath
        # system takes the double-precision kz1, kz0, u and sheet term the
        # closed form forms, so the rounding of sigma, to whose last bit the
        # resonant points respond by up to 4e-11, stays out of the comparison.
        # Worst seen 9.1e-15, at the 18 um dip; the double-precision LU
        # reads 2.2e-12.
        mp = pytest.importorskip("mpmath").mp
        points = []
        for name in ("fig6a", "fig6b", "fig6c"):
            geom, sigmas, omegas = map_args(name)
            points += [(replace(geom, theta_i=th), s, w)
                       for s, w in zip(sigmas[::12, 0], omegas[::12, 0])
                       for th in geom.theta_i[0, ::12]]
        geom, sigmas, omegas = fig4b_te_scan_args()
        refl = np.abs(_atr_solve(geom, sigmas, omegas).r)
        for d, row in zip(geom.d[:, 0], refl):
            j = int(np.argmin(row))
            points += [(replace(geom, d=float(d)), sigmas[k], omegas[k])
                       for k in range(max(j - 1, 0), min(j + 2, len(omegas)))]
        tm_points = sweep_points("fig4b-tm")
        sigma = conductivity(tm_points[0][1], tm_points[0][2]).value
        points += [(g, sigma, w) for g, _, w in tm_points]
        assert len(points) == 75 + 77 + 40
        worst = 0.0
        with mp.workdps(40):
            for geom, sigma, omega in points:
                sol = _atr_solve(geom, sigma, omega)
                kz1, kz0 = sol.k_z_prism, sol.k_z_gap
                u = np.exp(1j * kz0 * geom.d)
                sheet = (np.asarray(sigma) * K.mu0 * np.asarray(omega) if geom.polarization == "TE"
                         else _cmul(sigma, kz0) / (np.asarray(omega) * K.eps0))
                ref = atr_mp_oracle(mp, geom.eps1, geom.polarization, kz1, kz0, u, sheet)
                diff = mp.norm(mp.matrix([complex(a) - b for a, b in
                                          zip((sol.r, sol.m1, sol.m2, sol.t), ref)]))
                worst = max(worst, float(diff / mp.norm(mp.matrix(ref))))
        assert worst <= 2e-14


def fig4b_te_window():
    """(geometry, params, omega_lo, omega_hi, n_scan) of the fig4b-te dip
    search, the geometry holding the config's spacing sweep."""
    cfg = load_config(str(CONFIG_DIR / "fig4b-te.cfg"))
    params = GrapheneParams.with_default_rates(float(cfg["mu_c_ev"]),
                                               float(cfg["temperature_k"]))
    ds = np.linspace(float(cfg["d_min_um"]), float(cfg["d_max_um"]), int(cfg["d_points"])) * 1e-6
    geom = PrismGeometry(eps1=float(cfg["eps1"]), d=ds,
                         theta_i=math.radians(float(cfg["theta_deg"])), polarization=cfg["pol"])
    lo, hi = (2.0 * math.pi * float(cfg[k]) * 1e12 for k in ("match_fmin_thz", "match_fmax_thz"))
    return geom, params, lo, hi, int(cfg["match_scan_points"])


class TestDipSearch:
    """matching_frequency refines every spacing's dip in one golden-section
    loop; each lane must repeat the one-spacing scipy search bit for bit."""

    def test_dips_match_oracle_bit_for_bit(self):
        # the fig4b-te spacings with two spacings on either side
        geom, params, lo, hi, n_scan = fig4b_te_window()
        ds = np.concatenate([[5.0, 10.0], np.linspace(15.0, 40.0, 26), [50.0, 60.0]]) * 1e-6
        got = matching_frequency(replace(geom, d=ds), params, lo, hi, n_scan=n_scan)
        ref = []
        for d in ds:
            try:
                ref.append(matching_frequency_oracle(replace(geom, d=float(d)), params,
                                                     lo, hi, n_scan))
            except NotResonant:
                ref.append(math.nan)
        np.testing.assert_array_equal(got, ref)
        # lanes without a dip, a dip on the window's upper edge, refined dips
        assert np.flatnonzero(np.isnan(got)).tolist() == [0, 1, 28, 29]
        assert got[2] == hi
        assert np.all((got[3:28] > lo) & (got[3:28] < hi))

    def test_no_spacing_with_a_dip(self):
        geom, params, lo, hi, n_scan = fig4b_te_window()
        with pytest.raises(NotResonant):
            matching_frequency(replace(geom, d=np.array([5e-6, 60e-6])), params, lo, hi,
                               n_scan=n_scan)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * complex
    @pytest.mark.parametrize("bad, match", BAD_SIGMAS, ids=BAD_IDS)
    def test_singular_refinement_lane_raises(self, monkeypatch, bad, match):
        # the scans are sound; one point of the first refinement batch is not
        geom, params, lo, hi, n_scan = fig4b_te_window()
        geom = replace(geom, d=25e-6)
        bad_one = conductivity_with_one_bad(geom, bad)
        monkeypatch.setattr(gspp.prism, "conductivity", lambda p, omegas: (
            CONDUCTIVITY(p, omegas) if len(omegas) == n_scan else bad_one(p, omegas)))
        with pytest.raises(ArithmeticError, match=match):
            matching_frequency(geom, params, lo, hi, n_scan=n_scan)
        monkeypatch.setattr(gspp.prism, "conductivity", CONDUCTIVITY)
        assert lo < matching_frequency(geom, params, lo, hi, n_scan=n_scan)[0] < hi

    def test_bad_bracket_raises_like_scipy(self):
        from scipy.optimize import minimize_scalar
        geom, params, lo, hi, n_scan = fig4b_te_window()
        geom = replace(geom, d=25e-6)
        dip = matching_frequency_oracle(geom, params, lo, hi, n_scan)
        step = (hi - lo) / (n_scan - 1)
        for bracket in ((dip + step, dip + 2.0 * step, dip + 3.0 * step),
                        (dip - step, dip + step, dip)):
            with pytest.raises(ValueError):
                minimize_scalar(lambda w: atr_of(geom, params, float(w)).reflectance,
                                bracket=bracket, method="golden", options={"xtol": 1e-10})
            with pytest.raises(ValueError, match="Bracketing values"):
                _golden_dips(replace(geom, d=np.array([geom.d])), params, np.array([bracket]))

    def test_matched_sweep_evaluates_beta_at_each_dip(self):
        geom, params, lo, hi, n_scan = fig4b_te_window()
        geom = replace(geom, d=np.array([10e-6, 20e-6, 30e-6]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            dips = matching_frequency(geom, params, lo, hi, n_scan=n_scan)
            betas = overlap_sweep(geom, params, dips)[0]
            assert betas[0] == 0.0 and math.isnan(dips[0])
            for d, w, beta in zip(geom.d[1:], dips[1:].tolist(), betas[1:]):
                assert beta == overlap_beta(replace(geom, d=float(d)), params, w)


class TestOverlapBeta:
    def test_tm_sweep_peaks_above_07(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        omega = 2.0 * math.pi * 0.81e12
        ds = np.linspace(10e-6, 150e-6, 15)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            betas = overlap_sweep(tm_geom(d=ds), params, omega)[0]
        assert np.abs(betas).max() > 0.7

    def test_te_matched_sweep_peaks_above_07(self):
        params = GrapheneParams.with_default_rates(1.24, 0.0)
        sweep = te_geom(d=np.linspace(18e-6, 32e-6, 5))
        w_root = lossless_matching_frequency_oracle(params, sweep.eps1, sweep.theta_i, "TE",
                                                    2.0 * math.pi * 575e12, 2.0 * math.pi * 599e12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            dips = matching_frequency(sweep, params, w_root - 2.0 * math.pi * 0.02e12,
                                      w_root + 2.0 * math.pi * 0.35e12, n_scan=900)
            betas = overlap_sweep(sweep, params, dips)[0]
        assert np.abs(betas).max() > 0.7

    def test_total_reflection_gives_zero(self):
        # (nearly) lossless graphene: |r| ~ 1 so the prefactor kills beta
        params = GrapheneParams(mu_c=0.5, temperature=0.0, gamma_intra=10.0,
                                gamma_inter=10.0, conductivity_model="low")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            beta = overlap_beta(tm_geom(), params, 2.0 * math.pi * 10e12)
        assert abs(beta) < 1e-3

    @pytest.mark.parametrize("bad", [-5e-6, 0.0, math.nan])
    def test_non_positive_spacing_raises(self, bad):
        # PrismGeometry rejects d <= 0 in a spacing sweep too; the sweep's
        # spacings used to pass unchecked and give a beta at d = -5 um and d = 0
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        with pytest.raises(ValueError, match="spacing d must be > 0"):
            overlap_sweep(tm_geom(d=np.array([5e-6, bad, 10e-6])), params, 2.0 * math.pi * 0.81e12)

    def test_below_critical_angle_raises(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        with pytest.raises(NotResonant):
            overlap_beta(tm_geom(theta_i=math.radians(40.0)), params,
                         2.0 * math.pi * 0.81e12)

    def test_wrong_polarization_raises(self):
        # the lossless surface mode's polarization guard, the one every
        # normalization of it passes
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        with pytest.raises(UnsupportedModeError, match="TE not supported"):
            overlap_beta(te_geom(theta_i=math.radians(60.0)), params,
                         2.0 * math.pi * 0.81e12)

    def test_cauchy_schwarz_bound(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        omega = 2.0 * math.pi * 0.81e12
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            for d in (20e-6, 60e-6, 120e-6):
                geom = tm_geom(d=d)
                sol = atr_of(geom, params, omega)
                beta = overlap_beta(geom, params, omega)
                assert abs(beta) <= math.sqrt(max(0.0, 1.0 - sol.reflectance)) + 1e-9

    def test_sweep_equals_overlap_beta_per_spacing(self):
        # the fig4b-tm sweep: one conductivity, 22 warnings, each at the caller
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        omega = 2.0 * math.pi * 0.81e12
        ds = np.linspace(5e-6, 200e-6, 40)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            betas = overlap_sweep(tm_geom(d=ds), params, omega)[0]
        assert sum(issubclass(w.category, ValidityWarning) for w in caught) == 22
        assert {w.filename for w in caught} == {__file__}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ref = [overlap_beta(tm_geom(d=float(d)), params, omega) for d in ds]
        assert len(caught) == 22 and {w.filename for w in caught} == {__file__}
        np.testing.assert_array_equal(betas, ref)

    def test_background_permittivity_guard(self):
        # every entry point that takes params
        params = GrapheneParams(mu_c=0.5, temperature=300.0, gamma_intra=1e12,
                                gamma_inter=1e13, eps_r=2.0)
        for solve in entry_points(tm_geom(), params) + [
                lambda: reflectance_map(tm_geom(), params, [2.0 * math.pi * 0.81e12])]:
            with pytest.raises(ValueError, match="eps_r = 1"):
                solve()

    def test_matched_sweep_warnings_point_at_the_caller(self):
        # three of the five dips warn
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        geom = tm_geom(d=np.linspace(100e-6, 200e-6, 5))
        dips = matching_frequency(geom, params, 2.0 * math.pi * 0.3e12, 2.0 * math.pi * 1.5e12,
                                  n_scan=1200)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            overlap_sweep(geom, params, dips)
        assert len(caught) == 3 and {w.filename for w in caught} == {__file__}


class TestSweepErrors:
    """The spacing sweeps fail as the one-point overlap does, and the
    beta-sweep command exits 2 or 3 without writing a table."""

    PARAMS = GrapheneParams.with_default_rates(0.5, 300.0)  # inductive: TM only
    OMEGA = 2.0 * math.pi * 0.81e12
    WINDOW = (2.0 * math.pi * 0.3e12, 2.0 * math.pi * 1.5e12)
    CLI = ["prism", "beta-sweep", "--d-min-um", "5", "--d-max-um", "10", "--d-points", "2"]
    MATCH = ["--match-fmin-thz", "0.3", "--match-fmax-thz", "1.5", "--match-scan-points", "50"]

    def sweeps(self, geom):
        geom = replace(geom, d=np.array([5e-6, 10e-6]))
        return (lambda: overlap_sweep(geom, self.PARAMS, self.OMEGA),
                lambda: overlap_sweep(geom, self.PARAMS, matching_frequency(
                    geom, self.PARAMS, *self.WINDOW, n_scan=50)))

    def test_below_critical_angle_raises(self):
        for sweep in self.sweeps(tm_geom(theta_i=math.radians(40.0))):
            with pytest.raises(NotResonant):
                sweep()

    def test_wrong_polarization_raises(self):
        # the TE scan finds absorption dips; the surface wave is TM only
        for sweep in self.sweeps(te_geom(theta_i=math.radians(60.0))):
            with pytest.raises(UnsupportedModeError, match="TE not supported"):
                sweep()

    def test_singular_stack_names_the_first_failing_ratio(self, monkeypatch, tmp_path):
        geom = tm_geom()
        ds = np.linspace(100.0, 200.0, 5) * 1e-6  # the command's spacings
        # one conductivity for every spacing, singular at the second
        sigma = sigma_at_ratio(replace(geom, d=float(ds[1])), self.OMEGA, 5e-13)
        monkeypatch.setattr(gspp.prism, "conductivity", lambda params, omegas: Conductivity(
            value=np.full(np.shape(omegas), sigma), omega=omegas))
        with pytest.raises(ArithmeticError, match=BAD_SIGMAS[1][1]):
            overlap_sweep(replace(geom, d=ds), self.PARAMS, self.OMEGA)
        out = tmp_path / "beta.csv"
        assert main(self.CLI + ["--d-min-um", "100", "--d-max-um", "200", "--d-points", "5",
                                "--out", str(out)]) == 3
        assert not list(tmp_path.iterdir())

        # the dips' conductivities, singular at the second dip (ratio 5e-13)
        # and the fourth (2e-13): the error names the first
        monkeypatch.setattr(gspp.prism, "conductivity", CONDUCTIVITY)
        dips = matching_frequency(replace(geom, d=ds), self.PARAMS, *self.WINDOW, n_scan=50)
        assert not np.isnan(dips).any()

        def conductivity(params, omegas):
            value = CONDUCTIVITY(params, omegas).value
            if np.array_equal(omegas, dips):  # the overlap's call
                for i, ratio in ((1, 5e-13), (3, 2e-13)):
                    value[i] = sigma_at_ratio(replace(geom, d=float(ds[i])), float(dips[i]), ratio)
            return Conductivity(value=value, omega=omegas)

        monkeypatch.setattr(gspp.prism, "conductivity", conductivity)
        sweep = replace(geom, d=ds)
        with pytest.raises(ArithmeticError, match=BAD_SIGMAS[1][1]):
            overlap_sweep(sweep, self.PARAMS,
                          matching_frequency(sweep, self.PARAMS, *self.WINDOW, n_scan=50))
        out = tmp_path / "beta.csv"
        assert main(self.CLI + self.MATCH + ["--d-min-um", "100", "--d-max-um", "200",
                                             "--d-points", "5", "--out", str(out)]) == 3
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags, code", [
        (["--theta-deg", "40"], 3),
        (["--theta-deg", "40"] + MATCH, 3),
        (["--pol", "TE", "--theta-deg", "60"], 2),
        (["--pol", "TE", "--theta-deg", "60"] + MATCH, 2),
    ], ids=["below-critical", "below-critical-matched", "wrong-pol", "wrong-pol-matched"])
    def test_cli_exit_code_and_no_table(self, tmp_path, flags, code):
        out = tmp_path / "beta.csv"
        assert main(self.CLI + flags + ["--out", str(out)]) == code
        assert not list(tmp_path.iterdir())


class TestPrismNormalization:
    def test_positive(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        val = prism_mode_normalization(tm_geom(), params, 2.0 * math.pi * 0.81e12)
        assert val > 0.0

    def test_smooth_in_d(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        omega = 2.0 * math.pi * 0.81e12
        ds = np.linspace(20e-6, 120e-6, 9)
        vals = np.array([prism_mode_normalization(tm_geom(d=float(d)), params, omega) for d in ds])
        np.testing.assert_array_equal(prism_mode_normalization(tm_geom(d=ds), params, omega), vals)
        rel_jump = np.abs(np.diff(vals)) / vals[:-1]
        assert rel_jump.max() < 0.8

    def test_below_critical_angle_raises(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        with pytest.raises(NotResonant):
            prism_mode_normalization(tm_geom(theta_i=math.radians(30.0)), params,
                                     2.0 * math.pi * 0.81e12)

    def test_validity_guard_fires_when_prism_energy_dominates(self):
        # far off resonance the lower-region field is weak relative to the
        # prism standing wave
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        geom = tm_geom(d=400e-6, theta_i=math.radians(74.0))
        with pytest.warns(ValidityWarning):
            overlap_beta(geom, params, 2.0 * math.pi * 1.4e12)


def sweep_points(name):
    """(geometry, params, omega) of every spacing a fig4b config evaluates."""
    cfg = load_config(str(CONFIG_DIR / f"{name}.cfg"))
    params = GrapheneParams.with_default_rates(float(cfg["mu_c_ev"]),
                                               float(cfg["temperature_k"]))
    ds = np.linspace(float(cfg["d_min_um"]), float(cfg["d_max_um"]), int(cfg["d_points"])) * 1e-6
    geom = PrismGeometry(eps1=float(cfg["eps1"]), d=ds,
                         theta_i=math.radians(float(cfg["theta_deg"])), polarization=cfg["pol"])
    if "match_fmin_thz" in cfg:
        lo, hi = (2.0 * math.pi * float(cfg[k]) * 1e12 for k in ("match_fmin_thz", "match_fmax_thz"))
        omegas = matching_frequency(geom, params, lo, hi,
                                    n_scan=int(cfg["match_scan_points"])).tolist()
    else:
        omegas = [2.0 * math.pi * float(cfg["f_thz"]) * 1e12] * len(ds)
    return [(replace(geom, d=float(d)), params, w) for d, w in zip(ds, omegas)]


class TestClosedFormIntegrals:
    """overlap_beta and the mode normalizations take every z-integral in
    closed form; the sampled-profile Simpson quadrature in conftest is
    their oracle."""

    @pytest.mark.parametrize("name", ["fig4b-te", "fig4b-tm"])
    def test_matches_quadrature_at_fig4b_points(self, name):
        # the oracle at the 1024-point grid the sweeps used to run on
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            for geom, params, omega in sweep_points(name):
                beta = overlap_beta(geom, params, omega)
                ref = overlap_beta_oracle(geom, params, omega, n_points=1024)
                assert abs(beta - ref) <= 1e-9 * abs(ref)

    @pytest.mark.parametrize("geom, params, f_lo, f_hi", [
        (tm_geom(), GrapheneParams.with_default_rates(0.5, 300.0), 0.81e12, None),
        (te_geom(d=40e-6), GrapheneParams.with_default_rates(1.24, 0.0), 590.5e12, 591.1e12),
    ], ids=["TM", "TE"])
    def test_quadrature_converges_onto_closed_form(self, geom, params, f_lo, f_hi):
        # Simpson error falls about 16x per grid doubling toward the closed form
        omega = 2.0 * math.pi * f_lo
        if f_hi is not None:
            omega = matching_frequency(geom, params, omega, 2.0 * math.pi * f_hi, n_scan=900)[0]
        sol = atr_of(geom, params, omega)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            beta = overlap_beta(geom, params, omega)
        n_psi = prism_mode_normalization(geom, params, omega)
        grids = (128, 256, 512, 1024, 2048)
        err_n = np.array([abs(photon_norm_oracle(sol, n) - n_psi) / n_psi for n in grids])
        err_b = np.array([abs(overlap_beta_oracle(geom, params, omega, n) - beta) / abs(beta)
                          for n in grids])
        for err in (err_n, err_b):
            assert np.all(err[:-1] / err[1:] > 10.0)
            assert err[-1] < 1e-10

    @settings(max_examples=150)
    @given(pol=st.sampled_from(["TE", "TM"]), eps1=st.sampled_from([1.5, 3.9]),
           above=st.floats(1e-4, 1.0), log_d_um=st.floats(-1.0, 2.7),
           f_frac=st.floats(0.0, 1.0))
    def test_beta_bounded_by_absorbed_fraction(self, pol, eps1, above, log_d_um, f_frac):
        # |beta| <= sqrt(1 - R) (Cauchy-Schwarz against N >= Int |A|^2 for
        # evanescent fields) and a positive photon-mode normalization
        if pol == "TE":
            params, f = GrapheneParams.with_default_rates(1.24, 0.0), 560e12 + 38e12 * f_frac
        else:
            params, f = GrapheneParams.with_default_rates(0.5, 300.0), 0.3e12 + 29.7e12 * f_frac
        theta_c = critical_angle(eps1)
        geom = PrismGeometry(eps1=eps1, d=10.0 ** log_d_um * 1e-6,
                             theta_i=theta_c + above * (math.radians(89.0) - theta_c),
                             polarization=pol)
        omega = 2.0 * math.pi * f
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            beta = overlap_beta(geom, params, omega)
        refl = atr_of(geom, params, omega).reflectance
        assert abs(beta) <= math.sqrt(max(0.0, 1.0 - refl)) + 1e-9
        assert prism_mode_normalization(geom, params, omega) > 0.0


class TestCouplingFromBeta:
    def test_perfect(self):
        assert coupling_from_beta(1.0) == pytest.approx(math.pi / 2.0)

    def test_zero(self):
        assert coupling_from_beta(0.0) == 0.0

    def test_arcsin_value(self):
        g = coupling_from_beta(0.7)
        assert abs(g) == pytest.approx(0.775397, abs=1e-6)

    def test_phase_carried(self):
        g = coupling_from_beta(0.5j)
        assert g == pytest.approx(1j * math.asin(0.5), abs=1e-12)

    def test_overrange_raises(self):
        with pytest.raises(ValueError):
            coupling_from_beta(1.2)
