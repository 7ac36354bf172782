import contextlib
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import gspp.prism
from conftest import (
    atr_guard_oracle,
    boundary_residuals,
    matching_frequency_oracle,
    overlap_beta_oracle,
    photon_norm_oracle,
)
from gspp.cli import load_config, main
from gspp.material import CONSTANTS, GrapheneParams, conductivity
from gspp.prism import (
    NotResonant,
    _atr_amplitudes,
    _golden_dips,
    _solve_screened,
    PrismGeometry,
    ValidityWarning,
    atr_solve,
    atr_solve_sigma,
    beta_sweep,
    beta_sweep_matched,
    coupling_from_beta,
    critical_angle,
    lossless_matching_frequency,
    matching_frequency,
    overlap_beta,
    prism_energy_fraction,
    prism_mode_normalization,
    reflectance_map,
)

K = CONSTANTS
SIGMAS = gspp.prism._sigmas  # the unpatched conductivity list
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def te_geom(**kw):
    base = dict(eps1=1.5, d=620e-9, theta_i=math.radians(54.74), polarization="TE")
    base.update(kw)
    return PrismGeometry(**base)


def tm_geom(**kw):
    base = dict(eps1=1.5, d=50e-6, theta_i=math.radians(64.0), polarization="TM")
    base.update(kw)
    return PrismGeometry(**base)


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
            sol = atr_solve(geom, params, 2.0 * math.pi * f)
            scale = abs(sol.k_z_prism)
            assert np.abs(boundary_residuals(sol)).max() / scale < 1e-12

    def test_lossless_evanescent_total_reflection(self):
        # sigma' = 0 and evanescent gap: |r| = 1 exactly
        geom = tm_geom()
        sol = atr_solve_sigma(geom, 1j * 8.8e-3, 2.0 * math.pi * 0.81e12)
        assert sol.reflectance == pytest.approx(1.0, abs=1e-10)

    def test_decoupled_large_gap(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        sol = atr_solve(tm_geom(d=5e-3), params, 2.0 * math.pi * 0.81e12)
        assert sol.reflectance == pytest.approx(1.0, abs=1e-6)

    def test_lossy_reflectance_below_one(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        sol = atr_solve(tm_geom(), params, 2.0 * math.pi * 0.81e12)
        assert sol.reflectance < 1.0


class TestReflectanceMap:
    def test_values_in_unit_interval_and_dip(self):
        # TM map around the Fig-6(b) parameter set shows a coupling locus
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        thetas = np.radians(np.linspace(56.0, 75.0, 9))
        omegas = 2.0 * math.pi * np.linspace(0.3e12, 1.5e12, 9)
        grid = reflectance_map(thetas, omegas, eps1=1.5, d=200e-6,
                               polarization="TM", params=params)
        assert grid.shape == (9, 9)
        assert np.all(grid >= 0.0) and np.all(grid <= 1.0 + 1e-12)
        assert grid.min() < 0.5

    def test_grid_point_equals_direct_call(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        theta, omega = math.radians(64.0), 2.0 * math.pi * 0.81e12
        grid = reflectance_map([theta], [omega], eps1=1.5, d=200e-6,
                               polarization="TM", params=params)
        direct = atr_solve(tm_geom(d=200e-6), params, omega).reflectance
        assert grid[0, 0] == direct


class TestMatchingFrequency:
    def test_te_resonance_near_interband_edge(self):
        params = GrapheneParams.with_default_rates(1.24, 0.0)
        geom = te_geom()
        w0 = matching_frequency(geom, params, 2.0 * math.pi * 520e12,
                                2.0 * math.pi * 680e12, [geom.d])[0]
        hw = K.hbar * w0 / K.e
        assert abs(hw - 2.48) / 2.48 < 0.05

    def test_below_critical_angle_not_resonant(self):
        params = GrapheneParams.with_default_rates(1.24, 0.0)
        geom = te_geom(theta_i=math.radians(40.0))
        with pytest.raises(NotResonant):
            matching_frequency(geom, params, 2.0 * math.pi * 520e12,
                               2.0 * math.pi * 680e12, [geom.d])

    def test_no_dip_in_window(self):
        params = GrapheneParams.with_default_rates(1.24, 0.0)
        with pytest.raises(NotResonant):
            matching_frequency(te_geom(), params, 2.0 * math.pi * 100e12,
                               2.0 * math.pi * 150e12, [1e-3])

    def test_lossless_root_agrees_with_lossy_dip(self):
        # reduce the intraband damping: the reflectance dip approaches the
        # reactive momentum-matching root (weak prism loading at large d)
        params = GrapheneParams(mu_c=0.5, temperature=300.0,
                                gamma_intra=(1.0 / 0.35e-12) / 100.0,
                                gamma_inter=1.0 / 0.0658e-12)
        geom = tm_geom(d=350e-6)
        lo, hi = 2.0 * math.pi * 0.3e12, 2.0 * math.pi * 1.5e12
        w_root = lossless_matching_frequency(geom, params, lo, hi)
        w_dip = matching_frequency(geom, params, lo, hi, [geom.d], n_scan=900)[0]
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
        grid = reflectance_map(thetas, omegas, eps1=eps1, d=d, polarization=pol,
                               params=params)
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
        refl = np.array([atr_solve(geom, params, float(w)).reflectance for w in omegas])
        i = int(np.argmin(refl))
        assert 0 < i < n_scan - 1
        ref = matching_frequency_oracle(geom, params, lo, hi, n_scan)
        got = matching_frequency(geom, params, lo, hi, [geom.d], n_scan=n_scan)[0]
        assert got == ref

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * complex
    @pytest.mark.parametrize("bad", [2e12, math.inf, math.nan])
    def test_one_ill_conditioned_point_raises(self, monkeypatch, atr_systems, bad):
        # one genuinely bad system per batch, from the sigma of one frequency
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        thetas = np.radians(np.linspace(56.0, 75.0, 5))
        omegas = 2.0 * math.pi * np.linspace(0.3e12, 1.5e12, 4)
        match = r"condition number (1\.[89]|2\.[01])\d*e\+12" if bad == 2e12 else "condition number"
        map_geom = tm_geom(d=200e-6, theta_i=float(thetas[2]))
        monkeypatch.setattr(gspp.prism, "_sigmas", sigmas_with_one_bad(map_geom, bad, atr_systems))
        with pytest.raises(ArithmeticError, match=match):
            reflectance_map(thetas, omegas, eps1=1.5, d=200e-6, polarization="TM",
                            params=params)
        monkeypatch.setattr(gspp.prism, "_sigmas", sigmas_with_one_bad(tm_geom(), bad, atr_systems))
        with pytest.raises(ArithmeticError, match=match):
            matching_frequency(tm_geom(), params, omegas[0], omegas[-1], [50e-6], n_scan=50)
        sigma = bad_sigma(tm_geom(), omegas[0], bad, atr_systems)
        with pytest.raises(ArithmeticError, match=match):
            atr_solve_sigma(tm_geom(), sigma, omegas[0])

    def test_d_array_matches_one_d_at_a_time(self):
        params = GrapheneParams.with_default_rates(1.24, 0.0)
        geom = te_geom()
        omegas = 2.0 * math.pi * np.linspace(590.5e12, 591.1e12, 900)
        sigmas = np.array([conductivity(params, float(w)).value for w in omegas])
        ds = np.linspace(15e-6, 40e-6, 26)
        batch = _atr_amplitudes(geom.eps1, ds[:, None], "TE", geom.theta_i, sigmas, omegas)
        assert batch[0].shape == (26, 900, 4)
        for i, d in enumerate(ds):
            one = _atr_amplitudes(geom.eps1, float(d), "TE", geom.theta_i, sigmas, omegas)
            np.testing.assert_array_equal(batch[0][i], one[0])
            for got, ref in zip(batch[1:], one[1:]):
                np.testing.assert_array_equal(got, ref)


def pole_sigma(geom, omega, kappa, systems):
    """A sheet conductivity next to the pole of geom's boundary system at
    omega, where np.linalg.cond reads kappa to within 10%.  sigma enters one
    matrix entry, and the Cramer numerator of t does not hold it, so 1/t is
    affine in sigma and two solves place the pole; near it the condition
    number grows as 1/|sigma - pole|.  systems is the atr_systems record."""
    t0, t1 = (atr_solve_sigma(geom, s, omega).t for s in (0.0, 1e-3))
    pole = 1e-3 * (1.0 / t0) / (1.0 / t0 - 1.0 / t1)

    def cond_at(sigma):
        with contextlib.suppress(ArithmeticError):
            atr_solve_sigma(geom, sigma, omega)
        return float(np.linalg.cond(systems[-1][0]))

    step = 1e-9 * abs(pole)
    sigma = pole + step * cond_at(pole + step) / kappa
    assert abs(cond_at(sigma) / kappa - 1.0) < 0.1
    return sigma


def bad_sigma(geom, omega, bad, systems):
    """bad itself when it is nan or inf; else a conductivity at the pole of
    geom's system at omega, with condition number bad."""
    return pole_sigma(geom, omega, bad, systems) if math.isfinite(bad) else complex(bad)


def sigmas_with_one_bad(geom, bad, systems):
    """A prism._sigmas that puts bad_sigma at the middle frequency."""

    def sigmas(params, omegas):
        out = SIGMAS(params, omegas)
        i = len(out) // 2
        out[i] = bad_sigma(geom, float(omegas[i]), bad, systems)
        return out

    return sigmas


class TestConditionScreen:
    """_solve_screened runs np.linalg.cond only on the systems its Frobenius
    bound does not clear.  It must reject exactly the systems the full-SVD
    guard rejects, name the same first offender, and return
    np.linalg.solve's bits."""

    @staticmethod
    def outcome(solve, mat, rhs):
        try:
            return solve(mat, rhs)
        except ArithmeticError as err:
            return str(err)

    def assert_same(self, mat, rhs):
        """Both guards on one stack; returns the oracle's solutions or its
        error message."""
        got, ref = (self.outcome(solve, mat, rhs) for solve in (_solve_screened, atr_guard_oracle))
        assert type(got) is type(ref)
        if isinstance(ref, str):
            assert got == ref
        else:
            np.testing.assert_array_equal(got, ref)
        return ref

    def test_figure_systems(self, atr_systems, tmp_path):
        for name in ("fig6a", "fig6b", "fig6c", "fig4b-te"):
            cfg = str(CONFIG_DIR / f"{name}.cfg")
            argv = load_config(cfg)["command"].split()
            assert main(argv + ["--config", cfg, "--out", str(tmp_path / f"{name}.csv")]) == 0
        worst = max(float(np.max(np.linalg.cond(mat))) for mat, _ in atr_systems)
        assert len(atr_systems) > 50 and 1e11 < worst < 1e12  # near the limit, all accepted
        for mat, rhs in atr_systems:
            assert not isinstance(self.assert_same(mat, rhs), str)

    def test_synthetic_systems_near_the_limit(self):
        # U diag(s) V with unitary U, V and s from 1 down to 1/kappa, kappa
        # log-uniform in [1e11, 1e13], at scales from 1e-6 to 1e8
        rng = np.random.default_rng(8)
        n = 400
        kappa = 10.0 ** rng.uniform(11.0, 13.0, n)

        def unitary():
            z = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
            return np.linalg.qr(z)[0]

        s = np.ones((n, 4))
        s[:, 1:3] = np.sort(kappa[:, None] ** -rng.uniform(0.0, 1.0, (n, 2)), axis=1)[:, ::-1]
        s[:, 3] = 1.0 / kappa
        mat = unitary() @ (s[..., None] * unitary()) * 10.0 ** rng.uniform(-6.0, 8.0, (n, 1, 1))
        rhs = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        refs = [self.assert_same(mat[i], rhs[i]) for i in range(n)]
        rejected = np.array([isinstance(r, str) for r in refs])
        assert 0.3 * n < rejected.sum() < 0.7 * n
        assert isinstance(self.assert_same(mat, rhs), str)  # the same first offender
        assert not isinstance(self.assert_same(mat[~rejected], rhs[~rejected]), str)

    def test_exactly_singular_system(self):
        mat = np.tile(np.eye(4, dtype=complex), (3, 1, 1))
        mat[1, 2] = 0.0
        rhs = np.ones((3, 4), dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(mat, rhs[..., None])
        assert "condition number inf" in self.assert_same(mat, rhs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_system_raises(self, bad):
        # on the nan entry np.linalg.cond raises LinAlgError: the SVD does not converge
        mat = np.tile(np.eye(4, dtype=complex), (3, 1, 1))
        mat[1, 3, 3] = bad
        with pytest.raises(ArithmeticError, match="condition number"):
            _solve_screened(mat, np.ones((3, 4), dtype=complex))


def fig4b_te_window():
    """(geometry, params, omega_lo, omega_hi, n_scan) of the fig4b-te dip search."""
    cfg = load_config(str(CONFIG_DIR / "fig4b-te.cfg"))
    params = GrapheneParams.with_default_rates(float(cfg["mu_c_ev"]),
                                               float(cfg["temperature_k"]))
    geom = PrismGeometry(eps1=float(cfg["eps1"]), d=1e-9,
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
        got = matching_frequency(geom, params, lo, hi, ds, n_scan=n_scan)
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
            matching_frequency(geom, params, lo, hi, [5e-6, 60e-6], n_scan=n_scan)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * complex
    def test_ill_conditioned_refinement_lane_raises(self, monkeypatch, atr_systems):
        # the scans are sound; one system of the first refinement batch is not
        geom, params, lo, hi, n_scan = fig4b_te_window()
        d = 25e-6
        for bad in (2e12, math.inf, math.nan):
            bad_one = sigmas_with_one_bad(replace(geom, d=d), bad, atr_systems)
            monkeypatch.setattr(gspp.prism, "_sigmas", lambda p, omegas, bad_one=bad_one: (
                SIGMAS(p, omegas) if len(omegas) == n_scan else bad_one(p, omegas)))
            with pytest.raises(ArithmeticError, match="condition number"):
                matching_frequency(geom, params, lo, hi, [d], n_scan=n_scan)
        monkeypatch.setattr(gspp.prism, "_sigmas", SIGMAS)
        assert lo < matching_frequency(geom, params, lo, hi, [d], n_scan=n_scan)[0] < hi

    def test_bad_bracket_raises_like_scipy(self):
        from scipy.optimize import minimize_scalar
        geom, params, lo, hi, n_scan = fig4b_te_window()
        d = 25e-6
        dip = matching_frequency_oracle(replace(geom, d=d), params, lo, hi, n_scan)
        step = (hi - lo) / (n_scan - 1)
        for bracket in ((dip + step, dip + 2.0 * step, dip + 3.0 * step),
                        (dip - step, dip + step, dip)):
            with pytest.raises(ValueError):
                minimize_scalar(lambda w: atr_solve(replace(geom, d=d), params, float(w)).reflectance,
                                bracket=bracket, method="golden", options={"xtol": 1e-10})
            with pytest.raises(ValueError, match="Bracketing values"):
                _golden_dips(geom, params, np.array([d]), np.array([bracket]))

    def test_matched_sweep_evaluates_beta_at_each_dip(self):
        geom, params, lo, hi, n_scan = fig4b_te_window()
        ds = np.array([10e-6, 20e-6, 30e-6])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            betas, dips = beta_sweep_matched(geom, params, lo, hi, ds, n_scan=n_scan)
            assert betas[0] == 0.0 and math.isnan(dips[0])
            for d, w, beta in zip(ds[1:], dips[1:].tolist(), betas[1:]):
                assert beta == overlap_beta(replace(geom, d=float(d)), params, w)


class TestOverlapBeta:
    def test_tm_sweep_peaks_above_07(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        omega = 2.0 * math.pi * 0.81e12
        ds = np.linspace(10e-6, 150e-6, 15)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            betas = beta_sweep(tm_geom(), params, omega, ds)
        assert np.abs(betas).max() > 0.7

    def test_te_matched_sweep_peaks_above_07(self):
        params = GrapheneParams.with_default_rates(1.24, 0.0)
        geom = te_geom()
        w_root = lossless_matching_frequency(geom, params, 2.0 * math.pi * 575e12,
                                             2.0 * math.pi * 599e12)
        ds = np.linspace(18e-6, 32e-6, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            betas, dips = beta_sweep_matched(
                geom, params, w_root - 2.0 * math.pi * 0.02e12,
                w_root + 2.0 * math.pi * 0.35e12, ds, n_scan=900)
        assert np.abs(betas).max() > 0.7

    def test_total_reflection_gives_zero(self):
        # (nearly) lossless graphene: |r| ~ 1 so the prefactor kills beta
        params = GrapheneParams(mu_c=0.5, temperature=0.0, gamma_intra=10.0,
                                gamma_inter=10.0, conductivity_model="low")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            beta = overlap_beta(tm_geom(), params, 2.0 * math.pi * 10e12)
        assert abs(beta) < 1e-3

    def test_below_critical_angle_raises(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        with pytest.raises(NotResonant):
            overlap_beta(tm_geom(theta_i=math.radians(40.0)), params,
                         2.0 * math.pi * 0.81e12)

    def test_wrong_polarization_raises(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        with pytest.raises(ValueError):
            overlap_beta(te_geom(theta_i=math.radians(60.0)), params,
                         2.0 * math.pi * 0.81e12)

    def test_cauchy_schwarz_bound(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        omega = 2.0 * math.pi * 0.81e12
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            for d in (20e-6, 60e-6, 120e-6):
                geom = tm_geom(d=d)
                sol = atr_solve(geom, params, omega)
                beta = overlap_beta(geom, params, omega)
                assert abs(beta) <= math.sqrt(max(0.0, 1.0 - sol.reflectance)) + 1e-9

    def test_sweep_equals_overlap_beta_per_spacing(self):
        # the fig4b-tm sweep: one conductivity, 22 warnings, each at the caller
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        omega = 2.0 * math.pi * 0.81e12
        ds = np.linspace(5e-6, 200e-6, 40)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            betas = beta_sweep(tm_geom(), params, omega, ds)
        assert sum(issubclass(w.category, ValidityWarning) for w in caught) == 22
        assert {w.filename for w in caught} == {__file__}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ref = [overlap_beta(tm_geom(d=float(d)), params, omega) for d in ds]
        assert len(caught) == 22 and {w.filename for w in caught} == {__file__}
        np.testing.assert_array_equal(betas, ref)

    def test_background_permittivity_guard(self):
        params = GrapheneParams(mu_c=0.5, temperature=300.0, gamma_intra=1e12,
                                gamma_inter=1e13, eps_r=2.0)
        with pytest.raises(ValueError):
            atr_solve(tm_geom(), params, 2.0 * math.pi * 0.81e12)


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
    geom = PrismGeometry(eps1=float(cfg["eps1"]), d=1e-9,
                         theta_i=math.radians(float(cfg["theta_deg"])), polarization=cfg["pol"])
    ds = np.linspace(float(cfg["d_min_um"]), float(cfg["d_max_um"]), int(cfg["d_points"])) * 1e-6
    if "match_fmin_thz" in cfg:
        lo, hi = (2.0 * math.pi * float(cfg[k]) * 1e12 for k in ("match_fmin_thz", "match_fmax_thz"))
        omegas = matching_frequency(geom, params, lo, hi, ds,
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
            omega = matching_frequency(geom, params, omega, 2.0 * math.pi * f_hi, [geom.d],
                                       n_scan=900)[0]
        sol = atr_solve(geom, params, omega)
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
        refl = atr_solve(geom, params, omega).reflectance
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
