import math

import numpy as np
import pytest

import gspp.material
from conftest import group_velocity_fd_oracle
from gspp.cli import frequency_grid, main
from gspp.material import CONSTANTS, Conductivity, GrapheneParams, QuadratureError, conductivity
from gspp.dispersion import (
    SppMode,
    UnsupportedModeError,
    effective_wavelength,
    group_velocity,
    propagation_length,
    solve_mode,
    supported_polarization,
    transverse_q0,
    wavenumber,
)

C0 = CONSTANTS.c0


def omega_from_lambda(lam0: float) -> float:
    return 2.0 * math.pi * C0 / lam0


class TestWavenumbers:
    def test_sigma_zero_raises(self):
        for pol in ("TM", "TE"):
            with pytest.raises(ValueError, match="sigma = 0"):
                wavenumber(pol, Conductivity(0.0, 1.0), 1.0)
        with pytest.raises(ValueError, match="polarization"):
            wavenumber("TEM", Conductivity(1e-5 + 2e-5j, 1.0), 1.0)

    def test_te_free_photon_limit(self):
        # vanishing (capacitive) conductivity: TE wavenumber -> k0 sqrt(eps_r)
        for eps_r in (1.0, 2.25):
            # omega = c0 makes k0 = 1, so k is kappa
            kappa = wavenumber("TE", Conductivity(1e-12 - 1e-12j, C0), eps_r)
            assert kappa.real == pytest.approx(math.sqrt(eps_r), rel=1e-12)
            assert kappa.imag >= 0.0

    @pytest.mark.parametrize("mu_c,temp,lam_nm,pol,expect_nm", [
        (1.4, 300.0, 1550.0, "TM", 36.42),
        (1.4, 300.0, 810.0, "TM", 7.23),
        (0.4, 0.0, 1550.0, "TE", 1549.77),
        (0.4, 0.0, 810.0, "TE", 810.053),
    ])
    def test_effective_wavelengths(self, mu_c, temp, lam_nm, pol, expect_nm):
        params = GrapheneParams.with_default_rates(mu_c, temp)
        mode = solve_mode(params, conductivity(params, omega_from_lambda(lam_nm * 1e-9)), pol)
        assert mode.supported
        lam_eff = effective_wavelength(mode) * 1e9
        assert lam_eff == pytest.approx(expect_nm, rel=0.01)

    def test_dispersion_residual(self):
        # returned k satisfies the dispersion relation identically
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        for f in (1e12, 10e12, 300e12):
            omega = 2.0 * math.pi * f
            sig = conductivity(params, omega)
            eta = math.sqrt(CONSTANTS.mu0 / (CONSTANTS.eps0 * params.eps_r))
            k0 = omega / C0
            k_tm = wavenumber("TM", sig, params.eps_r)
            lhs = (k_tm / k0) ** 2
            rhs = params.eps_r * (1.0 - (2.0 / (sig.value * eta)) ** 2)
            assert abs(lhs - rhs) / abs(rhs) < 1e-10
            k_te = wavenumber("TE", sig, params.eps_r)
            rhs_te = params.eps_r * (1.0 - (sig.value * eta / 2.0) ** 2)
            assert abs((k_te / k0) ** 2 - rhs_te) / abs(rhs_te) < 1e-10

    def test_forward_branch(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        for f in (1e12, 50e12, 500e12):
            omega = 2.0 * math.pi * f
            sig = conductivity(params, omega)
            assert wavenumber("TM", sig, params.eps_r).imag >= 0.0
            assert wavenumber("TE", sig, params.eps_r).imag >= 0.0


class TestPolarizationSelection:
    def test_sign_rule(self):
        assert supported_polarization(Conductivity(1e-5 + 2e-5j, 1.0)) == "TM"
        assert supported_polarization(Conductivity(1e-5 - 2e-5j, 1.0)) == "TE"
        assert supported_polarization(Conductivity(1e-5 + 0.0j, 1.0)) is None

    def test_mutual_exclusivity_across_discontinuity(self):
        # exactly one proper polarization on either side of the sigma'' flip
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        for hw_ev in (0.2, 0.5, 0.9, 1.2, 1.6, 2.5):
            omega = hw_ev * CONSTANTS.e / CONSTANTS.hbar
            sig = conductivity(params, omega)
            q_tm = transverse_q0("TM", sig, 1.0)
            q_te = transverse_q0("TE", sig, 1.0)
            assert (q_tm.real > 0.0) != (q_te.real > 0.0)
            pol = supported_polarization(sig)
            proper = q_tm if pol == "TM" else q_te
            assert proper.real > 0.0

    def test_tuning_with_chemical_potential(self):
        # the TM/TE transition frequency rises with mu_c
        def crossing(mu_c):
            params = GrapheneParams.with_default_rates(mu_c, 300.0)
            hws = np.linspace(0.3, 3.0, 400)
            signs = np.array([conductivity(params, h * CONSTANTS.e / CONSTANTS.hbar).imag
                              for h in hws])
            return hws[np.argmax(signs < 0)]

        assert crossing(0.8) > crossing(0.4)


class TestTransverseDecay:
    def test_lossless_tm_real_positive(self):
        sig = Conductivity(0.0 + 5e-5j, 2.0 * math.pi * 10e12)
        q0 = transverse_q0("TM", sig, 1.0)
        assert q0.imag == pytest.approx(0.0, abs=1e-20)
        assert q0.real > 0.0

    def test_confinement_regime(self):
        # lossy TM in the operating band: Re(q0) >> Im(q0)
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        omega = 2.0 * math.pi * 10e12
        sig = conductivity(params, omega)
        q0 = transverse_q0("TM", sig, 1.0)
        assert q0.real > 10.0 * abs(q0.imag)

    def test_q0_consistency_with_k(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        for f, pol in ((5e12, "TM"), (700e12, "TE")):
            omega = 2.0 * math.pi * f
            sig = conductivity(params, omega)
            k = wavenumber(pol, sig, params.eps_r)
            q0 = transverse_q0(pol, sig, 1.0)
            rhs = k**2 - params.eps_r * (omega / C0) ** 2
            assert abs(q0**2 - rhs) / abs(rhs) < 1e-10


TE_FREE_PARAMS = GrapheneParams(mu_c=1e-6, temperature=0.0, gamma_intra=1e9,
                                gamma_inter=1e10, eps_r=2.0)


class TestGroupVelocity:
    def test_te_free_limit(self):
        # nearly transparent sheet: v_g -> c0/sqrt(eps_r)
        params = TE_FREE_PARAMS
        sig = conductivity(params, 2.0 * math.pi * 500e12)
        v = group_velocity(params, sig, "TE")
        assert v == pytest.approx(C0 / math.sqrt(2.0), rel=1e-4)

    def test_tm_slow_wave(self):
        params = GrapheneParams.with_default_rates(1.4, 300.0)
        v = group_velocity(params, conductivity(params, omega_from_lambda(1550e-9)), "TM")
        assert 0.0 < v < 0.05 * C0

    def test_matches_fd_oracle(self):
        # every supported row of the fig2b grid, the 1550 nm TM mode and the
        # T = 0 transparent-sheet TE mode: the analytic slope agrees with the
        # Richardson stencil, and both return nan on the same rows
        fig2b = GrapheneParams.with_default_rates(0.5, 300.0)
        cases = [(fig2b, conductivity(fig2b, 2.0 * math.pi * f))
                 for f in frequency_grid(0.1, 1000.0, 400, True)]
        mu14 = GrapheneParams.with_default_rates(1.4, 300.0)
        cases.append((mu14, conductivity(mu14, omega_from_lambda(1550e-9))))
        cases.append((TE_FREE_PARAMS, conductivity(TE_FREE_PARAMS, 2.0 * math.pi * 500e12)))
        n_nan = 0
        for params, sig in cases:
            pol = supported_polarization(sig)
            got = group_velocity(params, sig, pol)
            want = group_velocity_fd_oracle(params, sig, pol)
            assert math.isnan(got) == math.isnan(want), sig.omega
            if math.isnan(want):
                n_nan += 1
            else:
                assert abs(got - want) <= 1e-9 * want, sig.omega
        assert 0 < n_nan < len(cases) - 2

    def test_slope_quadrature_error_propagates(self, monkeypatch, tmp_path):
        # a slope integral whose error estimate is over tolerance raises
        # through group_velocity and solve_mode, and `gspp dispersion` exits
        # 3 without writing its table.  The 12-point weights, scaled by 1.5,
        # put the panel rule's estimate near half of its value; sigma never
        # uses the rule.
        nodes, weights = gspp.material._panel_rule()
        monkeypatch.setattr(gspp.material, "_panel_rule", lambda: (nodes, weights * [1.0, 1.5]))
        params = GrapheneParams.with_default_rates(1.4, 300.0)
        omega = omega_from_lambda(1550e-9)
        sig = conductivity(params, omega)
        with pytest.raises(QuadratureError, match="slope") as exc:
            group_velocity(params, sig, "TM")
        assert exc.value.error_estimate > 0.0
        assert exc.value.frequency_hz == pytest.approx(omega / (2.0 * math.pi), rel=1e-15)
        assert f"at {omega / (2.0 * math.pi):.9g} Hz" in str(exc.value)
        with pytest.raises(QuadratureError):
            solve_mode(params, sig, "TM")
        # a sweep names its first frequency that failed, in sweep order
        for scale in ([1.0, 1.01], [1.01, 1.0]):
            sweep = conductivity(params, omega * np.array(scale))
            with pytest.raises(QuadratureError) as exc:
                solve_mode(params, sweep, "TM")
            assert exc.value.frequency_hz == pytest.approx(omega * scale[0] / (2.0 * math.pi),
                                                           rel=1e-15)
        out = tmp_path / "d.csv"
        rc = main(["dispersion", "--fmin-thz", "10", "--fmax-thz", "10", "--points", "1",
                   "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        assert not tmp_path.joinpath("d.csv.manifest").exists()


class TestDerivedQuantities:
    def test_propagation_length(self):
        mode = SppMode(polarization="TM", omega=1e13, k=1e6 + 1e4j, q0=1e6 + 0j,
                       v_g=1e6, supported=True, eps_r=1.0)
        assert propagation_length(mode) == pytest.approx(1.0 / 2e4)
        lossless = SppMode(polarization="TM", omega=1e13, k=1e6 + 0j, q0=1e6 + 0j,
                           v_g=1e6, supported=True, eps_r=1.0)
        assert math.isinf(propagation_length(lossless))
        # doubling kappa'' halves the length
        double = SppMode(polarization="TM", omega=1e13, k=1e6 + 2e4j, q0=1e6 + 0j,
                         v_g=1e6, supported=True, eps_r=1.0)
        assert propagation_length(double) == pytest.approx(propagation_length(mode) / 2.0)

    def test_lossless_limit_kappa_real(self):
        # scattering rates -> 0 give a purely real kappa below the edge
        params = GrapheneParams(mu_c=0.5, temperature=0.0, gamma_intra=1.0,
                                gamma_inter=1.0)
        omega = 2.0 * math.pi * 10e12
        k = wavenumber("TM", conductivity(params, omega), params.eps_r)
        assert abs(k.imag) < 1e-10 * abs(k.real)

    def test_solve_mode_unsupported_flag(self):
        params = GrapheneParams.with_default_rates(0.5, 300.0)
        omega = 2.0 * math.pi * 10e12  # TM regime
        mode_te = solve_mode(params, conductivity(params, omega), "TE")
        assert not mode_te.supported
        assert mode_te.q0.real < 0.0 or not mode_te.q0.real > 0.0

    def test_fig5_tm_slow_wave_ratio(self):
        # lambda_eff/lambda_0 ~ 0.0235 implies a strongly slowed mode
        params = GrapheneParams.with_default_rates(1.4, 300.0)
        omega = omega_from_lambda(1550e-9)
        mode = solve_mode(params, conductivity(params, omega), "TM")
        ratio = effective_wavelength(mode) / 1550e-9
        assert ratio == pytest.approx(0.0235, rel=0.02)
        assert mode.v_g < 0.05 * C0

    def test_solve_mode_conductivity_calls(self, full_calls):
        # one conductivity per mode; the group velocity adds none
        params = GrapheneParams.with_default_rates(1.4, 300.0)
        mode = solve_mode(params, conductivity(params, omega_from_lambda(1550e-9)), "TM")
        assert mode.supported and mode.v_g > 0.0
        assert len(full_calls) == 1
