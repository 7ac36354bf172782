import math

import numpy as np
import pytest

from conftest import integrate_graded, spp_energy_density, tm_parallel_oracle
from gspp.material import CONSTANTS, GrapheneParams, conductivity
from gspp.dispersion import solve_mode
import gspp.quantize
from gspp.quantize import (
    Waves,
    _lossless_mode,
    mode_function,
    mode_normalization,
    vector_potential_amplitude,
    wave_integral,
)

K = CONSTANTS


def tm_setup():
    params = GrapheneParams.with_default_rates(1.4, 300.0)
    omega = 2.0 * math.pi * K.c0 / 1550e-9
    return params, solve_mode(params, conductivity(params, omega), "TM")


def te_setup():
    params = GrapheneParams.with_default_rates(0.4, 0.0)
    omega = 2.0 * math.pi * K.c0 / 1550e-9
    return params, solve_mode(params, conductivity(params, omega), "TE")


def analytic_n_te(omega, sigma_pp, eps_r):
    q0 = K.mu0 * omega * abs(sigma_pp) / 2.0
    return eps_r / q0 + 2.0 * K.c0**2 * q0 / omega**2


def analytic_n_tm(omega, sigma_pp, eps_r):
    q0 = 2.0 * omega * K.eps0 * eps_r / sigma_pp
    k_sq = q0**2 + eps_r * (omega / K.c0) ** 2
    denom = 2.0 * q0 + sigma_pp * K.mu0 * omega
    p_sq = 4.0 * k_sq / denom**2
    eta0 = math.sqrt(K.mu0 / K.eps0)
    bulk = 0.5 * (eps_r * (1.0 + p_sq) / q0
                  + eta0**2 * sigma_pp**2 * k_sq / (denom**2 * q0))
    return bulk + sigma_pp / (2.0 * K.eps0 * omega) * p_sq


class TestModeFunction:
    def test_te_at_interface(self):
        _, mode = te_setup()
        vec = mode_function(mode, 0.0)
        assert vec[1] == pytest.approx(1.0)
        assert vec[0] == 0.0 and vec[2] == 0.0

    def test_tm_z_component_odd(self):
        _, mode = tm_setup()
        above = mode_function(mode, 1e-9)
        below = mode_function(mode, -1e-9)
        assert above[2] == pytest.approx(-below[2], rel=1e-9)
        assert above[0] == pytest.approx(below[0], rel=1e-9)

    def test_decay_ratio(self):
        _, mode = tm_setup()
        q0 = mode.q0.real
        v1 = mode_function(mode, 1.0 / q0)
        v2 = mode_function(mode, 2.0 / q0)
        assert abs(v2[0] / v1[0]) == pytest.approx(math.exp(-1.0), rel=1e-6)

    def test_tm_parallel_amplitude_identity(self):
        # boundary conditions collapse 2ki/(2q0 - i sigma mu0 w) to i q0/k,
        # the x amplitude -P of the profile at the sheet
        params, mode = tm_setup()
        sig = conductivity(params, mode.omega)
        direct = 2j * mode.k / (2.0 * mode.q0 - 1j * sig.value * K.mu0 * mode.omega)
        assert -mode_function(mode, 0.0)[0] == pytest.approx(direct, rel=1e-10)


class TestNormalization:
    def test_te_numeric_vs_analytic(self):
        params, mode = te_setup()
        sig = conductivity(params, mode.omega)
        numeric = mode_normalization(mode, params)
        analytic = analytic_n_te(mode.omega, sig.imag, params.eps_r)
        assert numeric == pytest.approx(analytic, rel=1e-13, abs=0.0)

    def test_tm_numeric_vs_analytic(self):
        params, mode = tm_setup()
        sig = conductivity(params, mode.omega)
        numeric = mode_normalization(mode, params)
        analytic = analytic_n_tm(mode.omega, sig.imag, params.eps_r)
        assert numeric == pytest.approx(analytic, rel=1e-13, abs=0.0)

    def test_positive(self):
        params, mode = tm_setup()
        assert mode_normalization(mode, params) > 0.0

    def test_te_field_integral_enters(self):
        # lossless TE: the |phi|^2 integral contributes eps_r/q0 to N
        params, mode = te_setup()
        sig = conductivity(params, mode.omega)
        ll = _lossless_mode("TE", mode.omega, sig.imag, params.eps_r)
        q0 = ll.q0.real
        integral = 2.0 * integrate_graded(
            lambda z: np.exp(-2.0 * q0 * z), 40.0 / q0, 2.0 * q0, 2049).real
        assert integral == pytest.approx(1.0 / q0, rel=1e-10)

    def test_unsupported_raises(self):
        params, mode = tm_setup()
        from gspp.dispersion import UnsupportedModeError
        te_mode = solve_mode(params, conductivity(params, mode.omega), "TE")
        assert not te_mode.supported
        with pytest.raises(UnsupportedModeError):
            mode_normalization(te_mode, params)

    def test_hamiltonian_identity(self):
        # integrated mode energy equals eps0 L^2 w^2 N (C C* + C* C) with
        # the computed N: re-derive N from the raw density integral plus
        # sheet term and compare against mode_normalization
        for setup, pol in ((te_setup, "TE"), (tm_setup, "TM")):
            params, mode = setup()
            sig = conductivity(params, mode.omega)
            ll = _lossless_mode(pol, mode.omega, sig.imag, params.eps_r)
            q0 = ll.q0.real
            density = spp_energy_density(pol, ll, params.eps_r)
            bulk = 2.0 * integrate_graded(density, 40.0 / q0, 2.0 * q0, 4097).real
            phi_par0 = 1.0 if pol == "TE" else abs(tm_parallel_oracle(ll)) ** 2
            sheet = abs(sig.imag) / (2.0 * K.eps0 * mode.omega) * phi_par0
            n_direct = 0.5 * bulk + sheet
            n_module = mode_normalization(mode, params)
            assert n_module == pytest.approx(n_direct, rel=1e-12, abs=0.0)

    def test_cross_terms_cancel(self):
        # +k/-k cross contributions to the energy integral vanish; the
        # sheet term enters the e^{-2iwt} sector with the electric-energy
        # sign for TE and the kinetic sign for TM
        for setup, pol in ((te_setup, "TE"), (tm_setup, "TM")):
            params, mode = setup()
            sig = conductivity(params, mode.omega)
            ll = _lossless_mode(pol, mode.omega, sig.imag, params.eps_r)
            q0, kx, w = ll.q0.real, ll.k.real, ll.omega
            c2w2 = (K.c0 / w) ** 2
            eps_r = params.eps_r
            if pol == "TE":
                electric = -eps_r / q0
                magnetic = c2w2 * (q0 + kx**2 / q0)
                sheet = -abs(sig.imag) / (K.eps0 * w)
            else:
                p_amp = tm_parallel_oracle(ll)
                electric = -eps_r * (1.0 - p_amp**2) / q0
                magnetic = -c2w2 * (q0 * p_amp - 1j * kx) ** 2 / q0
                sheet = sig.imag / (K.eps0 * w) * (-(p_amp**2))
            total = electric + magnetic + sheet
            scale = abs(electric) + abs(magnetic) + abs(sheet)
            assert abs(total) / scale < 1e-8


class TestWaveIntegral:
    """Closed-form integrals of exponential sums against scipy quad."""

    A = Waves(0.7, np.array([[1.0, 2j, -0.5], [0.3, 0.0, 1.0 + 1j], [0.0, 1.0, 0.2j]]),
              np.array([-2.0 + 3.0j, 1.5 - 1.0j, 0.5j]), np.array([0.0, 1.5, 0.0]))
    B = Waves(0.7, np.array([[0.5j, 1.0, 0.0], [2.0, -1.0, 1j]]),
              np.array([0.5j, -1.0 + 2.0j]), np.array([0.0, 0.0]))

    @staticmethod
    def quad_integral(a, b, lo, hi):
        from scipy.integrate import quad

        def f(z, part):
            val = np.sum(a.at(z) * np.conj(b.at(z)))
            return val.real if part == 0 else val.imag

        return complex(*(quad(f, lo, hi, args=(part,), epsabs=1e-13, epsrel=1e-12,
                              limit=200)[0] for part in (0, 1)))

    def test_finite_span_matches_quad(self):
        # waves referenced at either end, and a pair with zero total rate
        got = wave_integral(self.A, self.B, 0.0, 1.5)
        assert got == pytest.approx(self.quad_integral(self.A, self.B, 0.0, 1.5), rel=1e-10)

    def test_half_lines_match_quad(self):
        below = Waves(0.7, self.A.amps, np.array([2.0 + 3.0j, 0.5 - 1.0j, 4.0]), np.zeros(3))
        above = Waves(0.7, self.B.amps, np.array([-1.0 + 1.0j, -3.0]), np.zeros(2))
        assert wave_integral(below, below, -math.inf, 0.0) == pytest.approx(
            self.quad_integral(below, below, -40.0, 0.0), rel=1e-10)
        assert wave_integral(above, above, 0.0, math.inf) == pytest.approx(
            self.quad_integral(above, above, 0.0, 40.0), rel=1e-10)

    def test_non_decaying_half_line_raises(self):
        with pytest.raises(ValueError, match="decay"):
            wave_integral(self.B, self.B, 0.0, math.inf)

    def test_wide_span_does_not_overflow(self):
        # a growing wave referenced at the far end of a 2000-decay-length gap
        grow = Waves(0.0, np.array([[0.0, 1.0, 0.0]]), np.array([1.0]), np.array([2000.0]))
        assert wave_integral(grow, grow, 0.0, 2000.0) == pytest.approx(0.5, rel=1e-15, abs=0.0)


class TestVectorPotentialAmplitude:
    def test_scalings(self, monkeypatch):
        params, mode = tm_setup()
        base = vector_potential_amplitude(mode, params, 1e-6)
        wide = vector_potential_amplitude(mode, params, 2e-6)
        assert wide == pytest.approx(base / math.sqrt(2.0), rel=1e-12)
        n_len = mode_normalization(mode, params)
        monkeypatch.setattr(gspp.quantize, "mode_normalization", lambda m, p: 2.0 * n_len)
        assert vector_potential_amplitude(mode, params, 1e-6) == \
            pytest.approx(base / math.sqrt(2.0), rel=1e-12)

    def test_value_finite_positive(self):
        params, mode = tm_setup()
        amp = vector_potential_amplitude(mode, params, 1e-6)
        assert amp > 0.0 and math.isfinite(amp)

    def test_normalization_from_mode_normalization(self):
        # the amplitude takes N from mode_normalization at the mode's frequency
        params, mode = tm_setup()
        n_len = mode_normalization(mode, params)
        assert vector_potential_amplitude(mode, params, 1e-6) == math.sqrt(
            K.hbar / (2.0 * K.eps0 * 1e-6 * mode.v_g * mode.omega * n_len))

    def test_geometry_validation(self):
        params, mode = tm_setup()
        with pytest.raises(ValueError, match="beam width W must be > 0, got 0.0"):
            vector_potential_amplitude(mode, params, 0.0)
