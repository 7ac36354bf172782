import math

import numpy as np
import pytest

from conftest import (
    coherent_state,
    damp_fock,
    fidelity_vs_distance_oracle,
    projector,
    to_density_matrix,
    trace_distance,
)
from gspp.channel import (
    AMPLITUDE_MATCHED,
    INITIAL,
    fidelity_vs_distance,
    matched_turning_point,
    propagate_mixture,
)
from gspp.coupling import excite_cat, normalize_superposition


class TestFluxDamping:
    def test_zero_distance(self):
        rho = excite_cat(3.0, 0.9)
        f = fidelity_vs_distance(3.0, 0.9, [0.0], 5.0, reference=INITIAL)[0]
        ref = normalize_superposition([1.0, 1.0], [3.0, -3.0])
        assert f == rho.fidelity_pure(ref, [3.0, -3.0])

    def test_one_propagation_length(self):
        # k0 kappa'' x = 1/2 is transmissivity e^{-1}
        alpha, g = 3.0, 0.8
        f = fidelity_vs_distance(alpha, g, [1.0 / (2.0 * 2.0)], 2.0, reference=INITIAL)[0]
        rho = propagate_mixture(excite_cat(alpha, g), math.exp(-1.0))
        ref = normalize_superposition([1.0, 1.0], [alpha, -alpha])
        assert f == pytest.approx(rho.fidelity_pure(ref, [alpha, -alpha]), rel=1e-14)

    def test_fig5_tm_five_wavelengths(self):
        # TM mode of the long-wavelength figure set: finite damping factor
        from gspp.material import GrapheneParams, CONSTANTS, conductivity
        from gspp.dispersion import effective_wavelength, solve_mode
        params = GrapheneParams.with_default_rates(1.4, 300.0)
        omega = 2.0 * math.pi * CONSTANTS.c0 / 1550e-9
        mode = solve_mode(params, conductivity(params, omega), "TM")
        x = 5.0 * effective_wavelength(mode)
        f = fidelity_vs_distance(3.0, math.pi / 2, [x], mode.k.imag, reference=INITIAL)[0]
        assert 0.0 < f < 1.0


class TestPropagateCat:
    def test_identity_at_origin(self):
        rho = excite_cat(3.0, 0.9)
        out = propagate_mixture(rho, 1.0)
        assert np.allclose(out.weights, rho.weights)

    def test_vacuum_limit(self):
        rho = propagate_mixture(excite_cat(3.0, math.pi / 2), math.exp(-200.0))
        coeffs = normalize_superposition([1.0], [0.0])
        assert rho.fidelity_pure(coeffs, [0.0]) == pytest.approx(1.0, abs=1e-6)

    def test_trace_exact(self, rng):
        for _ in range(15):
            alpha = rng.uniform(0.5, 4.0)
            g = rng.uniform(0.1, math.pi / 2)
            x = rng.uniform(0.0, 2.0)
            out = propagate_mixture(excite_cat(alpha, g), math.exp(-2.0 * x))
            assert out.trace() == pytest.approx(1.0, abs=1e-9)

    def test_matches_fock_channel(self):
        alpha, g = 3.0, math.pi / 2
        eta = math.exp(-2.0 * 0.5)
        dim = 64
        analytic = to_density_matrix(propagate_mixture(excite_cat(alpha, g), eta), dim)
        fock = damp_fock(to_density_matrix(excite_cat(alpha, g), dim), eta)
        assert trace_distance(analytic.matrix, fock.matrix) < 1e-8

    def test_cross_weight_decoherence_factor(self):
        # c(x) = c_out exp(-2|a sin g|^2 (1 - e^{-2 k0 k'' x}))
        alpha, g, x = 3.0, 0.8, 0.3
        eta = math.exp(-2.0 * x)
        out = propagate_mixture(excite_cat(alpha, g), eta)
        c_out = math.exp(-2.0 * (alpha * math.cos(g)) ** 2)
        c_x = c_out * math.exp(-2.0 * (alpha * math.sin(g)) ** 2 * (1.0 - eta))
        n_sq = 1.0 / (2.0 + 2.0 * math.exp(-2.0 * alpha**2))
        a_out = alpha * math.sin(g) * math.sqrt(eta)
        index = {round(a.real, 9): i for i, a in enumerate(out.amps)}
        plus, minus = index[round(a_out, 9)], index[round(-a_out, 9)]
        assert out.weights[plus, minus] == pytest.approx(n_sq * c_x, rel=1e-12)

    def test_energy_law(self, rng):
        for _ in range(10):
            alpha = rng.uniform(0.5, 3.5)
            g = rng.uniform(0.2, math.pi / 2)
            eta = math.exp(-2.0 * rng.uniform(0.0, 1.5))
            rho0 = excite_cat(alpha, g)
            rho1 = propagate_mixture(rho0, eta)
            assert rho1.mean_photon() == pytest.approx(
                eta * rho0.mean_photon(), rel=1e-9, abs=1e-12)

    def test_stack_matches_one_eta_at_a_time(self):
        rho = excite_cat(2.5, 0.9)
        etas = np.exp(-2.0 * np.linspace(0.0, 2.0, 7))
        stack = propagate_mixture(rho, etas)
        assert stack.amps.shape == (7, 2) and stack.weights.shape == (7, 2, 2)
        for i, eta in enumerate(etas):
            one = propagate_mixture(rho, float(eta))
            np.testing.assert_array_equal(stack.amps[i], one.amps)
            np.testing.assert_allclose(stack.weights[i], one.weights, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(stack.trace(), 1.0, atol=1e-12)
        np.testing.assert_allclose(stack.mean_photon(), etas * rho.mean_photon(), rtol=1e-12)


class TestDampFock:
    def test_identity(self):
        rho = projector(coherent_state(2.0, 40))
        out = damp_fock(rho, 1.0)
        assert trace_distance(out.matrix, rho.matrix) == 0.0

    def test_coherent_to_scaled_coherent(self):
        alpha, eta, dim = 2.0, 0.6, 50
        out = damp_fock(projector(coherent_state(alpha, dim)), eta)
        target = projector(coherent_state(alpha * math.sqrt(eta), dim))
        assert trace_distance(out.matrix, target.matrix) < 1e-10

    def test_semigroup_composition(self):
        rho = to_density_matrix(excite_cat(2.5, 0.9), 48)
        step1 = damp_fock(damp_fock(rho, 0.8), 0.7)
        once = damp_fock(rho, 0.8 * 0.7)
        assert trace_distance(step1.matrix, once.matrix) < 1e-12

    def test_trace_preserved(self):
        rho = to_density_matrix(excite_cat(2.5, 0.9), 48)
        out = damp_fock(rho, 0.37)
        assert out.trace() == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_limit(self):
        rho = to_density_matrix(excite_cat(2.0, 0.9), 40)
        out = damp_fock(rho, 0.0)
        assert out.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)


class TestFidelityCurves:
    def test_perfect_start(self):
        f = fidelity_vs_distance(3.0, math.pi / 2, [0.0], 1.0, reference=INITIAL)
        assert f[0] == pytest.approx(1.0, abs=1e-12)

    def test_initial_monotone_decrease(self):
        x = np.linspace(0.0, 4.0, 80)
        for beta in (1.0, 0.95, 0.8):
            g = math.asin(beta)
            f = fidelity_vs_distance(3.0, g, x, 1.0, reference=INITIAL)
            assert np.all(np.diff(f) < 1e-12)
            assert f[-1] < 0.01

    def test_initial_asymptote(self):
        alpha = 3.0
        f_inf = fidelity_vs_distance(alpha, math.pi / 2, [50.0], 1.0, reference=INITIAL)[0]
        n_sq = 1.0 / (2.0 + 2.0 * math.exp(-2.0 * alpha**2))
        assert f_inf == pytest.approx(4.0 * n_sq * math.exp(-(alpha**2)), rel=1e-6)

    def test_matched_turning_point_and_plateau(self):
        alpha = 3.0
        x = np.linspace(0.0, 3.0, 1200)
        for beta in (1.0, 0.9, 0.8):
            g = math.asin(beta)
            f = fidelity_vs_distance(alpha, g, x, 1.0, reference=AMPLITUDE_MATCHED)
            i_min = int(np.argmin(f))
            assert x[i_min] == pytest.approx(matched_turning_point(beta), rel=0.05)
            assert abs(f[i_min] - 0.5) < 0.05
            assert f[-1] > 0.95

    def test_matched_limits_to_unity(self):
        f = fidelity_vs_distance(3.0, 0.9, [30.0], 1.0, reference=AMPLITUDE_MATCHED)
        assert f[0] == pytest.approx(1.0, abs=1e-6)

    def test_bad_reference_name(self):
        with pytest.raises(ValueError):
            fidelity_vs_distance(3.0, 0.9, [0.0], 1.0, reference="nope")


class TestFidelityStack:
    def test_fig4_fid_matches_pointwise_oracle(self):
        # the fig4-fid curves, one propagation and one contraction per curve
        x = np.linspace(0.0, 3.0, 300)
        for beta in (1.0, 0.98, 0.95, 0.9, 0.8):
            g = math.asin(beta)
            for reference in (INITIAL, AMPLITUDE_MATCHED):
                got = fidelity_vs_distance(3.0, g, x, 1.0, reference=reference)
                ref = fidelity_vs_distance_oracle(3.0, g, x, 1.0, reference == AMPLITUDE_MATCHED)
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_shape_follows_x(self):
        x = np.linspace(0.0, 1.0, 6).reshape(2, 3)
        f = fidelity_vs_distance(2.0, 0.9, x, 1.0, reference=AMPLITUDE_MATCHED)
        assert f.shape == (2, 3)
        np.testing.assert_array_equal(
            f.ravel(), fidelity_vs_distance(2.0, 0.9, x.ravel(), 1.0, reference=AMPLITUDE_MATCHED))


class TestValidation:
    def test_negative_attenuation_or_distance(self):
        with pytest.raises(ValueError):
            fidelity_vs_distance(3.0, 0.9, [0.0, 1.0], -1.0)
        with pytest.raises(ValueError):
            fidelity_vs_distance(3.0, 0.9, [0.0, -1.0], 1.0)

    def test_transmissivity_range(self):
        with pytest.raises(ValueError):
            propagate_mixture(excite_cat(1.0, 0.5), 0.0)
        with pytest.raises(ValueError):
            propagate_mixture(excite_cat(1.0, 0.5), [0.5, 1.5])
        with pytest.raises(ValueError):
            propagate_mixture(excite_cat(1.0, 0.5), [0.5, math.nan])
