import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    damp_fock,
    fidelity_pure_oracle,
    number,
    partial_trace_mode_a,
    to_density_matrix,
    trace_distance,
    two_mode_beamsplitter,
)
from gspp.channel import propagate_mixture
from gspp.coupling import (
    CoherentMixture,
    CouplerSpec,
    excite_cat,
    excite_code,
    excite_superposition,
    normalize_superposition,
)
from gspp.qstate import coherent_gram, fock_vector


class TestCouplerSpec:
    def test_unitarity(self):
        for g in (0.0, 0.3, math.pi / 2, 0.7 * cmath.exp(0.4j), 1.2 - 0.1j):
            m = CouplerSpec(g).matrix()
            assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)

    def test_identity_and_swap(self):
        assert np.allclose(CouplerSpec(0.0).matrix(), np.eye(2))
        m = CouplerSpec(math.pi / 2).matrix()
        assert abs(m[0, 0]) < 1e-15 and abs(m[0, 1] - 1.0) < 1e-15

    def test_composition_real_g(self):
        m = CouplerSpec(0.3).matrix() @ CouplerSpec(0.5).matrix()
        assert np.allclose(m, CouplerSpec(0.8).matrix(), atol=1e-12)

    def test_amplitudes_real_g(self):
        spec = CouplerSpec(0.8)
        assert spec.gamma_amp == pytest.approx(math.cos(0.8))
        assert spec.beta_amp == pytest.approx(math.sin(0.8))

    def test_complex_g_magnitudes(self):
        spec = CouplerSpec(0.7 * np.exp(0.9j))
        assert abs(spec.beta_amp) == pytest.approx(math.sin(0.7))
        assert abs(spec.gamma_amp) ** 2 + abs(spec.beta_amp) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestExciteCat:
    def test_perfect_transfer(self):
        rho = excite_cat(3.0, math.pi / 2)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)
        # the transferred state is the cat at the full amplitude
        coeffs = normalize_superposition([1.0, 1.0], [3.0, -3.0])
        assert rho.fidelity_pure(coeffs, [3.0, -3.0]) == pytest.approx(1.0, abs=1e-10)

    def test_no_coupling_gives_vacuum(self):
        rho = excite_cat(3.0, 0.0)
        coeffs = normalize_superposition([1.0], [0.0])
        assert rho.fidelity_pure(coeffs, [0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_cross_weight_matches_cout(self):
        alpha, g = 2.0, 0.8
        rho = excite_cat(alpha, g)
        c_out = math.exp(-2.0 * (alpha * math.cos(g)) ** 2)
        n_sq = 1.0 / (2.0 + 2.0 * math.exp(-2.0 * alpha**2))
        index = {round(a.real, 9): i for i, a in enumerate(rho.amps)}
        a_out = alpha * math.sin(g)
        plus, minus = index[round(a_out, 9)], index[round(-a_out, 9)]
        assert rho.weights[minus, minus] == pytest.approx(n_sq, rel=1e-12)
        assert rho.weights[plus, minus] == pytest.approx(n_sq * c_out, rel=1e-12)

    def test_against_two_mode_oracle(self):
        alpha, g, dim = 3.0, 0.8, 50
        cat = fock_vector([1.0, 1.0], [alpha, -alpha], dim)
        psi2 = np.zeros((dim, dim), dtype=complex)
        psi2[:, 0] = cat
        rho_b = partial_trace_mode_a(two_mode_beamsplitter(psi2, g))
        rho = to_density_matrix(excite_cat(alpha, g), dim).matrix
        assert trace_distance(rho_b, rho) < 1e-8

    def test_purity_dip_between_endpoints(self):
        alpha = 2.5
        purities = [excite_cat(alpha, g).purity()
                    for g in (0.0, 0.4, 0.8, 1.2, math.pi / 2)]
        assert purities[0] == pytest.approx(1.0, abs=1e-10)
        assert purities[-1] == pytest.approx(1.0, abs=1e-10)
        assert min(purities[1:4]) < 0.99

    def test_trace_preserved_sweep(self, rng):
        for _ in range(20):
            alpha = rng.uniform(0.0, 5.0)
            g = rng.uniform(0.0, math.pi / 2)
            assert excite_cat(alpha, g).trace() == pytest.approx(1.0, abs=1e-9)


class TestExciteCode:
    def test_reduces_to_cat(self):
        alpha, g = 2.0, 0.9
        code = excite_code(1.0, 0.0, alpha, g)
        cat = excite_cat(alpha, g)
        dim = 40
        assert trace_distance(to_density_matrix(code, dim).matrix,
                              to_density_matrix(cat, dim).matrix) < 1e-12

    def test_perfect_transfer_preserves_logical(self):
        alpha = 2.5
        c0, c1 = 0.6, 0.8j
        rho = excite_code(c0, c1, alpha, math.pi / 2)
        amps = np.array([alpha, -alpha, 1j * alpha, -1j * alpha])
        coeffs = normalize_superposition([c0, c0, c1, c1], amps)
        assert rho.fidelity_pure(coeffs, amps) == pytest.approx(1.0, abs=1e-10)

    def test_against_two_mode_oracle(self, rng):
        alpha, g, dim = 2.5, 0.9 * math.pi / 2, 45
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        c0, c1 = complex(v[0]), complex(v[1])
        amps = [alpha, -alpha, 1j * alpha, -1j * alpha]
        enc = fock_vector([c0, c0, c1, c1], amps, dim)
        psi2 = np.zeros((dim, dim), dtype=complex)
        psi2[:, 0] = enc
        rho_oracle = partial_trace_mode_a(two_mode_beamsplitter(psi2, g))
        rho = to_density_matrix(excite_code(c0, c1, alpha, g), dim).matrix
        assert trace_distance(rho_oracle, rho) < 1e-8

    def test_unnormalized_logical_raises(self):
        with pytest.raises(ValueError):
            excite_code(1.0, 0.5, 2.0, 0.8)


class TestCoherentMixture:
    def test_weights_square_over_amps_and_read_only(self):
        with pytest.raises(ValueError, match="square"):
            CoherentMixture([1.0, 2.0], [[1.0, 0.0]])
        rho = excite_cat(2.0, 0.7)
        with pytest.raises(ValueError):
            rho.weights[0, 0] = 0.0
        with pytest.raises(ValueError):
            rho.amps[0] = 0.0

    def test_mean_photon(self):
        rho = excite_cat(3.0, math.pi / 2)
        alpha = 3.0
        # even cat mean photon number alpha^2 tanh-like correction
        expected = alpha**2 * (1.0 - math.exp(-2.0 * alpha**2)) / (1.0 + math.exp(-2.0 * alpha**2))
        assert rho.mean_photon() == pytest.approx(expected, rel=1e-10)

    def test_render_matches_fock_cat(self):
        rho = excite_cat(2.0, math.pi / 2)
        dim = 40
        target = fock_vector([1.0, 1.0], [2.0, -2.0], dim)
        rendered = to_density_matrix(rho, dim)
        assert trace_distance(rendered.matrix, np.outer(target, target.conj())) < 1e-10


    @pytest.mark.parametrize("n", [1, 6, 300])
    def test_fidelity_stack_matches_python_ordered_sums(self, rng, n):
        # general complex coefficients: numpy's fused complex products would
        # move the last bit here, while the cardinal QEC inputs hide it
        rhos = [excite_superposition(rng.normal(size=4) + 1j * rng.normal(size=4),
                                     rng.normal(size=4) + 1j * rng.normal(size=4),
                                     rng.uniform(0.2, 1.5)) for _ in range(n)]
        stack = CoherentMixture(np.array([r.amps for r in rhos]),
                                np.array([r.weights for r in rhos]))
        amps = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
        coeffs = normalize_superposition(rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4)),
                                         amps)
        got = stack.fidelity_pure(coeffs, amps)
        ref = [fidelity_pure_oracle(r, c, a) for r, c, a in zip(rhos, coeffs, amps)]
        np.testing.assert_array_equal(got, ref)
        assert rhos[0].fidelity_pure(coeffs[0], amps[0]) == ref[0]

    def test_normalization_stack_matches_one_at_a_time(self, rng):
        amps = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        coeffs = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        stack = normalize_superposition(coeffs, amps)
        for i in range(5):
            np.testing.assert_array_equal(stack[i], normalize_superposition(coeffs[i], amps[i]))


class TestMixtureAgainstFock:
    DIM = 60

    def fock_checks(self, rho: CoherentMixture, fock: np.ndarray):
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)
        assert rho.trace() == pytest.approx(np.trace(fock).real, abs=1e-10)
        assert rho.mean_photon() == pytest.approx(
            np.trace(number(self.DIM) @ fock).real, abs=1e-10)
        assert rho.purity() == pytest.approx(np.trace(fock @ fock).real, abs=1e-10)
        w = rho.weights
        assert np.abs(w - w.conj().T).max() <= 1e-13 * max(1.0, np.abs(w).max())

    @settings(max_examples=100)
    @given(legs=st.lists(st.tuples(st.complex_numbers(max_magnitude=3.0),
                                   st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0)),
                         min_size=1, max_size=4),
           g=st.floats(0.0, math.pi / 2), eta=st.floats(0.05, 1.0))
    def test_matrix_form_matches_fock_rendering(self, legs, g, eta):
        amps = np.array([a for a, _ in legs])
        coeffs = np.array([c for _, c in legs])
        # keep clear of superpositions that nearly cancel, whose normalized
        # coefficients (and rounding errors) blow up
        norm_sq = np.real(coeffs.conj() @ coherent_gram(amps, amps) @ coeffs)
        assume(norm_sq > 0.1 * np.sum(np.abs(coeffs) ** 2))
        rho = excite_superposition(coeffs, amps, g)
        fock = to_density_matrix(rho, self.DIM).matrix
        self.fock_checks(rho, fock)
        lossy = propagate_mixture(rho, eta)
        damped = damp_fock(to_density_matrix(rho, self.DIM), eta).matrix
        assert np.abs(to_density_matrix(lossy, self.DIM).matrix - damped).max() <= 1e-10
        self.fock_checks(lossy, damped)
