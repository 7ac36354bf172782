import math

import numpy as np
import pytest

from conftest import (
    DensityMatrix,
    annihilation,
    coherent_state,
    coherent_tail_mass,
    fidelity,
    number,
    parity,
    projector,
)
from gspp.qstate import coherent_gram, fock_vector, truncation_dimension


def overlap(alpha, beta):
    """<alpha|beta>, one entry of coherent_gram."""
    return complex(coherent_gram([alpha], [beta])[0, 0])


class TestCoherentStates:
    def test_vacuum(self):
        psi = coherent_state(0.0, 8)
        assert psi[0] == pytest.approx(1.0)
        assert np.allclose(psi[1:], 0.0)

    def test_normalized(self):
        psi = coherent_state(2.0 + 1.0j, 60)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_fock_vs_analytic(self):
        # <3|-3> = e^{-18}
        a = coherent_state(3.0, 64)
        b = coherent_state(-3.0, 64)
        fock = np.vdot(a, b)
        assert abs(fock - math.exp(-18.0)) < 1e-10
        for alpha, beta in ((1.5, -2.0), (2.5j, 1.0 + 1.0j), (4.0, 3.5)):
            f = np.vdot(coherent_state(alpha, 80), coherent_state(beta, 80))
            assert abs(f - overlap(alpha, beta)) < 1e-10

    def test_self_overlap(self):
        assert overlap(1.3 - 0.4j, 1.3 - 0.4j) == pytest.approx(1.0)

    def test_cross_coherence_factor(self):
        # <-(a cos g)|a cos g> equals exp(-2|a cos g|^2)
        a, g = 3.0, 0.8
        val = overlap(a * math.cos(g), -a * math.cos(g))
        assert val == pytest.approx(math.exp(-2.0 * (a * math.cos(g)) ** 2), rel=1e-12)

    def test_dimension_too_small(self):
        with pytest.raises(ValueError):
            coherent_state(4.0, 10)

    def test_gram_broadcasts_over_leading_axes(self, rng):
        x = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
        gram = coherent_gram(x, y)
        assert gram.shape == (5, 3, 2)
        for i in range(5):
            np.testing.assert_array_equal(gram[i], coherent_gram(x[i], y[i]))


class TestOperators:
    def test_annihilation_on_vacuum(self):
        a = annihilation(10)
        vac = np.zeros(10)
        vac[0] = 1.0
        assert np.allclose(a @ vac, 0.0)

    def test_commutator_on_lower_levels(self):
        dim = 12
        a = annihilation(dim)
        comm = a @ a.conj().T - a.conj().T @ a
        assert np.allclose(comm[: dim - 1, : dim - 1], np.eye(dim - 1))

    def test_number_matches_adag_a(self):
        a = annihilation(9)
        assert np.allclose(a.conj().T @ a, number(9))

    def test_parity_flips_coherent(self):
        # P|alpha> = |-alpha>
        psi = coherent_state(3.0, 64)
        flipped = parity(64) @ psi
        target = coherent_state(-3.0, 64)
        assert np.linalg.norm(flipped - target) < 1e-8

    def test_parity_squares_to_identity(self):
        p = parity(40)
        assert np.array_equal(p @ p, np.eye(40, dtype=complex))


class TestFidelity:
    def test_pure_projector(self):
        psi = coherent_state(1.5, 32)
        assert fidelity(psi, projector(psi)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        one = np.zeros(16, dtype=complex)
        one[1] = 1.0
        two = np.zeros(16, dtype=complex)
        two[2] = 1.0
        assert fidelity(one, projector(two)) == 0.0

    def test_cat_vs_vacuum_analytic(self):
        # F = 4 N+^2 e^{-|a|^2} for the even cat against vacuum
        alpha, dim = 3.0, 64
        n_plus_sq = 1.0 / (2.0 + 2.0 * math.exp(-2.0 * alpha**2))
        cat = fock_vector([1.0, 1.0], [alpha, -alpha], dim)
        vac = np.eye(dim, dtype=complex)[0]
        expected = 4.0 * n_plus_sq * math.exp(-(alpha**2))
        assert fidelity(vac, projector(cat)) == pytest.approx(expected, rel=1e-10)

    def test_out_of_range_raises(self):
        psi = coherent_state(1.0, 32)
        bad = DensityMatrix(2.0 * projector(psi).matrix)
        with pytest.raises(ValueError):
            fidelity(psi, bad)

    def test_pure_fidelity(self):
        a = coherent_state(1.0, 32)
        b = coherent_state(-1.0, 32)
        assert abs(np.vdot(a, b)) ** 2 == pytest.approx(math.exp(-4.0), rel=1e-10)


class TestDensityMatrix:
    def test_validate_passes(self):
        projector(coherent_state(2.0, 40)).validate()

    def test_validate_catches_trace(self):
        m = projector(coherent_state(2.0, 40)).matrix * 1.01
        with pytest.raises(ValueError):
            DensityMatrix(m).validate()

    def test_validate_catches_nonhermitian(self):
        m = np.array(projector(coherent_state(2.0, 40)).matrix)
        m[0, 1] += 0.1
        with pytest.raises(ValueError):
            DensityMatrix(m).validate()


class TestTruncation:
    def test_vacuum_dimension_small(self):
        assert truncation_dimension(0.0) == 12

    def test_alpha3_heuristic(self):
        assert truncation_dimension(3.0) == 45

    def test_heuristic_covers_exact(self):
        # heuristic dimension always satisfies the 1e-10 tail bound, and
        # exceeds the smallest dimension that does
        for alpha in np.linspace(0.0, 5.0, 11):
            dim = truncation_dimension(alpha)
            assert coherent_tail_mass(alpha, dim) < 1e-10
            exact = next(d for d in range(1, dim + 1)
                         if coherent_tail_mass(alpha, d) < 1e-10)
            assert dim >= exact
