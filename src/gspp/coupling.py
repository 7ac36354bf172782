"""Photon-to-SPP beamsplitter transfer applied to quantum states.

The coupler is the 2x2 unitary [[gamma, beta], [-beta*, gamma*]] acting on
the (photon, SPP) annihilation operators, parameterized by the coupling
angle g with |beta| = sin|g|, arg(beta) = arg(g), gamma = cos|g|.  Tracing
out the photon after exciting sum_j c_j |a_j> leaves the SPP in
sum_jk M_jk |-beta* a_j><-beta* a_k| with M_jk = c_j c_k* <gamma a_k|gamma a_j>,
held as an amplitude vector and a Hermitian weight matrix whose overlaps
all come from one Gram matrix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .qstate import coherent_gram


@dataclass(frozen=True)
class CouplerSpec:
    """Coupler amplitudes derived from a (possibly complex) angle g."""

    g: complex

    @property
    def gamma_amp(self) -> float:
        """Photon-retention amplitude cos|g|."""
        return math.cos(abs(self.g))

    @property
    def beta_amp(self) -> complex:
        """Transmission amplitude e^{i arg g} sin|g|."""
        mag = abs(self.g)
        if mag == 0.0:
            return 0.0 + 0.0j
        return cmath.exp(1j * cmath.phase(self.g)) * math.sin(mag)

    def matrix(self) -> np.ndarray:
        """Heisenberg transformation [[gamma, beta], [-beta*, gamma*]]."""
        gam = self.gamma_amp
        bet = self.beta_amp
        return np.array([[gam, bet], [-np.conj(bet), np.conj(gam)]], dtype=complex)


@dataclass(frozen=True)
class CoherentMixture:
    """rho = sum_jk weights[j, k] |amps[j]><amps[k]| over coherent states,
    with amps of shape (T,) and weights of shape (T, T), Hermitian.  The
    overlaps come from G = coherent_gram(amps, amps).  Treat as immutable."""

    amps: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex).ravel()
        weights = np.array(self.weights, dtype=complex)
        if weights.shape != (len(amps), len(amps)):
            raise ValueError("weights must be a square matrix over amps")
        amps.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "weights", weights)

    def trace(self) -> float:
        """Tr rho = sum_jk M_jk <a_k|a_j>."""
        return float(np.sum(self.weights * coherent_gram(self.amps, self.amps).T).real)

    def mean_photon(self) -> float:
        """<n> via Tr(n |a><b|) = conj(b) a <b|a>."""
        dyads = np.outer(self.amps, self.amps.conj()) * coherent_gram(self.amps, self.amps).T
        return float(np.sum(self.weights * dyads).real)

    def purity(self) -> float:
        """Tr rho^2 = Tr((M G)^2)."""
        mg = self.weights @ coherent_gram(self.amps, self.amps)
        return float(np.trace(mg @ mg).real)

    def fidelity_pure(self, coeffs, amps) -> float:
        """<psi|rho|psi> for |psi> = sum_m c_m |alpha_m> (normalized input)."""
        coeffs = np.asarray(coeffs, dtype=complex)
        # Python-ordered sums, not a matmul or np.sum: the QEC tables print
        # this F0 to the last bit, and reordering the additions moves it.
        bra = [sum(np.conj(c) * g for c, g in zip(coeffs, col))
               for col in coherent_gram(amps, self.amps).T]
        ket = [sum(c * g for c, g in zip(coeffs, row))
               for row in coherent_gram(self.amps, amps)]
        f = 0.0 + 0.0j
        for (j, k), w in np.ndenumerate(self.weights):
            f += w * bra[j] * ket[k]
        return float(f.real)


def normalize_superposition(coeffs, amps) -> np.ndarray:
    """Rescale coefficients so sum_mn c_m* c_n <a_m|a_n> equals 1 exactly."""
    coeffs = np.asarray(coeffs, dtype=complex)
    norm_sq = float(np.real(coeffs.conj() @ coherent_gram(amps, amps) @ coeffs))
    if norm_sq <= 0.0:
        raise ValueError("degenerate coherent superposition")
    return coeffs / math.sqrt(norm_sq)


def code_legs(c0: complex, c1: complex, a: complex) -> tuple[list, list]:
    """Coefficients and coherent amplitudes of the cat-code word
    c0*|0L> + c1*|1L> at amplitude a (not normalized): |0L> on the legs
    a, -a and |1L> on ia, -ia."""
    return [c0, c0, c1, c1], [a, -a, 1j * a, -1j * a]


def excite_superposition(coeffs, amps, g: complex) -> CoherentMixture:
    """Send sum_j c_j |a_j>_photon |0>_spp through the coupler and trace
    out the photon: component j maps to -conj(beta)*a_j on the SPP, and
    the dyad (j, k) keeps the photon overlap <gamma a_k|gamma a_j>."""
    spec = CouplerSpec(g)
    coeffs = normalize_superposition(coeffs, amps)
    amps = np.asarray(amps, dtype=complex)
    photon = spec.gamma_amp * amps
    weights = np.outer(coeffs, coeffs.conj()) * coherent_gram(photon, photon).T
    return CoherentMixture(-np.conj(spec.beta_amp) * amps, weights)


def excite_cat(alpha: complex, g: complex) -> CoherentMixture:
    """Even-cat input N(|a> + |-a>): diagonal projectors on +-a*sin g with
    cross terms weighted by c_out = exp(-2|a cos g|^2)."""
    return excite_superposition([1.0, 1.0], [alpha, -alpha], g)


def excite_code(c0: complex, c1: complex, alpha: complex, g: complex) -> CoherentMixture:
    """Four-component code word c0*|0L> + c1*|1L> through the coupler.

    The logical coefficients must satisfy |c0|^2 + |c1|^2 = 1; the
    physical coherent superposition is then normalized exactly (the code
    words are only approximately orthogonal at finite alpha).
    """
    if abs(abs(c0) ** 2 + abs(c1) ** 2 - 1.0) > 1e-8:
        raise ValueError("logical coefficients must satisfy |c0|^2 + |c1|^2 = 1")
    return excite_superposition(*code_legs(c0, c1, alpha), g)
