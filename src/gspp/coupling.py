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


def _cmul(a, b) -> np.ndarray:
    """a*b by the schoolbook formula, one real operation at a time: numpy's
    SIMD complex multiply fuses multiply-adds, which moves the last bit."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _real(value) -> float | np.ndarray:
    """Real part: a float for one mixture, an array for a stack."""
    value = np.real(value)
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class CoherentMixture:
    """rho = sum_jk weights[j, k] |amps[j]><amps[k]| over coherent states,
    with amps of shape (T,) and weights of shape (T, T), Hermitian.  Leading
    axes, amps (..., T) with weights (..., T, T), hold a stack of mixtures,
    and every method then returns one value per mixture.  The overlaps come
    from G = coherent_gram(amps, amps).  Treat as immutable."""

    amps: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amps, dtype=complex)
        weights = np.array(self.weights, dtype=complex)
        if amps.ndim == 0 or weights.shape != amps.shape + amps.shape[-1:]:
            raise ValueError("weights must be a square matrix over amps")
        amps.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "weights", weights)

    def _overlaps(self) -> np.ndarray:
        """<a_k|a_j> at [..., j, k], the transposed Gram matrix."""
        return np.swapaxes(coherent_gram(self.amps, self.amps), -1, -2)

    def trace(self) -> float | np.ndarray:
        """Tr rho = sum_jk M_jk <a_k|a_j>."""
        return _real(np.sum(self.weights * self._overlaps(), axis=(-2, -1)))

    def mean_photon(self) -> float | np.ndarray:
        """<n> via Tr(n |a><b|) = conj(b) a <b|a>."""
        dyads = self.amps[..., :, None] * self.amps.conj()[..., None, :] * self._overlaps()
        return _real(np.sum(self.weights * dyads, axis=(-2, -1)))

    def purity(self) -> float | np.ndarray:
        """Tr rho^2 = Tr((M G)^2)."""
        mg = self.weights @ coherent_gram(self.amps, self.amps)
        return _real(np.trace(mg @ mg, axis1=-2, axis2=-1))

    def fidelity_pure(self, coeffs, amps) -> float | np.ndarray:
        """<psi|rho|psi> for |psi> = sum_m c_m |alpha_m> (normalized input);
        coeffs and amps, shape (..., M), broadcast against the stack."""
        coeffs = np.asarray(coeffs, dtype=complex)
        bra_gram = coherent_gram(amps, self.amps)
        ket_gram = coherent_gram(self.amps, amps)
        # A pinned addition order with schoolbook products, not a matmul,
        # einsum or np.sum: the QEC tables print this F0 to the last bit,
        # and reordering the additions or fusing a product moves it.  For
        # each j the bra and ket sums run over m in order; f then adds
        # w_jk bra_j ket_k in row-major (j, k) order, starting from 0.
        bra = ket = 0j
        for m in range(coeffs.shape[-1]):
            bra = bra + _cmul(coeffs[..., m, None].conj(), bra_gram[..., m, :])
            ket = ket + _cmul(coeffs[..., m, None], ket_gram[..., :, m])
        f = 0j
        for j, k in np.ndindex(self.weights.shape[-2:]):
            f = f + _cmul(_cmul(self.weights[..., j, k], bra[..., j]), ket[..., k])
        return _real(f)


def normalize_superposition(coeffs, amps) -> np.ndarray:
    """Rescale coefficients so sum_mn c_m* c_n <a_m|a_n> equals 1 exactly;
    coeffs and amps of shape (..., M) may stack superpositions."""
    coeffs = np.asarray(coeffs, dtype=complex)
    norm_sq = np.real(coeffs.conj()[..., None, :] @ coherent_gram(amps, amps)
                      @ coeffs[..., :, None])[..., 0, 0]
    if np.any(norm_sq <= 0.0):
        raise ValueError("degenerate coherent superposition")
    return coeffs / np.sqrt(norm_sq)[..., None]


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
