"""Truncated-Fock-space toolkit: coherent states, ladder/number/parity
operators, density matrices, fidelity, and analytic coherent overlaps."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_TOL = 1e-10
TRACE_TOL = 1e-9
HERM_TOL = 1e-12
PSD_TOL = -1e-9


@dataclass(frozen=True)
class StateVector:
    """Pure state in a D-dimensional Fock space.  Treat as immutable."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / n)

    def inner(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def projector(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state as a dense D x D matrix.  Treat as immutable."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def validate(self) -> None:
        """Hermiticity to 1e-12, unit trace to 1e-9, eigenvalues >= -1e-9."""
        m = self.matrix
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.conj().T).max() > HERM_TOL * scale:
            raise ValueError("density matrix is not Hermitian")
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} differs from 1 beyond tolerance")
        if np.linalg.eigvalsh(m).min() < PSD_TOL:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")


def coherent_gram(x, y) -> np.ndarray:
    """Gram matrix G_ij = <x_i|y_j> = exp(-|x_i|^2/2 - |y_j|^2/2 + conj(x_i)*y_j)."""
    x = np.asarray(x, dtype=complex)[:, None]
    y = np.asarray(y, dtype=complex)[None, :]
    return np.exp(-0.5 * np.abs(x) ** 2 - 0.5 * np.abs(y) ** 2 + x.conj() * y)


def coherent_overlap(alpha: complex, beta: complex) -> complex:
    """<alpha|beta>, the one-pair case of coherent_gram."""
    return complex(coherent_gram([alpha], [beta])[0, 0])


def _coherent_column(alpha: complex, dim: int) -> np.ndarray:
    """Raw truncated coherent amplitudes e^{-|a|^2/2} a^n/sqrt(n!) (not
    renormalized); stable via a log-domain recursion."""
    amps = np.zeros(dim, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps


def truncation_dimension(alpha: complex) -> int:
    """Truncation dimension ceil(|a|^2 + 8|a| + 12); generous enough that
    the discarded coherent tail mass stays below 1e-10 for |a| <= 5."""
    a = abs(alpha)
    return math.ceil(a * a + 8.0 * a + 12.0)


def coherent_tail_mass(alpha: complex, dim: int) -> float:
    """Probability mass of the coherent state above the truncation."""
    return max(0.0, 1.0 - float(np.sum(np.abs(_coherent_column(alpha, dim)) ** 2)))


def coherent_state(alpha: complex, dim: int) -> StateVector:
    """Truncated, renormalized coherent state.  Errors when the truncated
    norm falls below 1 - 1e-8 (dimension too small for this amplitude)."""
    amps = _coherent_column(alpha, dim)
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if norm_sq < 1.0 - 1e-8:
        raise ValueError(f"dim={dim} too small for |alpha|={abs(alpha):.3f} "
                         f"(truncated norm^2 = {norm_sq:.12f})")
    return StateVector(amps / math.sqrt(norm_sq))


def annihilation(dim: int) -> np.ndarray:
    """Ladder operator a with <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def number(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def parity(dim: int) -> np.ndarray:
    """Photon parity (-1)^n, diagonal +-1."""
    return np.diag((-1.0) ** np.arange(dim)).astype(complex)


def fidelity(psi: StateVector, rho: DensityMatrix) -> float:
    """F = <psi|rho|psi>, clamped onto [0, 1] within 1e-9 slack."""
    if psi.dim != rho.dim:
        raise ValueError("dimension mismatch")
    v = psi.amplitudes
    f = float(np.real(np.vdot(v, rho.matrix @ v)))
    if f < -TRACE_TOL or f > 1.0 + TRACE_TOL:
        raise ValueError(f"fidelity {f} outside [0,1] beyond tolerance")
    return min(max(f, 0.0), 1.0)


def pure_fidelity(psi: StateVector, phi: StateVector) -> float:
    """|<psi|phi>|^2 for normalized pure states."""
    return float(abs(psi.inner(phi)) ** 2)
