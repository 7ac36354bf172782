"""Coherent-state overlaps, and the truncated Fock vectors that the QEC
ensemble starts from."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StateVector:
    """Pure state in a D-dimensional Fock space.  Treat as immutable."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / n)


def coherent_gram(x, y) -> np.ndarray:
    """Gram matrix G_ij = <x_i|y_j> = exp(-|x_i|^2/2 - |y_j|^2/2 + conj(x_i)*y_j)."""
    x = np.asarray(x, dtype=complex)[:, None]
    y = np.asarray(y, dtype=complex)[None, :]
    return np.exp(-0.5 * np.abs(x) ** 2 - 0.5 * np.abs(y) ** 2 + x.conj() * y)


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
