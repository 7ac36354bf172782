"""Coherent-state overlaps, and the truncated Fock vectors that the QEC
ensemble starts from."""

from __future__ import annotations

import math

import numpy as np


def coherent_gram(x, y) -> np.ndarray:
    """Gram matrix G_ij = <x_i|y_j> = exp(-|x_i|^2/2 - |y_j|^2/2 + conj(x_i)*y_j)
    over the last axis of x (..., n) and y (..., m); the leading axes
    broadcast, giving (..., n, m)."""
    x = np.asarray(x, dtype=complex)[..., :, None]
    y = np.asarray(y, dtype=complex)[..., None, :]
    return np.exp(-0.5 * np.abs(x) ** 2 - 0.5 * np.abs(y) ** 2 + x.conj() * y)


def _coherent_column(alpha: complex, dim: int) -> np.ndarray:
    """Raw truncated coherent amplitudes e^{-|a|^2/2} a^n/sqrt(n!) (not
    renormalized), by the linear recursion c_n = c_{n-1} a/sqrt(n) from
    c_0 = e^{-|a|^2/2}, which underflows to zeros past |a| of about 38.6."""
    amps = np.zeros(dim, dtype=complex)
    amps[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps


def fock_vector(coeffs, amps, dim: int) -> np.ndarray:
    """Unit Fock vector of sum_j c_j |a_j>: the raw truncated columns
    summed and divided by their Euclidean norm."""
    vec = np.zeros(dim, dtype=complex)
    for c, a in zip(coeffs, np.asarray(amps, dtype=complex)):
        vec += c * _coherent_column(a, dim)
    return vec / np.linalg.norm(vec)


def truncation_dimension(alpha: complex) -> int:
    """Truncation dimension ceil(|a|^2 + 8|a| + 12); generous enough that
    the discarded coherent tail mass stays below 1e-10 for |a| <= 5."""
    a = abs(alpha)
    return math.ceil(a * a + 8.0 * a + 12.0)
