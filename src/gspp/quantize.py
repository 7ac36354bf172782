"""Mode functions and quantization normalization for graphene surface waves.

The normalization length N is fixed by requiring that the mode Hamiltonian
(field energy plus the sheet term delta(z)*omega*|sigma''|/eps0*|A_par|^2)
take the harmonic-oscillator form eps0*L^2*omega^2*N*(C*C^+ + C^+C).
Quantization uses the lossless idealization: the reactive part of the
conductivity only (sigma = i*sigma''), giving real k and q0.  Loss enters
downstream through the channel module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._zgrid import integrate_graded
from .dispersion import TE, TM, SppMode, UnsupportedModeError, supported_polarization, with_normalization
from .material import CONSTANTS, GrapheneParams, conductivity


@dataclass(frozen=True)
class QuantizationGeometry:
    """Transverse beam width W (m) in the invariant in-plane direction."""

    W: float

    def __post_init__(self):
        if self.W <= 0.0:
            raise ValueError("beamwidth W must be > 0")


def tm_parallel_amplitude(mode: SppMode) -> complex:
    """x-directed amplitude P of the TM mode function; the boundary
    conditions reduce 2*k*i/(2*q0 - i*sigma*mu0*omega) to i*q0/k."""
    return 1j * mode.q0 / mode.k


def mode_function(polarization: str, mode: SppMode, z) -> np.ndarray:
    """Vector mode profile phi(z), shape (..., 3) for components (x, y, z).

    TE:  Theta(+-z) y_hat e^{-+q0 z};
    TM:  -Theta(+-z) (P x_hat -+ z_hat) e^{-+q0 z}, P = i q0/k.
    At z = 0 the one-sided limit from z > 0 is returned.
    """
    z = np.asarray(z, dtype=float)
    decay = np.exp(-mode.q0 * np.abs(z))
    sign = np.where(z >= 0.0, 1.0, -1.0)
    out = np.zeros(z.shape + (3,), dtype=complex)
    if polarization == TE:
        out[..., 1] = decay
    elif polarization == TM:
        p_amp = tm_parallel_amplitude(mode)
        out[..., 0] = -p_amp * decay
        out[..., 2] = sign * decay
    else:
        raise ValueError("polarization must be 'TM' or 'TE'")
    return out


def _lossless_mode(polarization: str, omega: float, sigma_pp: float, eps_r: float) -> SppMode:
    """Real-(k, q0) mode built from the reactive conductivity alone."""
    k = CONSTANTS
    if polarization == TM:
        if sigma_pp <= 0.0:
            raise UnsupportedModeError("TM needs Im sigma > 0")
        q0 = 2.0 * omega * k.eps0 * eps_r / sigma_pp
    else:
        if sigma_pp >= 0.0:
            raise UnsupportedModeError("TE needs Im sigma < 0")
        q0 = k.mu0 * omega * abs(sigma_pp) / 2.0
    kx = math.sqrt(q0**2 + eps_r * (omega / k.c0) ** 2)
    c_bg = k.c0 / math.sqrt(eps_r)
    return SppMode(polarization=polarization, omega=omega, k=complex(kx),
                   q0=complex(q0), v_g=c_bg, supported=True, eps_r=eps_r)


def _energy_density(polarization: str, mode: SppMode, eps_r: float):
    """Bulk energy-density integrand eps_r|phi|^2 + (c0/omega)^2 |curl phi|^2
    for z > 0 (the profile is symmetric in |z|)."""
    q0 = mode.q0
    kx = mode.k
    w = mode.omega
    c2w2 = (CONSTANTS.c0 / w) ** 2
    if polarization == TE:
        coeff = eps_r + c2w2 * (abs(q0) ** 2 + abs(kx) ** 2)
    else:
        p_amp = tm_parallel_amplitude(mode)
        curl_y = q0 * p_amp - 1j * kx      # d_z phi_x - i k phi_z on z > 0
        coeff = eps_r * (abs(p_amp) ** 2 + 1.0) + c2w2 * abs(curl_y) ** 2

    def density(z):
        return coeff * np.exp(-2.0 * np.real(q0) * z) * np.ones_like(z)

    return density


def mode_normalization(polarization: str, mode: SppMode, params: GrapheneParams,
                       n_points: int = 2048) -> float:
    """Quantization length N (m) from the z-integrated mode energy.

    N = (1/2) Int [eps_r |phi|^2 + (c0/omega)^2 |curl phi|^2] dz
        + |sigma''|/(2 eps0 omega) |phi_par(0)|^2,
    integrated over z in [-z_max, z_max], z_max = 40/Re(q0), on a grid
    refined toward the sheet.
    """
    sig = conductivity(params, mode.omega)
    if supported_polarization(sig) != polarization:
        raise UnsupportedModeError(
            f"{polarization} not supported at this frequency (Im sigma = {sig.imag:.3e})")
    ll = _lossless_mode(polarization, mode.omega, sig.imag, params.eps_r)
    q0 = ll.q0.real
    z_max = 40.0 / q0
    density = _energy_density(polarization, ll, params.eps_r)
    # symmetric profile: integrate one side, double
    bulk = 2.0 * integrate_graded(density, z_max, 2.0 * q0, n_points // 2 + 1).real
    if polarization == TE:
        phi_par0 = 1.0
    else:
        phi_par0 = abs(tm_parallel_amplitude(ll)) ** 2
    surface = abs(sig.imag) / (2.0 * CONSTANTS.eps0 * mode.omega) * phi_par0
    n_len = 0.5 * bulk + surface
    if not n_len > 0.0:
        raise ValueError("non-positive mode normalization")
    return n_len


def quantize_mode(mode: SppMode, params: GrapheneParams, n_points: int = 2048) -> SppMode:
    """Return the mode with its normalization length filled in."""
    n_len = mode_normalization(mode.polarization, mode, params, n_points)
    return with_normalization(mode, n_len)


def vector_potential_amplitude(mode: SppMode, geometry: QuantizationGeometry,
                               omega: float | None = None) -> float:
    """Prefactor sqrt(hbar/(2 eps0 W v_g omega N)) of the quantized vector
    potential for a beam of width W."""
    w = mode.omega if omega is None else omega
    if mode.norm_n is None:
        raise ValueError("mode has no normalization; run quantize_mode first")
    if not (mode.supported and mode.v_g > 0.0):
        raise UnsupportedModeError("amplitude defined for supported modes only")
    return math.sqrt(CONSTANTS.hbar /
                     (2.0 * CONSTANTS.eps0 * geometry.W * mode.v_g * w * mode.norm_n))
