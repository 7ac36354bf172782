"""Mode functions and quantization normalization for graphene surface waves.

Every mode profile of the model is a sum of exponentials in z, so a field
is held as `Waves` on each z-region and every integral the model needs is
taken in closed form (`wave_integral`).  The normalization length N is
fixed by requiring that the mode Hamiltonian (field energy plus the sheet
term delta(z)*omega*|sigma''|/eps0*|A_par|^2) take the harmonic-oscillator
form eps0*L^2*omega^2*N*(C*C^+ + C^+C); `hamiltonian_norm` computes it for
the surface wave here and for the prism's photon mode.  A surface-wave
profile (`spp_waves`, `mode_function`) takes its polarization from the
SppMode it is given.  Fields, integrals
and normalizations take a leading batch axis, one mode per element; complex
products go through `_cmul` and sums run in a fixed order, so an element of
a batch has the bits of its one-point call.  Quantization uses
the lossless idealization: the reactive part of the conductivity only
(sigma = i*sigma''), giving real k and q0.  Loss enters downstream through
the channel module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coupling import _cmul
from .dispersion import (TE, TM, SppMode, UnsupportedModeError, supported_polarization,
                         transverse_q0, wavenumber)
from .material import CONSTANTS, Conductivity, GrapheneParams, conductivity


@dataclass(frozen=True)
class Waves:
    """Field sum_i amps[i] exp(i kx x + rates[i] (z - refs[i])) on one z-region.

    amps holds one (x, y, z) vector per wave.  Leading axes hold a batch of
    fields: kx of shape B, amps B + (n, 3), rates and refs B + (n,), or
    shapes that broadcast to those.  Each wave is referenced at the end of
    its region where it is largest, so no factor of a closed-form integral
    overflows however many decay lengths the region spans.
    """

    kx: complex
    amps: np.ndarray
    rates: np.ndarray
    refs: np.ndarray

    def curl(self) -> Waves:
        """curl of the field: (i kx, 0, rate) x amps for each wave."""
        ax, ay, az = np.moveaxis(self.amps, -1, 0)
        s, ikx = self.rates, 1j * np.asarray(self.kx)[..., None]
        return replace(self, amps=np.stack(
            [-_cmul(s, ay), _cmul(s, ax) - _cmul(ikx, az), _cmul(ikx, ay)], axis=-1))

    def at(self, z) -> np.ndarray:
        """Field vectors at x = 0 and the points z, shape z.shape + B + (3,)."""
        z = np.asarray(z, dtype=float)
        waves = _cmul(np.exp(np.subtract.outer(z, self.refs) * self.rates)[..., None], self.amps)
        return _ordered_sum(np.moveaxis(waves, -1, -2))


def _ordered_sum(terms):
    """Sum over the last axis, left to right."""
    total = terms[..., 0]
    for k in range(1, terms.shape[-1]):
        total = total + terms[..., k]
    return total


def wave_integral(a: Waves, b: Waves, lo, hi):
    """Int_lo^hi a(z) . conj(b(z)) dz in closed form, for [lo, hi] one of
    (-inf, 0], [0, d] and [0, inf); over a batch of fields (and of d), one
    integral per element.

    Each wave pair contributes a_i . conj(b_j) times the integral of
    e^{r z}, r = s_i + conj(t_j), taken from the end where e^{r z} peaks:
    expm1(rho L)/rho with Re rho <= 0 over a finite length L, and -1/rho
    over a half-line, toward whose open end every pair must decay.
    """
    r = a.rates[..., :, None] + np.conj(b.rates)[..., None, :]
    lo, hi = (np.asarray(end, dtype=float)[..., None, None] for end in (lo, hi))
    grows = r.real > 0.0
    top = np.where(grows, hi, lo)
    rho = np.where(grows, -r, r)
    length = hi - lo
    if np.isinf(length).any():
        if not (np.all(np.isfinite(top)) and np.all(rho.real < 0.0)):
            raise ValueError("field does not decay toward infinity; no finite mode integral")
        weight = -1.0 / rho
    else:
        flat = rho == 0.0
        weight = np.where(flat, length, np.expm1(rho * length) / np.where(flat, 1.0, rho))
    shift = np.exp(a.rates[..., :, None] * (top - a.refs[..., :, None])
                   + np.conj(b.rates)[..., None, :] * (top - b.refs[..., None, :]))
    dots = _ordered_sum(_cmul(a.amps[..., :, None, :], np.conj(b.amps[..., None, :, :])))
    terms = _cmul(_cmul(dots, shift), weight)
    total = _ordered_sum(terms.reshape(terms.shape[:-2] + (-1,)))
    return complex(total) if total.ndim == 0 else total


def hamiltonian_norm(regions, sigma_pp, omega, eps_r: float = 1.0):
    """Quantization length N (m) of a mode given as (lo, hi, A) regions:

    N = (1/2) Int [eps_r |A|^2 + (c0/omega)^2 |curl A|^2] dz
        + |sigma''|/(2 eps0 omega) |A_par(0)|^2,

    with A_par(0) read on the region that starts at z = 0 (the tangential
    field is continuous across the sheet).  For fields with a batch axis,
    sigma_pp and omega hold one value per element and N is an array.
    """
    c2w2 = (CONSTANTS.c0 / omega) ** 2
    bulk = 0.0
    for lo, hi, field in regions:
        curl = field.curl()
        bulk += (eps_r * wave_integral(field, field, lo, hi)
                 + c2w2 * wave_integral(curl, curl, lo, hi)).real
    a_par = next(field for lo, _, field in regions if lo == 0.0).at(0.0)[..., :2]
    a_par_sq = _ordered_sum(a_par.real ** 2 + a_par.imag ** 2)
    n_len = 0.5 * bulk + abs(sigma_pp) / (2.0 * CONSTANTS.eps0 * omega) * a_par_sq
    if not np.all(n_len > 0.0):
        raise ValueError("non-positive mode normalization")
    return n_len if np.ndim(n_len) else float(n_len)


def spp_waves(mode: SppMode) -> tuple[Waves, Waves]:
    """Surface-wave profile above (z >= 0) and below the sheet, in the
    mode's polarization:

    TE:  y_hat e^{-q0|z|};
    TM:  -(P x_hat -+ z_hat) e^{-q0|z|}, P = i q0/k (the boundary
         conditions reduce 2ki/(2q0 - i sigma mu0 omega) to it);

    with a batch axis when the mode holds a sweep.
    """
    q0 = np.asarray(mode.q0)[..., None]
    zero, one = np.zeros(q0.shape, dtype=complex), np.ones(q0.shape, dtype=complex)
    if mode.polarization == TE:
        above = below = np.stack([zero, one, zero], axis=-1)
    else:
        p_amp = np.asarray(1j * mode.q0 / mode.k)[..., None]
        above = np.stack([-p_amp, zero, one], axis=-1)
        below = np.stack([-p_amp, zero, -one], axis=-1)
    ref = np.zeros(1)
    return Waves(mode.k, above, -q0, ref), Waves(mode.k, below, q0, ref)


def mode_function(mode: SppMode, z) -> np.ndarray:
    """Vector mode profile phi(z) of spp_waves, shape (..., 3) for
    components (x, y, z).  At z = 0 the one-sided limit from z > 0 is
    returned."""
    dist = np.abs(np.asarray(z, dtype=float))
    above, below = spp_waves(mode)
    return np.where((np.asarray(z) >= 0.0)[..., None], above.at(dist), below.at(-dist))


def _lossless_mode(polarization: str, omega: float, sigma_pp: float, eps_r: float) -> SppMode:
    """Real-(k, q0) mode of the dispersion relation with the reactive
    conductivity alone, sigma = i*sigma_pp; over a sweep when omega and
    sigma_pp are arrays.  UnsupportedModeError names the sigma_pp least in
    the polarization's favour."""
    sigma = Conductivity(1j * sigma_pp, omega)
    if supported_polarization(sigma) != polarization:
        worst = (np.min if polarization == TM else np.max)(sigma_pp)
        raise UnsupportedModeError(f"{polarization} not supported at Im sigma = {worst:.3e}")
    return SppMode(polarization=polarization, omega=omega,
                   k=wavenumber(polarization, sigma, eps_r),
                   q0=transverse_q0(polarization, sigma, eps_r),
                   v_g=CONSTANTS.c0 / math.sqrt(eps_r), supported=True, eps_r=eps_r)


def lossless_spp_norm(polarization: str, omega, sigma_pp,
                      eps_r: float) -> tuple[float, Waves, Waves]:
    """Quantization length N (m) of the lossless surface wave, hamiltonian_norm
    over both half-spaces, with its (above, below) profiles; one per element
    when omega and sigma_pp are arrays."""
    above, below = spp_waves(_lossless_mode(polarization, omega, sigma_pp, eps_r))
    n_len = hamiltonian_norm([(-math.inf, 0.0, below), (0.0, math.inf, above)],
                             sigma_pp, omega, eps_r)
    return n_len, above, below


def mode_normalization(mode: SppMode, params: GrapheneParams) -> float:
    """Quantization length N (m) of the surface wave at the mode's frequency
    and polarization; UnsupportedModeError where Im sigma does not support it."""
    sig = conductivity(params, mode.omega)
    return lossless_spp_norm(mode.polarization, mode.omega, sig.imag, params.eps_r)[0]


def vector_potential_amplitude(mode: SppMode, params: GrapheneParams, width: float) -> float:
    """Prefactor sqrt(hbar/(2 eps0 W v_g omega N)) of the quantized vector
    potential for a beam of width W (m) in the invariant in-plane direction,
    with N from mode_normalization."""
    if not width > 0.0:
        raise ValueError(f"beam width W must be > 0, got {width}")
    if not (mode.supported and mode.v_g > 0.0):
        raise UnsupportedModeError("amplitude defined for supported modes only")
    return math.sqrt(CONSTANTS.hbar / (2.0 * CONSTANTS.eps0 * width * mode.v_g * mode.omega
                                       * mode_normalization(mode, params)))
