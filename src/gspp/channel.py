"""Lossy propagation of SPP states along the graphene sheet.

Propagation over distance x is a pure-loss bosonic channel with energy
transmissivity eta = exp(-2*k0*kappa''*x), a beamsplitter onto a vacuum
environment that is traced out.  On sum_jk M_jk |a_j><a_k| it scales the
amplitudes by sqrt(eta) and multiplies M by the environment's Gram matrix,

    M_jk  ->  M_jk <sqrt(1-eta) a_k|sqrt(1-eta) a_j>,

which reproduces the decohered-cat mixture exactly and preserves the trace
dyad by dyad.
"""

from __future__ import annotations

import math

import numpy as np

from .coupling import CoherentMixture, CouplerSpec, excite_cat, normalize_superposition
from .qstate import coherent_gram

INITIAL = "initial"
AMPLITUDE_MATCHED = "matched"


def propagate_mixture(rho: CoherentMixture, eta) -> CoherentMixture:
    """Pure-loss channel with energy transmissivity eta on a coherent mixture:
    a beamsplitter onto the environment, which is then traced out.  An
    array of eta gives the stack of mixtures, one per transmissivity."""
    eta = np.asarray(eta, dtype=float)
    if not np.all((0.0 < eta) & (eta <= 1.0)):
        raise ValueError("transmissivity must lie in (0, 1]")
    lost = np.sqrt(1.0 - eta)[..., None] * rho.amps
    return CoherentMixture(np.sqrt(eta)[..., None] * rho.amps,
                           rho.weights * np.swapaxes(coherent_gram(lost, lost), -1, -2))


def _cat_reference(alpha):
    """Normalized even-cat coefficients and amplitudes, shape (..., 2), at
    the amplitude(s) alpha."""
    alpha = np.asarray(alpha, dtype=complex)
    amps = np.stack([alpha, -alpha], axis=-1)
    return normalize_superposition(np.ones(amps.shape), amps), amps


def fidelity_vs_distance(alpha: complex, g: complex, x_values, k0_kappa2: float,
                         reference: str = INITIAL) -> np.ndarray:
    """Fidelity of the propagated excited-cat state against a pure cat.

    reference='initial' compares against the original photon cat at
    amplitude alpha; reference='matched' against the amplitude-matched cat
    alpha' = alpha*sin g*exp(-k0*kappa''*x), via analytic overlaps only.
    The whole curve is one propagation and one fidelity contraction over
    the stack of x.
    """
    if reference not in (INITIAL, AMPLITUDE_MATCHED):
        raise ValueError("reference must be 'initial' or 'matched'")
    x = np.asarray(x_values, dtype=float)
    if k0_kappa2 < 0.0 or np.any(x < 0.0):
        raise ValueError("attenuation factor and distances must be >= 0")
    rho_x = propagate_mixture(excite_cat(alpha, g), np.exp(-2.0 * k0_kappa2 * x))
    if reference == INITIAL:
        coeffs, amps = _cat_reference(alpha)
    else:
        beta_mag = abs(CouplerSpec(g).beta_amp)
        coeffs, amps = _cat_reference(alpha * beta_mag * np.exp(-k0_kappa2 * x))
    return np.asarray(rho_x.fidelity_pure(coeffs, amps))


def matched_turning_point(beta_mag: float) -> float:
    """Location k0*kappa''*x = ln(sqrt(2)*beta) of the matched-reference
    fidelity minimum (exact for the even-cat channel)."""
    if not 1.0 / math.sqrt(2.0) < beta_mag <= 1.0:
        raise ValueError("turning point exists for beta in (1/sqrt(2), 1]")
    return math.log(math.sqrt(2.0) * beta_mag)
