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
from dataclasses import dataclass

import numpy as np

from .coupling import CoherentMixture, CouplerSpec, excite_cat, normalize_superposition
from .qstate import coherent_gram

INITIAL = "initial"
AMPLITUDE_MATCHED = "matched"


@dataclass(frozen=True)
class ChannelSpec:
    """Attenuation factor k0*kappa'' (1/m) and distance x (m)."""

    k0_kappa2: float
    x: float

    def __post_init__(self):
        if self.k0_kappa2 < 0.0:
            raise ValueError("attenuation factor must be >= 0")
        if self.x < 0.0:
            raise ValueError("distance must be >= 0")

    @property
    def transmissivity(self) -> float:
        return math.exp(-2.0 * self.k0_kappa2 * self.x)


def propagate_mixture(rho: CoherentMixture, eta: float) -> CoherentMixture:
    """Pure-loss channel with energy transmissivity eta on a coherent mixture:
    a beamsplitter onto the environment, which is then traced out."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("transmissivity must lie in (0, 1]")
    lost = math.sqrt(1.0 - eta) * rho.amps
    return CoherentMixture(math.sqrt(eta) * rho.amps,
                           rho.weights * coherent_gram(lost, lost).T)


def propagate_cat(rho: CoherentMixture, spec: ChannelSpec) -> CoherentMixture:
    """Propagate a coherent mixture a distance x: amplitudes shrink by
    exp(-k0*kappa''*x) and cross weights decohere accordingly."""
    return propagate_mixture(rho, spec.transmissivity)


def _cat_reference(alpha: float | complex):
    """Normalized even-cat coefficient/amplitude lists at amplitude alpha."""
    amps = np.array([alpha, -alpha], dtype=complex)
    coeffs = normalize_superposition([1.0, 1.0], amps)
    return coeffs, amps


def fidelity_vs_distance(alpha: complex, g: complex, x_values, k0_kappa2: float,
                         reference: str = INITIAL) -> np.ndarray:
    """Fidelity of the propagated excited-cat state against a pure cat.

    reference='initial' compares against the original photon cat at
    amplitude alpha; reference='matched' against the amplitude-matched cat
    alpha' = alpha*sin g*exp(-k0*kappa''*x), via analytic overlaps only.
    """
    if reference not in (INITIAL, AMPLITUDE_MATCHED):
        raise ValueError("reference must be 'initial' or 'matched'")
    x_values = np.asarray(x_values, dtype=float)
    rho0 = excite_cat(alpha, g)
    beta_mag = abs(CouplerSpec(g).beta_amp)
    out = np.empty(x_values.shape, dtype=float)
    ref0 = _cat_reference(alpha)
    for i, x in enumerate(x_values.ravel()):
        spec = ChannelSpec(k0_kappa2=k0_kappa2, x=float(x))
        rho_x = propagate_cat(rho0, spec)
        if reference == INITIAL:
            coeffs, amps = ref0
        else:
            a_matched = alpha * beta_mag * math.exp(-k0_kappa2 * float(x))
            coeffs, amps = _cat_reference(a_matched)
        out.ravel()[i] = rho_x.fidelity_pure(coeffs, amps)
    return out


def matched_turning_point(beta_mag: float) -> float:
    """Location k0*kappa''*x = ln(sqrt(2)*beta) of the matched-reference
    fidelity minimum (exact for the even-cat channel)."""
    if not 1.0 / math.sqrt(2.0) < beta_mag <= 1.0:
        raise ValueError("turning point exists for beta in (1/sqrt(2), 1]")
    return math.log(math.sqrt(2.0) * beta_mag)
