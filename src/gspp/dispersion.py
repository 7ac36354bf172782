"""Surface-wave dispersion on a conducting graphene sheet.

One explicit dispersion relation (`wavenumber`) gives the complex in-plane
wavenumber of either polarization.  `solve_mode` selects the supported
polarization from the sign of the conductivity's reactive part and
derives the transverse decay constant and group velocity; the effective
wavelength and propagation length follow from the solved mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .material import CONSTANTS, Conductivity, GrapheneParams, conductivity_slope

TM = "TM"
TE = "TE"


class UnsupportedModeError(ValueError):
    """Requested polarization lies on the improper sheet (field grows away
    from the graphene) for the given conductivity."""


@dataclass(frozen=True)
class SppMode:
    """One solved surface-plasmon mode.

    k is the complex in-plane wavenumber (1/m), q0 the complex transverse
    decay constant (1/m), v_g the group velocity (m/s, nan when the mode
    is unsupported) and norm_n the quantization normalization length (m),
    filled in by the quantize module.
    """

    polarization: str
    omega: float
    k: complex
    q0: complex
    v_g: float
    supported: bool
    eps_r: float
    norm_n: float | None = None

    def __post_init__(self):
        if self.polarization not in (TM, TE):
            raise ValueError("polarization must be 'TM' or 'TE'")
        if self.k.imag < -1e-12 * abs(self.k):
            raise ValueError("forward-propagating mode needs Im(k) >= 0")
        if self.supported:
            if not self.q0.real > 0.0:
                raise ValueError("supported mode needs Re(q0) > 0")
            c_bg = CONSTANTS.c0 / math.sqrt(self.eps_r)
            if not math.isnan(self.v_g) and not (0.0 < self.v_g <= c_bg * (1.0 + 1e-9)):
                raise ValueError("group velocity outside (0, c0/sqrt(eps_r)]")

    @property
    def k0(self) -> float:
        return self.omega / CONSTANTS.c0

    @property
    def kappa(self) -> complex:
        """Normalized wavenumber k/k0."""
        return self.k / self.k0


def _impedance(eps_r: float) -> float:
    return math.sqrt(CONSTANTS.mu0 / (CONSTANTS.eps0 * eps_r))


def supported_polarization(sigma: Conductivity) -> str | None:
    """TM for inductive sheets (Im sigma > 0), TE for capacitive, else None."""
    if sigma.value.imag > 0.0:
        return TM
    if sigma.value.imag < 0.0:
        return TE
    return None


def _forward_branch(k: complex) -> complex:
    # k^2 fixes the mode only up to sign; pick the root decaying in +x.
    if k.imag < 0.0 or (k.imag == 0.0 and k.real < 0.0):
        return -k
    return k


def _kappa(polarization: str, sigma: Conductivity, eps_r: float) -> tuple[complex, complex]:
    """(r, kappa) of the dispersion relation kappa^2 = eps_r*(1 - r^2),
    kappa = k/k0 on the forward branch."""
    if sigma.value == 0:
        raise ValueError(f"sigma = 0: graphene absent, {polarization} dispersion undefined")
    eta = _impedance(eps_r)
    if polarization == TM:
        r = 2.0 / (sigma.value * eta)
    elif polarization == TE:
        r = sigma.value * eta / 2.0
    else:
        raise ValueError("polarization must be 'TM' or 'TE'")
    return r, _forward_branch(complex(np.sqrt(complex(eps_r * (1.0 - r ** 2)))))


def wavenumber(polarization: str, sigma: Conductivity, eps_r: float) -> complex:
    """Complex in-plane wavenumber k (1/m) at sigma.omega on the forward branch:

    k = k0*sqrt(eps_r*(1 - r^2)),  r = 2/(sigma*eta) for TM, sigma*eta/2 for TE,

    with eta the background wave impedance (Hanson, J. Appl. Phys. 103,
    064302 (2008)).
    """
    return (sigma.omega / CONSTANTS.c0) * _kappa(polarization, sigma, eps_r)[1]


def transverse_q0(polarization: str, sigma: Conductivity, eps_r: float) -> complex:
    """Transverse decay constant with the boundary-condition-fixed sign.

    TM: q0 = 2i*omega*eps0*eps_r/sigma;  TE: q0 = i*sigma*mu0*omega/2.
    Re(q0) > 0 means the field decays away from the sheet (proper mode);
    Re(q0) < 0 marks the improper Riemann sheet for that polarization.
    """
    omega = sigma.omega
    if polarization == TM:
        return 2j * omega * CONSTANTS.eps0 * eps_r / sigma.value
    if polarization == TE:
        return 1j * sigma.value * CONSTANTS.mu0 * omega / 2.0
    raise ValueError("polarization must be 'TM' or 'TE'")


def group_velocity(params: GrapheneParams, sigma: Conductivity, polarization: str) -> float:
    """Group velocity 1/Re(dk/d omega) at sigma.omega; sigma is the
    conductivity there.

    Differentiating k = (omega/c0)*kappa, kappa^2 = eps_r*(1 - r^2):
    dk/d omega = kappa/c0 + (omega/c0)*d kappa/d omega, d kappa/d omega =
    -eps_r*r*r'/kappa, with r' = -r*sigma'/sigma (TM) or +r*sigma'/sigma (TE)
    and sigma' from `conductivity_slope`.  nan where the slope is not
    positive.
    """
    omega = sigma.omega
    r, kappa = _kappa(polarization, sigma, params.eps_r)
    if kappa == 0:
        return math.nan
    r_ratio = conductivity_slope(params, sigma) / sigma.value
    dr = -r * r_ratio if polarization == TM else r * r_ratio
    slope = ((kappa - omega * params.eps_r * r * dr / kappa) / CONSTANTS.c0).real
    return 1.0 / slope if slope > 0.0 else math.nan


def propagation_length(mode: SppMode) -> float:
    """1/e flux decay length 1/(2*k0*kappa''); +inf for a lossless mode."""
    k2 = mode.k.imag
    if k2 == 0.0:
        return math.inf
    return 1.0 / (2.0 * k2)


def effective_wavelength(mode: SppMode) -> float:
    """On-sheet wavelength 2*pi/Re(k)."""
    return 2.0 * math.pi / mode.k.real


def solve_mode(params: GrapheneParams, sigma: Conductivity,
               polarization: str | None = None) -> SppMode:
    """Solve the dispersion relation at sigma.omega, with sigma the
    conductivity there (`conductivity(params, omega)`).

    With polarization=None the supported polarization is selected from
    the sign of Im sigma; passing an explicit polarization returns that
    branch, flagged unsupported when it lies on the improper sheet.
    """
    selected = supported_polarization(sigma)
    pol = polarization or selected
    if pol is None:
        raise UnsupportedModeError("Im sigma = 0: neither TM nor TE is supported")
    supported = pol == selected
    # The group velocity is only a transport speed where dispersion is
    # normal; inside absorption windows it can exceed c0/sqrt(eps_r) and is
    # reported as nan there.
    v_g = group_velocity(params, sigma, pol) if supported else math.nan
    if not v_g <= CONSTANTS.c0 / math.sqrt(params.eps_r) * (1.0 + 1e-9):
        v_g = math.nan
    return SppMode(polarization=pol, omega=sigma.omega, k=wavenumber(pol, sigma, params.eps_r),
                   q0=transverse_q0(pol, sigma, params.eps_r), v_g=v_g,
                   supported=supported, eps_r=params.eps_r)
