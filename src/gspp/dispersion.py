"""Surface-wave dispersion on a conducting graphene sheet.

One explicit dispersion relation (`wavenumber`) gives the complex in-plane
wavenumber of either polarization.  `solve_mode` selects the supported
polarization from the sign of the conductivity's reactive part and
derives the transverse decay constant and group velocity; the effective
wavelength and propagation length follow from the solved mode.  Each takes
the conductivity at one frequency or over a sweep (`Conductivity` arrays)
and works elementwise; complex products go through `_cmul`, so an element
of a sweep has the bits of its one-point call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import _cmul
from .material import CONSTANTS, Conductivity, GrapheneParams, conductivity_slope

TM = "TM"
TE = "TE"


class UnsupportedModeError(ValueError):
    """Requested polarization lies on the improper sheet (field grows away
    from the graphene) for the given conductivity."""


@dataclass(frozen=True)
class SppMode:
    """One solved surface-plasmon mode, or one polarization over a sweep
    (omega, k, q0, v_g and supported then arrays of one shape, checked
    elementwise).

    k is the complex in-plane wavenumber (1/m), q0 the complex transverse
    decay constant (1/m), v_g the group velocity (m/s, nan when the mode
    is unsupported).
    """

    polarization: str
    omega: float | np.ndarray
    k: complex | np.ndarray
    q0: complex | np.ndarray
    v_g: float | np.ndarray
    supported: bool | np.ndarray
    eps_r: float

    def __post_init__(self):
        if self.polarization not in (TM, TE):
            raise ValueError("polarization must be 'TM' or 'TE'")
        k, q0, v_g = np.asarray(self.k), np.asarray(self.q0), np.asarray(self.v_g, dtype=float)
        supported = np.asarray(self.supported, dtype=bool)
        if (k.imag < -1e-12 * abs(k)).any():
            raise ValueError("forward-propagating mode needs Im(k) >= 0")
        if (supported & ~(q0.real > 0.0)).any():
            raise ValueError("supported mode needs Re(q0) > 0")
        c_bg = CONSTANTS.c0 / math.sqrt(self.eps_r)
        if (supported & ~(np.isnan(v_g) | (0.0 < v_g) & (v_g <= c_bg * (1.0 + 1e-9)))).any():
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
    """TM for inductive sheets (Im sigma > 0), TE for capacitive, else None;
    on a sweep, the polarization that every frequency supports, else None."""
    imag = np.asarray(sigma.value).imag
    if (imag > 0.0).all():
        return TM
    if (imag < 0.0).all():
        return TE
    return None


def _kappa(polarization: str, sigma: Conductivity, eps_r: float):
    """(r, kappa) of the dispersion relation kappa^2 = eps_r*(1 - r^2),
    kappa = k/k0 on the forward branch."""
    if (np.asarray(sigma.value) == 0).any():
        raise ValueError(f"sigma = 0: graphene absent, {polarization} dispersion undefined")
    eta = _impedance(eps_r)
    if polarization == TM:
        r = 2.0 / (sigma.value * eta)
    elif polarization == TE:
        r = sigma.value * eta / 2.0
    else:
        raise ValueError("polarization must be 'TM' or 'TE'")
    kappa = np.sqrt(np.asarray(eps_r * (1.0 - _cmul(r, r)), dtype=complex))
    # kappa^2 fixes the mode only up to sign; pick the root decaying in +x
    kappa = np.where((kappa.imag < 0.0) | ((kappa.imag == 0.0) & (kappa.real < 0.0)), -kappa, kappa)
    return r, kappa if kappa.ndim else complex(kappa)


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
    and sigma' from `conductivity_slope`.  nan where kappa = 0 or the
    slope is not positive.
    """
    omega = sigma.omega
    r, kappa = _kappa(polarization, sigma, params.eps_r)
    r_ratio = conductivity_slope(params, sigma) / sigma.value
    dr = _cmul(-r if polarization == TM else r, r_ratio)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.real((kappa - _cmul(omega * params.eps_r * r, dr) / kappa) / CONSTANTS.c0)
        v_g = np.where((kappa != 0) & (slope > 0.0), 1.0 / slope, math.nan)
    return v_g if v_g.ndim else float(v_g)


def propagation_length(mode: SppMode):
    """1/e flux decay length 1/(2*k0*kappa''); +inf for a lossless mode."""
    k2 = np.asarray(mode.k).imag
    with np.errstate(divide="ignore"):
        length = np.where(k2 == 0.0, math.inf, 1.0 / (2.0 * k2))
    return length if length.ndim else float(length)


def effective_wavelength(mode: SppMode):
    """On-sheet wavelength 2*pi/Re(k)."""
    return 2.0 * math.pi / mode.k.real


def solve_mode(params: GrapheneParams, sigma: Conductivity,
               polarization: str | None = None) -> SppMode:
    """Solve the dispersion relation at sigma.omega, with sigma the
    conductivity there (`conductivity(params, omega)`), at one frequency or
    over a sweep.

    With polarization=None the supported polarization is selected from
    the sign of Im sigma (on a sweep, the one every frequency supports);
    passing an explicit polarization returns that branch, flagged
    unsupported where it lies on the improper sheet.  The group velocity is
    evaluated, in one call, at the supported frequencies only.
    """
    pol = polarization or supported_polarization(sigma)
    if pol is None:
        raise UnsupportedModeError("Im sigma = 0 (or changes sign along the sweep): neither TM nor TE is supported")
    imag = np.imag(sigma.value)
    supported = imag > 0.0 if pol == TM else imag < 0.0
    v_g = np.full(np.shape(imag), math.nan)
    if np.any(supported):
        v_g[supported] = group_velocity(params, Conductivity(
            value=np.asarray(sigma.value)[supported], omega=np.asarray(sigma.omega)[supported]), pol)
    # The group velocity is only a transport speed where dispersion is
    # normal; inside absorption windows it can exceed c0/sqrt(eps_r) and is
    # reported as nan there.
    v_g[~(v_g <= CONSTANTS.c0 / math.sqrt(params.eps_r) * (1.0 + 1e-9))] = math.nan
    if v_g.ndim == 0:
        v_g, supported = float(v_g), bool(supported)
    return SppMode(polarization=pol, omega=sigma.omega, k=wavenumber(pol, sigma, params.eps_r),
                   q0=transverse_q0(pol, sigma, params.eps_r), v_g=v_g,
                   supported=supported, eps_r=params.eps_r)
