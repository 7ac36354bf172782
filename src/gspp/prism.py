"""Otto-configuration prism coupling to graphene surface waves.

Geometry: prism (relative permittivity eps1) occupies z >= d, a vacuum gap
fills 0 <= z <= d, the graphene sheet sits at z = 0 and the half-space
below is vacuum.  A plane wave inside the prism hits the prism-gap
interface at angle theta_i; past the critical angle its evanescent tail
tunnels across the gap and can excite the surface wave.

The boundary-value problem is a 4x4 linear system per (omega, theta):
tangential-E continuity at z = d and z = 0 plus the H-field jump sigma*E
across the sheet.  Grids and scans stack their systems and solve them in
one batch; a single solve is the one-point case.  Phases are referenced
at z = d for the prism waves and z = 0 for the transmitted wave; the
transmitted wave carries e^{-i kz0 z} with the principal branch of
kz0 = sqrt(k0^2 - kx^2), which decays downward in the evanescent regime.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from ._zgrid import graded_nodes
from .dispersion import TE, TM, solve_mode, supported_polarization
from .material import CONSTANTS, GrapheneParams, conductivity
from .quantize import _lossless_mode, mode_function, mode_normalization, tm_parallel_amplitude
from scipy.integrate import simpson


class NotResonant(RuntimeError):
    """No usable reflectance minimum: the angle is below the critical angle
    or the scan window contains no dip below R = 0.99."""


class ValidityWarning(UserWarning):
    """The overlap model assumes negligible field energy inside the prism
    relative to the coupling region; this run violates that."""


@dataclass(frozen=True)
class PrismGeometry:
    """Prism permittivity, prism-graphene spacing d (m), incidence angle
    theta_i (rad) and the polarization driven."""

    eps1: float
    d: float
    theta_i: float
    polarization: str

    def __post_init__(self):
        if self.eps1 <= 1.0:
            raise ValueError("prism permittivity must exceed 1")
        if self.d <= 0.0:
            raise ValueError("spacing d must be > 0")
        if not 0.0 < self.theta_i < math.pi / 2.0:
            raise ValueError("incidence angle must lie in (0, pi/2)")
        if self.polarization not in (TM, TE):
            raise ValueError("polarization must be 'TM' or 'TE'")


@dataclass(frozen=True)
class AtrSolution:
    """Field amplitudes for unit incident amplitude.

    r and tau are the reflection and transmission parameters; m1/m2 the
    gap amplitudes, with the up-going wave m1 e^{+i kz0 z} referenced at
    z = 0 and the down-going wave m2 e^{-i kz0 (z-d)} at z = d (this keeps
    the linear system well conditioned at any spacing); t is the
    transmitted amplitude at z = 0.  For the TM case the amplitudes are
    the H_y amplitudes of each wave.
    """

    r: complex
    tau: complex
    m1: complex
    m2: complex
    t: complex
    omega: float
    polarization: str
    k_x: complex
    k_z_prism: complex
    k_z_gap: complex
    sigma: complex
    eps1: float
    d: float

    @property
    def reflectance(self) -> float:
        return float(abs(self.r) ** 2)


def critical_angle(eps1: float) -> float:
    """Total-internal-reflection angle arcsin(1/sqrt(eps1)), radians."""
    if eps1 < 1.0:
        raise ValueError("eps1 must be >= 1")
    return math.asin(1.0 / math.sqrt(eps1))


def _require_vacuum_background(params: GrapheneParams) -> None:
    if params.eps_r != 1.0:
        raise ValueError("the prism model assumes vacuum on both sides of the "
                         "graphene (eps_r = 1)")


def _atr_amplitudes(eps1: float, d: float, polarization: str, thetas, sigmas, omegas):
    """Solve the boundary systems of many (theta, sigma, omega) points as
    one stacked batch.  The three inputs broadcast to a common shape S;
    returns the amplitudes (r, m1, m2, t) with shape S + (4,), and kx, kz1
    and kz0 with shape S.  Raises ArithmeticError when any system's
    condition number is above 1e12 or not finite."""
    omegas = np.asarray(omegas, dtype=float)
    sigmas = np.asarray(sigmas, dtype=complex)
    k0 = omegas / CONSTANTS.c0
    k1 = math.sqrt(eps1) * k0
    kx = k1 * np.sin(thetas)
    kz1 = k1 * np.cos(thetas)
    kz0 = np.sqrt((k0 * k0 - kx * kx).astype(complex))
    u = np.exp(1j * kz0 * d)

    shape = np.broadcast_shapes(kz0.shape, sigmas.shape)
    mat = np.zeros(shape + (4, 4), dtype=complex)
    rhs = np.zeros(shape + (4, 1), dtype=complex)
    mat[..., 0, 0] = 1.0
    mat[..., 0, 1] = -u
    mat[..., 0, 2] = -1.0
    mat[..., 2, 1] = 1.0
    rhs[..., 0, 0] = -1.0
    if polarization == TE:
        # unknowns (r, m1, m2, t): E_y amplitudes
        smu = sigmas * CONSTANTS.mu0 * omegas
        mat[..., 1, 0] = -kz1
        mat[..., 1, 1] = kz0 * u
        mat[..., 1, 2] = -kz0
        mat[..., 2, 2] = u
        mat[..., 2, 3] = -1.0
        mat[..., 3, 1] = -kz0
        mat[..., 3, 2] = kz0 * u
        mat[..., 3, 3] = -(kz0 + smu)
        rhs[..., 1, 0] = -kz1
    else:
        # unknowns (r, m1, m2, t): H_y amplitudes
        se = sigmas * kz0 / (omegas * CONSTANTS.eps0)
        mat[..., 1, 0] = kz1 / eps1
        mat[..., 1, 1] = -kz0 * u
        mat[..., 1, 2] = kz0
        mat[..., 2, 2] = -u
        mat[..., 2, 3] = 1.0
        mat[..., 3, 1] = -1.0
        mat[..., 3, 2] = -u
        mat[..., 3, 3] = 1.0 + se
        rhs[..., 1, 0] = kz1 / eps1

    cond = np.linalg.cond(mat)
    bad = ~np.isfinite(cond) | (cond > 1e12)
    if np.any(bad):
        value = np.asarray(cond)[bad][0]
        raise ArithmeticError(f"singular ATR boundary system (condition number {value:.3e})")
    return np.linalg.solve(mat, rhs)[..., 0], kx, kz1, kz0


def atr_solve_sigma(geom: PrismGeometry, sigma: complex, omega: float) -> AtrSolution:
    """Solve the three-region reflection/transmission problem for a given
    sheet conductivity (the graphene-free limit is sigma -> 0)."""
    amps, kx, kz1, kz0 = _atr_amplitudes(geom.eps1, geom.d, geom.polarization,
                                         geom.theta_i, sigma, omega)
    r, m1, m2, t = (complex(a) for a in amps)
    kz0 = complex(kz0)
    if geom.polarization == TE:
        tau = t
    else:
        tau = complex(np.sqrt(kz0 / kz1)) * math.sqrt(geom.eps1) * t
    return AtrSolution(r=r, tau=complex(tau), m1=m1, m2=m2, t=t, omega=omega,
                       polarization=geom.polarization, k_x=complex(kx),
                       k_z_prism=complex(kz1), k_z_gap=kz0, sigma=complex(sigma),
                       eps1=geom.eps1, d=geom.d)


def atr_solve(geom: PrismGeometry, params: GrapheneParams, omega: float) -> AtrSolution:
    """Solve the three-region problem with the graphene conductivity at omega."""
    _require_vacuum_background(params)
    sigma = conductivity(params, omega).value
    return atr_solve_sigma(geom, sigma, omega)


def boundary_residuals(sol: AtrSolution) -> np.ndarray:
    """Residuals of the four boundary equations for the returned amplitudes
    (all should vanish to machine precision)."""
    kz0, kz1, d = sol.k_z_gap, sol.k_z_prism, sol.d
    u = cmath.exp(1j * kz0 * d)
    r, m1, m2, t = sol.r, sol.m1, sol.m2, sol.t
    if sol.polarization == TE:
        smu = sol.sigma * CONSTANTS.mu0 * sol.omega
        res = [
            (1.0 + r) - (m1 * u + m2),
            kz1 * (1.0 - r) - kz0 * (-m1 * u + m2),
            (m1 + m2 * u) - t,
            kz0 * (-m1 + m2 * u) - kz0 * t - smu * t,
        ]
    else:
        se = sol.sigma * kz0 / (sol.omega * CONSTANTS.eps0)
        res = [
            (1.0 + r) - (m1 * u + m2),
            (kz1 / sol.eps1) * (r - 1.0) - kz0 * (m1 * u - m2),
            (m1 - m2 * u) + t,
            t - (m1 + m2 * u) + se * t,
        ]
    return np.array(res, dtype=complex)


def reflectance_map(thetas, omegas, eps1: float, d: float, polarization: str,
                    params: GrapheneParams) -> np.ndarray:
    """Reflectance R = |r|^2 on the (omega, theta) grid, shape
    (len(omegas), len(thetas)).  The conductivity is evaluated once per
    frequency row; the whole grid is solved as one batch."""
    _require_vacuum_background(params)
    thetas = np.asarray(thetas, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    for th in thetas:
        PrismGeometry(eps1=eps1, d=d, theta_i=float(th), polarization=polarization)
    sigmas = np.array([conductivity(params, float(w)).value for w in omegas], dtype=complex)
    amps = _atr_amplitudes(eps1, d, polarization, thetas[None, :],
                           sigmas[:, None], omegas[:, None])[0]
    return np.abs(amps[..., 0]) ** 2


def matching_frequency(geom: PrismGeometry, params: GrapheneParams,
                       omega_lo: float, omega_hi: float, n_scan: int = 400) -> float:
    """Frequency of the reflectance minimum: coarse scan on
    [omega_lo, omega_hi], solved as one batch, refined by golden-section
    search.

    Raises NotResonant below the critical angle or when the scan window
    has no minimum with R < 0.99.
    """
    if geom.theta_i <= critical_angle(geom.eps1):
        raise NotResonant("incidence below the critical angle: no surface-wave excitation")
    _require_vacuum_background(params)
    omegas = np.linspace(omega_lo, omega_hi, n_scan)
    sigmas = np.array([conductivity(params, float(w)).value for w in omegas], dtype=complex)
    amps = _atr_amplitudes(geom.eps1, geom.d, geom.polarization, geom.theta_i,
                           sigmas, omegas)[0]
    refl = np.abs(amps[:, 0]) ** 2
    i_min = int(np.argmin(refl))
    if refl[i_min] > 0.99:
        raise NotResonant(f"no reflectance dip below 0.99 in the scan window "
                          f"(min R = {refl[i_min]:.4f})")
    if i_min == 0 or i_min == n_scan - 1:
        return float(omegas[i_min])
    res = minimize_scalar(
        lambda w: atr_solve(geom, params, float(w)).reflectance,
        bracket=(omegas[i_min - 1], omegas[i_min], omegas[i_min + 1]),
        method="golden", options={"xtol": 1e-10})
    return float(res.x)


def lossless_matching_frequency(geom: PrismGeometry, params: GrapheneParams,
                                omega_lo: float, omega_hi: float, n_scan: int = 2000) -> float:
    """Root of the momentum-matching condition using the reactive
    conductivity only: sigma''*eta = -2*sqrt(eps1 sin^2 - 1) (TE) or
    +2/sqrt(eps1 sin^2 - 1) (TM)."""
    if geom.theta_i <= critical_angle(geom.eps1):
        raise NotResonant("incidence below the critical angle")
    from scipy.optimize import brentq
    eta = math.sqrt(CONSTANTS.mu0 / CONSTANTS.eps0)
    root = math.sqrt(geom.eps1 * math.sin(geom.theta_i) ** 2 - 1.0)
    target = -2.0 * root if geom.polarization == TE else 2.0 / root

    def mismatch(w):
        sig = conductivity(params, float(w))
        return sig.imag * eta - target

    omegas = np.linspace(omega_lo, omega_hi, n_scan)
    vals = np.array([mismatch(w) for w in omegas])
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if len(sign_change) == 0:
        raise NotResonant("no momentum-matching root in the window")
    i = int(sign_change[0])
    return float(brentq(mismatch, omegas[i], omegas[i + 1], xtol=1e-3))


# ---------------------------------------------------------------------------
# photon-mode profiles and the overlap transmission coefficient

def _photon_profile(sol: AtrSolution):
    """Vector potential shape of the lower-region photon mode and its curl.

    Returns (profile, curl) callables of z valid for z <= d: the gap field
    for 0 <= z <= d and the transmitted field below.  Shapes are A = E/(i
    omega); curl A = mu0 H.  The overall scale is arbitrary (it cancels in
    the normalized overlap).
    """
    kz0, kx, w = sol.k_z_gap, sol.k_x, sol.omega
    mu0, eps0 = CONSTANTS.mu0, CONSTANTS.eps0

    def gap_waves(z):
        up = sol.m1 * np.exp(1j * kz0 * z)
        down = sol.m2 * np.exp(-1j * kz0 * (z - sol.d))
        return up, down

    if sol.polarization == TE:
        def e_field(z):
            z = np.asarray(z, dtype=float)
            up, down = gap_waves(z)
            low = sol.t * np.exp(-1j * kz0 * z)
            out = np.zeros(z.shape + (3,), dtype=complex)
            out[..., 1] = np.where(z >= 0.0, up + down, low)
            return out

        def h_field(z):
            z = np.asarray(z, dtype=float)
            up, down = gap_waves(z)
            # H = (1/(i w mu0)) curl E; per e^{iqz} component H_x = -q/(w mu0) E_y,
            # H_z = kx/(w mu0) E_y
            hx_gap = -(kz0 * up - kz0 * down) / (w * mu0)
            hx_low = (kz0 * sol.t * np.exp(-1j * kz0 * z)) / (w * mu0)
            hz = kx / (w * mu0) * np.where(z >= 0.0, up + down,
                                           sol.t * np.exp(-1j * kz0 * z))
            out = np.zeros(z.shape + (3,), dtype=complex)
            out[..., 0] = np.where(z >= 0.0, hx_gap, hx_low)
            out[..., 2] = hz
            return out
    else:
        def h_field(z):
            z = np.asarray(z, dtype=float)
            up, down = gap_waves(z)
            low = sol.t * np.exp(-1j * kz0 * z)
            out = np.zeros(z.shape + (3,), dtype=complex)
            out[..., 1] = np.where(z >= 0.0, up + down, low)
            return out

        def e_field(z):
            z = np.asarray(z, dtype=float)
            up, down = gap_waves(z)
            # per e^{iqz} component with eps = 1: E_x = q/(w eps0) H_y,
            # E_z = -kx/(w eps0) H_y
            ex_gap = (kz0 * up - kz0 * down) / (w * eps0)
            ex_low = -(kz0 * sol.t * np.exp(-1j * kz0 * z)) / (w * eps0)
            ez = -kx / (w * eps0) * np.where(z >= 0.0, up + down,
                                             sol.t * np.exp(-1j * kz0 * z))
            out = np.zeros(z.shape + (3,), dtype=complex)
            out[..., 0] = np.where(z >= 0.0, ex_gap, ex_low)
            out[..., 2] = ez
            return out

    def profile(z):
        return e_field(z) / (1j * w)

    def curl(z):
        return mu0 * h_field(z)

    return profile, curl


def prism_mode_normalization(geom: PrismGeometry, params: GrapheneParams, omega: float,
                             n_points: int = 2048) -> float:
    """Quantization length of the lower-region photon mode by the same
    Hamiltonian-integral method used for the surface wave: half the
    integral of |A|^2 + (c0/omega)^2 |curl A|^2 over [-z_ext, d] plus the
    sheet term |sigma''|/(2 eps0 omega)|A_par(0)|^2.  Defined for the
    evanescent-gap regime (theta above the critical angle)."""
    if geom.theta_i <= critical_angle(geom.eps1):
        raise NotResonant("theta below the critical angle: gap field not evanescent")
    sol = atr_solve(geom, params, omega)
    return _photon_norm_from_solution(sol, sol.sigma.imag, n_points)


def _photon_norm_from_solution(sol: AtrSolution, sigma_pp: float, n_points: int) -> float:
    profile, curl = _photon_profile(sol)
    c2w2 = (CONSTANTS.c0 / sol.omega) ** 2

    def density(z):
        p = profile(z)
        c = curl(z)
        return (np.sum(np.abs(p) ** 2, axis=-1)
                + c2w2 * np.sum(np.abs(c) ** 2, axis=-1))

    decay_below = abs(np.imag(-sol.k_z_gap))
    if decay_below <= 0.0:
        raise ValueError("transmitted field is not evanescent; no finite mode energy")
    z_ext = 40.0 / decay_below
    n_side = n_points // 2 + 1
    z_neg, jac_neg = graded_nodes(z_ext, decay_below, n_side)
    zb = -z_neg
    zb[0] = -1e-300  # fields jump across the sheet; stay on the lower side
    below = simpson(density(zb) * jac_neg, dx=1.0 / (n_side - 1))
    z_gap = np.linspace(0.0, sol.d, n_side)
    gap = simpson(density(z_gap), x=z_gap)

    a0 = profile(np.array(0.0))
    a_par_sq = abs(a0[..., 0]) ** 2 + abs(a0[..., 1]) ** 2
    surface = abs(sigma_pp) / (2.0 * CONSTANTS.eps0 * sol.omega) * float(a_par_sq)
    n_len = 0.5 * float(below + gap) + surface
    if not n_len > 0.0:
        raise ValueError("non-positive photon-mode normalization")
    return n_len


def prism_energy_fraction(sol: AtrSolution, n_lower: float) -> float:
    """Standing-wave field energy inside the prism, taken over a depth
    equal to the lower region's own extent (gap plus one decay length of
    the transmitted tail), relative to the lower-region mode energy.  The
    overlap model assumes this ratio is small: at resonance the tunneled
    fields are strongly enhanced and dominate the normalization."""
    w = sol.omega
    kz1 = sol.k_z_prism.real
    k1_sq = abs(sol.k_x) ** 2 + kz1 * kz1
    amp_sq = 1.0 + abs(sol.r) ** 2
    c2w2 = (CONSTANTS.c0 / w) ** 2
    if sol.polarization == TE:
        # E_y amplitude 1; |A|^2 = |E|^2/w^2, |curl A|^2 = mu0^2 |H|^2
        density = amp_sq * (1.0 / w**2 + c2w2 * k1_sq / w**2)
    else:
        # H_y amplitude 1; E = (k/(w eps0 eps1)) H
        e_sq = k1_sq / (w * CONSTANTS.eps0 * sol.eps1) ** 2
        density = amp_sq * (e_sq / w**2 + c2w2 * CONSTANTS.mu0 ** 2)
    decay_below = abs(np.imag(-sol.k_z_gap))
    depth = sol.d + (0.5 / decay_below if decay_below > 0.0 else sol.d)
    prism_energy = 0.5 * density * depth
    return float(prism_energy / n_lower)


def overlap_beta(geom: PrismGeometry, params: GrapheneParams, omega: float,
                 n_points: int = 2048) -> complex:
    """Overlap transmission coefficient of the photon into the surface wave.

    beta* = sqrt(1 - |r|^2) * <Psi_L, phi> / sqrt(N_Psi N_phi) with the
    overlap integral on z in [-z_ext, d]; frequency and in-plane momentum
    matching are enforced by evaluating both modes at the same omega (call
    at or near the matching frequency).  Raises when the gap field is not
    evanescent (theta below the critical angle).
    """
    _require_vacuum_background(params)
    if geom.theta_i <= critical_angle(geom.eps1):
        raise NotResonant("theta below the critical angle: gap field not evanescent")
    sol = atr_solve(geom, params, omega)
    sig = conductivity(params, omega)
    if supported_polarization(sig) != geom.polarization:
        raise ValueError(f"{geom.polarization} surface wave not supported at this "
                         f"frequency (Im sigma = {sig.imag:.3e} S)")

    spp = _lossless_mode(geom.polarization, omega, sig.imag, params.eps_r)
    n_phi = mode_normalization(geom.polarization, spp, params, n_points)
    n_psi = _photon_norm_from_solution(sol, sig.imag, n_points)

    profile, _ = _photon_profile(sol)
    q0 = spp.q0.real
    decay_below = max(abs(np.imag(-sol.k_z_gap)), abs(sol.k_z_gap) * 1e-3)
    rate = decay_below + q0
    z_ext = 40.0 / rate
    n_side = n_points // 2 + 1

    z_neg, jac_neg = graded_nodes(z_ext, rate, n_side)
    zb = -z_neg
    zb[0] = -1e-300  # stay on the lower side of the sheet discontinuity
    integrand_below = np.sum(profile(zb) * np.conj(mode_function(geom.polarization, spp, zb)),
                             axis=-1)
    below = simpson(integrand_below * jac_neg, dx=1.0 / (n_side - 1))

    z_gap = np.linspace(0.0, geom.d, n_side)
    integrand_gap = np.sum(profile(z_gap) * np.conj(mode_function(geom.polarization, spp, z_gap)),
                           axis=-1)
    gap = simpson(integrand_gap, x=z_gap)

    overlap = (below + gap) / math.sqrt(n_psi * n_phi)
    beta_conj = math.sqrt(max(0.0, 1.0 - abs(sol.r) ** 2)) * overlap
    beta = complex(np.conj(beta_conj))

    frac = prism_energy_fraction(sol, n_psi)
    if frac > 1.0:
        warnings.warn(f"field energy in the prism is not negligible "
                      f"(ratio {frac:.2f}); the overlap model is marginal here",
                      ValidityWarning, stacklevel=2)
    return beta


def beta_sweep(geom: PrismGeometry, params: GrapheneParams, omega: float,
               d_values, n_points: int = 1024) -> np.ndarray:
    """beta as a function of prism-graphene spacing at fixed omega/theta."""
    from dataclasses import replace
    out = np.empty(len(d_values), dtype=complex)
    for i, d in enumerate(d_values):
        out[i] = overlap_beta(replace(geom, d=float(d)), params, omega, n_points)
    return out


def beta_sweep_matched(geom: PrismGeometry, params: GrapheneParams,
                       omega_lo: float, omega_hi: float, d_values,
                       n_scan: int = 1200, n_points: int = 1024):
    """beta versus spacing with the evaluation frequency refined to the
    reflectance dip for each spacing (the dip shifts and narrows as the
    coupling weakens, especially for the sharp below-edge TE resonance).

    Returns (betas, dip_omegas); spacings whose window holds no usable dip
    yield beta = 0 and omega = nan.
    """
    from dataclasses import replace
    betas = np.zeros(len(d_values), dtype=complex)
    dips = np.full(len(d_values), math.nan)
    for i, d in enumerate(d_values):
        g2 = replace(geom, d=float(d))
        try:
            w_star = matching_frequency(g2, params, omega_lo, omega_hi,
                                        n_scan=n_scan)
        except NotResonant:
            continue
        dips[i] = w_star
        betas[i] = overlap_beta(g2, params, w_star, n_points)
    return betas, dips


def coupling_from_beta(beta: complex) -> complex:
    """Coupling angle g = e^{i arg beta} arcsin|beta|, |g| in [0, pi/2]."""
    mag = abs(beta)
    if mag > 1.0 + 1e-9:
        raise ValueError(f"|beta| = {mag} exceeds 1")
    mag = min(mag, 1.0)
    if mag == 0.0:
        return 0.0 + 0.0j
    return cmath.exp(1j * cmath.phase(beta)) * math.asin(mag)
