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

The photon mode below the prism is a sum of exponentials in z, read off
the ATR amplitudes as quantize.Waves; its normalization and its overlap
with the surface wave are exact integrals, with no sampling grid.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dispersion import TE, TM, supported_polarization
from .material import CONSTANTS, Conductivity, GrapheneParams, conductivity
from .quantize import Waves, hamiltonian_norm, lossless_spp_norm, wave_integral


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

    r is the reflection amplitude; m1/m2 the gap amplitudes, with the
    up-going wave m1 e^{+i kz0 z} referenced at z = 0 and the down-going
    wave m2 e^{-i kz0 (z-d)} at z = d (this keeps the linear system well
    conditioned at any spacing); t is the transmitted amplitude at z = 0.
    For the TM case the amplitudes are the H_y amplitudes of each wave.
    """

    r: complex
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


# largest 2-norm condition number of an ATR boundary system that is solved
_COND_LIMIT = 1e12


def _atr_amplitudes(eps1: float, d: float, polarization: str, thetas, sigmas, omegas):
    """Solve the boundary systems of many (d, theta, sigma, omega) points
    as one stacked batch.  The four inputs broadcast to a common shape S;
    returns the amplitudes (r, m1, m2, t) with shape S + (4,), and kx, kz1
    and kz0 with shape S.  Raises ArithmeticError when any system's
    condition number is above _COND_LIMIT or not finite."""
    omegas = np.asarray(omegas, dtype=float)
    sigmas = np.asarray(sigmas, dtype=complex)
    k0 = omegas / CONSTANTS.c0
    k1 = math.sqrt(eps1) * k0
    kx = k1 * np.sin(thetas)
    kz1 = k1 * np.cos(thetas)
    kz0 = np.sqrt((k0 * k0 - kx * kx).astype(complex))
    u = np.exp(1j * kz0 * d)

    shape = np.broadcast_shapes(np.shape(d), kz0.shape, sigmas.shape)
    mat = np.zeros(shape + (4, 4), dtype=complex)
    rhs = np.zeros(shape + (4,), dtype=complex)
    mat[..., 0, 0] = 1.0
    mat[..., 0, 1] = -u
    mat[..., 0, 2] = -1.0
    mat[..., 2, 1] = 1.0
    rhs[..., 0] = -1.0
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
        rhs[..., 1] = -kz1
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
        rhs[..., 1] = kz1 / eps1

    return _solve_screened(mat, rhs), kx, kz1, kz0


def _solve_screened(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions of a stack of 4x4 systems mat @ x = rhs, rhs of shape
    S + (4,).  Raises ArithmeticError when a system has non-finite entries
    or a 2-norm condition number kappa above _COND_LIMIT.

    One solve takes [rhs | I], so it returns the inverse too, and
    kappa <= ||A||_F ||A^-1||_F screens the systems: only those whose bound
    is not below half the limit, or all of them when the solve meets an
    exactly singular one, get np.linalg.cond, a full SVD.  A system is
    rejected exactly when np.linalg.cond is above the limit."""
    if not np.all(np.isfinite(mat)):
        raise ArithmeticError("ATR boundary system with non-finite entries "
                              "(condition number undefined)")
    aug = np.zeros(mat.shape[:-1] + (5,), dtype=complex)
    aug[..., 0] = rhs
    aug[..., 1:] = np.eye(4)
    try:
        sol = np.linalg.solve(mat, aug)
    except np.linalg.LinAlgError:
        _reject_ill_conditioned(mat)
        raise
    bound = np.linalg.norm(mat, axis=(-2, -1)) * np.linalg.norm(sol[..., 1:], axis=(-2, -1))
    _reject_ill_conditioned(mat[~(bound <= 0.5 * _COND_LIMIT)])
    return sol[..., 0]


def _reject_ill_conditioned(mat: np.ndarray) -> None:
    """Raise ArithmeticError, naming the first offender, when a system of
    the stack has np.linalg.cond above _COND_LIMIT or not finite."""
    cond = np.linalg.cond(mat)
    bad = ~np.isfinite(cond) | (cond > _COND_LIMIT)
    if np.any(bad):
        value = np.asarray(cond)[bad][0]
        raise ArithmeticError(f"singular ATR boundary system (condition number {value:.3e})")


def atr_solve_sigma(geom: PrismGeometry, sigma: complex, omega: float) -> AtrSolution:
    """Solve the three-region reflection/transmission problem for a given
    sheet conductivity (the graphene-free limit is sigma -> 0)."""
    amps, kx, kz1, kz0 = _atr_amplitudes(geom.eps1, geom.d, geom.polarization,
                                         geom.theta_i, sigma, omega)
    r, m1, m2, t = (complex(a) for a in amps)
    return AtrSolution(r=r, m1=m1, m2=m2, t=t, omega=omega,
                       polarization=geom.polarization, k_x=complex(kx),
                       k_z_prism=complex(kz1), k_z_gap=complex(kz0), sigma=complex(sigma),
                       eps1=geom.eps1, d=geom.d)


def atr_solve(geom: PrismGeometry, params: GrapheneParams, omega: float) -> AtrSolution:
    """Solve the three-region problem with the graphene conductivity at omega."""
    _require_vacuum_background(params)
    sigma = conductivity(params, omega).value
    return atr_solve_sigma(geom, sigma, omega)


def _sigmas(params: GrapheneParams, omegas) -> np.ndarray:
    """Sheet conductivity at each frequency."""
    return np.array([conductivity(params, float(w)).value for w in omegas], dtype=complex)


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
    sigmas = _sigmas(params, omegas)
    amps = _atr_amplitudes(eps1, d, polarization, thetas[None, :],
                           sigmas[:, None], omegas[:, None])[0]
    return np.abs(amps[..., 0]) ** 2


def matching_frequency(geom: PrismGeometry, params: GrapheneParams, omega_lo: float,
                       omega_hi: float, d_values, n_scan: int = 400) -> np.ndarray:
    """Frequency of the reflectance minimum at each spacing in d_values
    (geom.d is not used): a coarse scan on [omega_lo, omega_hi], solved one
    spacing at a time as a batch over the scan, refined by one golden-section
    search over all spacings.  A dip on the window edge is not refined; a
    spacing whose window has no minimum with R < 0.99 gets nan.

    Raises NotResonant below the critical angle or when no spacing has a
    dip, and ValueError for fewer than three scan points, which cannot
    bracket a dip.
    """
    if n_scan < 3:
        raise ValueError(f"need at least 3 scan points to bracket a dip, got {n_scan}")
    if geom.theta_i <= critical_angle(geom.eps1):
        raise NotResonant("incidence below the critical angle: no surface-wave excitation")
    _require_vacuum_background(params)
    d_values = np.asarray(d_values, dtype=float)
    omegas = np.linspace(omega_lo, omega_hi, n_scan)
    sigmas = _sigmas(params, omegas)
    dips = np.full(d_values.shape, math.nan)
    inner, brackets = [], []
    min_refl = math.inf
    for i, d in enumerate(d_values):
        amps = _atr_amplitudes(geom.eps1, float(d), geom.polarization, geom.theta_i,
                               sigmas, omegas)[0]
        refl = np.abs(amps[:, 0]) ** 2
        j = int(np.argmin(refl))
        min_refl = min(min_refl, refl[j])
        if refl[j] > 0.99:
            continue
        if j == 0 or j == n_scan - 1:
            dips[i] = omegas[j]
        else:
            inner.append(i)
            brackets.append(omegas[j - 1:j + 2])
    if not inner and np.all(np.isnan(dips)):
        raise NotResonant(f"no reflectance dip below 0.99 in the scan window "
                          f"(min R = {min_refl:.4f})")
    if inner:
        dips[inner] = _golden_dips(geom, params, d_values[inner], np.array(brackets))
    return dips


def _golden_dips(geom: PrismGeometry, params: GrapheneParams, d: np.ndarray,
                 brackets: np.ndarray) -> np.ndarray:
    """Reflectance minimum of each lane's bracket (xa, xb, xc), one lane per
    spacing d.  Each lane repeats the arithmetic of scipy's golden-section
    search (minimize_scalar, method='golden'): the same constant, update
    order and stopping rule, and its ValueError for a bad bracket.  Every
    step solves the live lanes' systems as one batch, with sigma computed
    at each lane's frequency."""

    def reflectance(lanes, omegas):
        sigmas = _sigmas(params, omegas)
        r = _atr_amplitudes(geom.eps1, d[lanes], geom.polarization, geom.theta_i,
                            sigmas, omegas)[0][:, 0]
        # AtrSolution.reflectance's abs(r) ** 2 (libm pow), not numpy's square
        return np.array([abs(complex(v)) ** 2 for v in r])

    lanes = np.arange(len(d))
    xa, xb, xc = brackets.T
    xa, xc = np.where(xa > xc, xc, xa), np.where(xa > xc, xa, xc)
    fa, fb, fc = np.split(reflectance(np.tile(lanes, 3), np.concatenate([xa, xb, xc])), 3)
    if not np.all((xa < xb) & (xb < xc) & (fb < fa) & (fb < fc)):
        raise ValueError("Bracketing values (xa, xb, xc) do not fulfill the requirements "
                         "xa < xb < xc and f(xb) < f(xa), f(xc)")

    g_r = 0.61803399  # scipy's golden-ratio conjugate, to its eight digits
    g_c = 1.0 - g_r
    xtol, maxiter = 1e-10, 5000  # the xtol the search always ran at; scipy's maxiter
    x0, x3 = xa, xc
    wide = np.abs(xc - xb) > np.abs(xb - xa)
    x1 = np.where(wide, xb, xb - g_c * (xb - xa))
    x2 = np.where(wide, xb + g_c * (xc - xb), xb)
    f1, f2 = np.split(reflectance(np.tile(lanes, 2), np.concatenate([x1, x2])), 2)
    for _ in range(maxiter):
        live = np.flatnonzero(~(np.abs(x3 - x0) <= xtol * (np.abs(x1) + np.abs(x2))))
        if live.size == 0:
            break
        up = f2[live] < f1[live]
        hi, lo = live[up], live[~up]
        x0[hi], x1[hi], f1[hi] = x1[hi], x2[hi], f2[hi]
        x2[hi] = g_r * x1[hi] + g_c * x3[hi]
        x3[lo], x2[lo], f2[lo] = x2[lo], x1[lo], f1[lo]
        x1[lo] = g_r * x2[lo] + g_c * x0[lo]
        f_new = reflectance(live, np.where(up, x2[live], x1[live]))
        f2[hi], f1[lo] = f_new[up], f_new[~up]
    return np.where(f1 < f2, x1, x2)


def lossless_matching_frequency(geom: PrismGeometry, params: GrapheneParams,
                                omega_lo: float, omega_hi: float, n_scan: int = 2000) -> float:
    """Root of the momentum-matching condition using the reactive
    conductivity only: sigma''*eta = -2*sqrt(eps1 sin^2 - 1) (TE) or
    +2/sqrt(eps1 sin^2 - 1) (TM)."""
    if geom.theta_i <= critical_angle(geom.eps1):
        raise NotResonant("incidence below the critical angle")
    from scipy.optimize import brentq
    root = math.sqrt(geom.eps1 * math.sin(geom.theta_i) ** 2 - 1.0)
    target = -2.0 * root if geom.polarization == TE else 2.0 / root

    def mismatch(w):
        sig = conductivity(params, float(w))
        return sig.imag * CONSTANTS.eta0 - target

    omegas = np.linspace(omega_lo, omega_hi, n_scan)
    vals = np.array([mismatch(w) for w in omegas])
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if len(sign_change) == 0:
        raise NotResonant("no momentum-matching root in the window")
    i = int(sign_change[0])
    return float(brentq(mismatch, omegas[i], omegas[i + 1], xtol=1e-3))


# ---------------------------------------------------------------------------
# photon-mode profiles and the overlap transmission coefficient

def _photon_regions(sol: AtrSolution) -> list:
    """Vector potential A = E/(i omega) of the lower-region photon mode as
    (lo, hi, Waves) regions: below the sheet (z <= 0) the transmitted wave
    t, in the gap (0 <= z <= d) the up-going wave m1 referenced at z = 0
    and the down-going wave m2 referenced at z = d.  The amplitudes are E_y
    for TE and H_y for TM, where A = curl H/(eps0 omega^2).  The overall
    scale is arbitrary (it cancels in the normalized overlap)."""
    s, w = 1j * sol.k_z_gap, sol.omega

    def potential(amps, rates, refs):
        field = Waves(sol.k_x, np.outer(amps, (0.0, 1.0, 0.0)), np.array(rates), np.array(refs))
        if sol.polarization == TE:
            return replace(field, amps=field.amps / (1j * w))
        curl_h = field.curl()
        return replace(curl_h, amps=curl_h.amps / (CONSTANTS.eps0 * w * w))

    return [(-math.inf, 0.0, potential([sol.t], [-s], [0.0])),
            (0.0, sol.d, potential([sol.m1, sol.m2], [s, -s], [0.0, sol.d]))]


def prism_mode_normalization(geom: PrismGeometry, params: GrapheneParams, omega: float) -> float:
    """Quantization length of the lower-region photon mode by the same
    Hamiltonian-integral method used for the surface wave: half the
    integral of |A|^2 + (c0/omega)^2 |curl A|^2 over z <= d plus the
    sheet term |sigma''|/(2 eps0 omega)|A_par(0)|^2.  Defined for the
    evanescent-gap regime (theta above the critical angle)."""
    if geom.theta_i <= critical_angle(geom.eps1):
        raise NotResonant("theta below the critical angle: gap field not evanescent")
    sol = atr_solve(geom, params, omega)
    return hamiltonian_norm(_photon_regions(sol), sol.sigma.imag, omega)


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


def overlap_beta(geom: PrismGeometry, params: GrapheneParams, omega: float) -> complex:
    """Overlap transmission coefficient of the photon into the surface wave.

    beta* = sqrt(1 - |r|^2) * <Psi_L, phi> / sqrt(N_Psi N_phi) with the
    overlap integral on z <= d in closed form; frequency and in-plane
    momentum matching are enforced by evaluating both modes at the same
    omega (call at or near the matching frequency).  Raises when the gap
    field is not evanescent (theta below the critical angle).
    """
    _require_vacuum_background(params)
    return _overlap_beta(geom, conductivity(params, omega).value, omega)


def _overlap_beta(geom: PrismGeometry, sigma: complex, omega: float) -> complex:
    """overlap_beta at a given sheet conductivity, on the vacuum background
    (eps_r = 1) its callers check.  The ValidityWarning points at the
    caller of the public function that called this one."""
    if geom.theta_i <= critical_angle(geom.eps1):
        raise NotResonant("theta below the critical angle: gap field not evanescent")
    sol = atr_solve_sigma(geom, sigma, omega)
    sigma_pp = sol.sigma.imag
    if supported_polarization(Conductivity(sol.sigma, omega)) != geom.polarization:
        raise ValueError(f"{geom.polarization} surface wave not supported at this "
                         f"frequency (Im sigma = {sigma_pp:.3e} S)")

    n_phi, spp_above, spp_below = lossless_spp_norm(geom.polarization, omega, sigma_pp, 1.0)
    regions = _photon_regions(sol)
    n_psi = hamiltonian_norm(regions, sigma_pp, omega)
    below, gap = (field for _, _, field in regions)
    overlap = (wave_integral(below, spp_below, -math.inf, 0.0)
               + wave_integral(gap, spp_above, 0.0, geom.d))
    beta_conj = math.sqrt(max(0.0, 1.0 - abs(sol.r) ** 2)) * overlap / math.sqrt(n_psi * n_phi)
    beta = complex(np.conj(beta_conj))

    frac = prism_energy_fraction(sol, n_psi)
    if frac > 1.0:
        warnings.warn(f"field energy in the prism is not negligible "
                      f"(ratio {frac:.2f}); the overlap model is marginal here",
                      ValidityWarning, stacklevel=3)
    return beta


def beta_sweep(geom: PrismGeometry, params: GrapheneParams, omega: float,
               d_values) -> np.ndarray:
    """beta as a function of prism-graphene spacing at fixed omega/theta;
    the conductivity is evaluated once."""
    _require_vacuum_background(params)
    sigma = conductivity(params, omega).value
    out = np.empty(len(d_values), dtype=complex)
    for i, d in enumerate(d_values):
        out[i] = _overlap_beta(replace(geom, d=float(d)), sigma, omega)
    return out


def beta_sweep_matched(geom: PrismGeometry, params: GrapheneParams,
                       omega_lo: float, omega_hi: float, d_values, n_scan: int = 1200):
    """beta versus spacing with the evaluation frequency refined to the
    reflectance dip for each spacing (the dip shifts and narrows as the
    coupling weakens, especially for the sharp below-edge TE resonance).

    Returns (betas, dip_omegas); spacings whose window holds no usable dip
    yield beta = 0 and omega = nan.  Raises NotResonant when no spacing
    has one.
    """
    dips = matching_frequency(geom, params, omega_lo, omega_hi, d_values, n_scan=n_scan)
    betas = np.zeros(len(dips), dtype=complex)
    for i, (d, w_star) in enumerate(zip(d_values, dips.tolist())):
        if not math.isnan(w_star):
            betas[i] = overlap_beta(replace(geom, d=float(d)), params, w_star)
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
