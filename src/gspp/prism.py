"""Otto-configuration prism coupling to graphene surface waves.

Geometry: prism (relative permittivity eps1) occupies z >= d, a vacuum gap
fills 0 <= z <= d, the graphene sheet sits at z = 0 and the half-space
below is vacuum.  A plane wave inside the prism hits the prism-gap
interface at angle theta_i; past the critical angle its evanescent tail
tunnels across the gap and can excite the surface wave.

The boundary-value problem (tangential-E continuity at z = d and z = 0
plus the H-field jump sigma*E across the sheet) has closed-form Airy
amplitudes for this three-layer stack.  One solver, `_atr_solve`, evaluates
them elementwise over a geometry's sweep and a batch of frequencies and
returns an AtrSolution; `atr_solve_sigma` is its one-point case.
Phases are referenced at z = d for the prism waves and z = 0 for the
transmitted wave; the transmitted wave carries e^{-i kz0 z} with the
principal branch of kz0 = sqrt(k0^2 - kx^2), which decays downward in
the evanescent regime.

The photon mode below the prism is a sum of exponentials in z, read off
the ATR amplitudes as quantize.Waves; its normalization and its overlap
with the surface wave are exact integrals, with no sampling grid.  Each
entry point reads its sweep from the PrismGeometry (d or theta_i, not
both, an array).  A spacing sweep is one batch: `overlap_sweep` solves the
stacks, both mode normalizations and the overlaps of every spacing in one
call, and `matching_frequency` scans every spacing's window as one
(spacings x scan) batch.  `overlap_beta` is the one-point case, so an
element of a sweep has the bits of its one-point call.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .coupling import _cmul
from .dispersion import TE, TM
from .material import CONSTANTS, GrapheneParams, conductivity
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
    theta_i (rad) and the polarization driven; d or theta_i, not both, may
    be an array, a spacing or an angle sweep, checked element by element."""

    eps1: float
    d: float | np.ndarray
    theta_i: float | np.ndarray
    polarization: str

    def __post_init__(self):
        if not self.eps1 > 1.0:
            raise ValueError(f"prism permittivity must exceed 1, got eps1 = {self.eps1}")
        d, theta = np.asarray(self.d, dtype=float), np.asarray(self.theta_i, dtype=float)
        if d.ndim and theta.ndim:
            raise ValueError("a geometry holds one sweep, not both a spacing sweep "
                             "and an angle sweep")
        if (bad := d[~(d > 0.0)]).size:
            raise ValueError(f"spacing d must be > 0, got {bad[0]}")
        if (bad := theta[~((0.0 < theta) & (theta < math.pi / 2.0))]).size:
            raise ValueError(f"incidence angle must lie in (0, pi/2), got {bad[0]}")
        if self.polarization not in (TM, TE):
            raise ValueError("polarization must be 'TM' or 'TE'")


@dataclass(frozen=True)
class AtrSolution:
    """Field amplitudes for unit incident amplitude, as _atr_solve returns
    them: every field but polarization and eps1 an array of one shape, a
    batch, or Python scalars at one point (atr_solve_sigma).

    r is the reflection amplitude; m1/m2 the gap amplitudes, with the
    up-going wave m1 e^{+i kz0 z} referenced at z = 0 and the down-going
    wave m2 e^{-i kz0 (z-d)} at z = d, so neither grows with the spacing;
    t is the transmitted amplitude at z = 0.  For the TM case the
    amplitudes are the H_y amplitudes of each wave.
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


def _reflectance(r) -> np.ndarray:
    """AtrSolution.reflectance of each amplitude in r: abs(r) ** 2 (libm pow),
    not numpy's square, so a batch agrees with the one-point solve."""
    return np.array([abs(v) ** 2 for v in np.ravel(r).tolist()]).reshape(np.shape(r))


def critical_angle(eps1: float) -> float:
    """Total-internal-reflection angle arcsin(1/sqrt(eps1)), radians."""
    if not eps1 >= 1.0:
        raise ValueError(f"eps1 must be >= 1, got {eps1}")
    return math.asin(1.0 / math.sqrt(eps1))


def _require_vacuum_background(params: GrapheneParams) -> None:
    if params.eps_r != 1.0:
        raise ValueError("the prism model assumes vacuum on both sides of the "
                         "graphene (eps_r = 1)")


def _require_evanescent_gap(geom: PrismGeometry, params: GrapheneParams) -> None:
    """The checks of every entry point that couples to the surface wave: vacuum
    around the sheet, and one incidence angle, above the critical angle."""
    _require_vacuum_background(params)
    if np.ndim(geom.theta_i):
        raise ValueError("surface-wave coupling takes one incidence angle, not an angle sweep")
    if not geom.theta_i > critical_angle(geom.eps1):
        raise NotResonant(f"incidence angle {geom.theta_i} rad not above the critical angle")


# smallest |den| / (|1 + q| + |rho u^2| |1 - q|) of an ATR stack that is solved
_MIN_DEN_RATIO = 1e-12


def _atr_solve(geom: PrismGeometry, sigmas, omegas) -> AtrSolution:
    """The ATR solutions of geom's points (its sweep, if any) at the
    (sigma, omega) points; d, theta_i, sigmas and omegas broadcast to one
    shape, to which every field of the solution is broadcast on return.

    The sheet reflects the down-going gap wave, referenced at z = 0, with
    rho; q is the gap-to-prism admittance ratio.  With u = e^{i kz0 d}:
    m2 = 2/den, den = (1 + q) + rho u^2 (1 - q), r = m2 (1 + rho u^2) - 1,
    m1 = rho u m2 and t = (1 +- rho) u m2 (+ for TE, - for TM).  Complex
    products go through _cmul, so a batch gives each point's one-point bits.

    Raises ArithmeticError, naming the first offending ratio, when |den| is
    not above _MIN_DEN_RATIO times |1 + q| + |rho u^2| |1 - q|.  A nan or
    infinite input makes that ratio nan, which is rejected too, so every
    amplitude returned is finite."""
    eps1, polarization = geom.eps1, geom.polarization
    omegas = np.asarray(omegas, dtype=float)
    sigmas = np.asarray(sigmas, dtype=complex)
    k0 = omegas / CONSTANTS.c0
    k1 = math.sqrt(eps1) * k0
    kx = k1 * np.sin(geom.theta_i)
    kz1 = k1 * np.cos(geom.theta_i)
    kz0 = np.sqrt((k0 * k0 - kx * kx).astype(complex))
    u = np.exp(1j * kz0 * geom.d)
    if polarization == TE:
        # E_y amplitudes
        smu = sigmas * CONSTANTS.mu0 * omegas
        rho = -smu / (2.0 * kz0 + smu)
        q = kz0 / kz1
    else:
        # H_y amplitudes
        se = _cmul(sigmas, kz0) / (omegas * CONSTANTS.eps0)
        rho = se / (2.0 + se)
        q = eps1 * kz0 / kz1
    rho_u2 = _cmul(rho, _cmul(u, u))
    den = (1.0 + q) + _cmul(rho_u2, 1.0 - q)
    ratio = np.abs(den) / (np.abs(1.0 + q) + np.abs(rho_u2) * np.abs(1.0 - q))
    bad = ~(ratio > _MIN_DEN_RATIO)
    if np.any(bad):
        raise ArithmeticError(f"singular ATR stack (denominator ratio {ratio[bad][0]:.3e})")
    m2 = 2.0 / den
    rho_u = _cmul(rho, u)
    t_factor = u + rho_u if polarization == TE else u - rho_u
    r, m1, m2, t, omega, kx, kz1, kz0, sigma, d = np.broadcast_arrays(
        _cmul(m2, 1.0 + rho_u2) - 1.0, _cmul(rho_u, m2), m2, _cmul(t_factor, m2),
        omegas, kx, kz1, kz0, sigmas, geom.d)
    return AtrSolution(r=r, m1=m1, m2=m2, t=t, omega=omega, polarization=polarization,
                       k_x=kx, k_z_prism=kz1, k_z_gap=kz0, sigma=sigma, eps1=eps1, d=d)


def atr_solve_sigma(geom: PrismGeometry, sigma: complex, omega: float) -> AtrSolution:
    """Solve the three-region reflection/transmission problem of a one-point
    geometry for a given sheet conductivity (the graphene-free limit is
    sigma -> 0); the one-point case of _atr_solve, with Python scalar fields."""
    if np.ndim(geom.d) or np.ndim(geom.theta_i):
        raise ValueError("atr_solve_sigma solves one point, not a spacing or an angle sweep")
    sol = _atr_solve(geom, sigma, omega)
    return replace(sol, omega=omega, d=geom.d, **{
        name: complex(getattr(sol, name))
        for name in ("r", "m1", "m2", "t", "k_x", "k_z_prism", "k_z_gap", "sigma")})


def reflectance_map(geom: PrismGeometry, params: GrapheneParams, omegas) -> np.ndarray:
    """Reflectance R = |r|^2 with one row per frequency and one column per
    point of geom's sweep (one column for a one-point geometry).  The
    conductivity is evaluated once per frequency row, in one sweep; the
    whole grid is solved as one batch."""
    _require_vacuum_background(params)
    omegas = np.asarray(omegas, dtype=float)
    sigmas = conductivity(params, omegas).value
    return np.abs(_atr_solve(geom, sigmas[:, None], omegas[:, None]).r) ** 2


def matching_frequency(geom: PrismGeometry, params: GrapheneParams, omega_lo: float,
                       omega_hi: float, n_scan: int = 400) -> np.ndarray:
    """Frequency of the reflectance minimum at each spacing of geom (one for
    a one-point geometry): a coarse scan on [omega_lo, omega_hi], solved
    for every spacing as one (spacings x scan) batch, refined by one
    golden-section search over all spacings.  A dip on the window edge is
    not refined; a spacing whose window has no minimum with R < 0.99 gets
    nan.

    Raises NotResonant below the critical angle or when no spacing has a
    dip, and ValueError for fewer than three scan points, which cannot
    bracket a dip.
    """
    if n_scan < 3:
        raise ValueError(f"need at least 3 scan points to bracket a dip, got {n_scan}")
    _require_evanescent_gap(geom, params)
    d = np.atleast_1d(geom.d)
    omegas = np.linspace(omega_lo, omega_hi, n_scan)
    sigmas = conductivity(params, omegas).value
    refl = np.abs(_atr_solve(replace(geom, d=d[:, None]), sigmas, omegas).r) ** 2
    j = np.argmin(refl, axis=1)
    min_refl = refl[np.arange(len(d)), j]
    dipped = ~(min_refl > 0.99)
    if not dipped.any():
        raise NotResonant(f"no reflectance dip below 0.99 in the scan window "
                          f"(min R = {np.min(min_refl, initial=math.inf):.4f})")
    edge = (j == 0) | (j == n_scan - 1)
    dips = np.where(dipped & edge, omegas[j], math.nan)
    inner = np.flatnonzero(dipped & ~edge)
    if inner.size:
        brackets = omegas[j[inner, None] + np.arange(-1, 2)]
        dips[inner] = _golden_dips(replace(geom, d=d[inner]), params, brackets)
    return dips


def _golden_dips(geom: PrismGeometry, params: GrapheneParams,
                 brackets: np.ndarray) -> np.ndarray:
    """Reflectance minimum of each lane's bracket (xa, xb, xc), one lane per
    spacing of geom's sweep.  Each lane repeats the arithmetic of scipy's
    golden-section search (minimize_scalar, method='golden'): the same
    constant, update order and stopping rule, and its ValueError for a bad
    bracket.  Every step solves the live lanes' systems as one batch, with
    sigma computed at each lane's frequency in one sweep."""

    def reflectance(lanes, omegas):
        sigmas = conductivity(params, omegas).value
        return _reflectance(_atr_solve(replace(geom, d=geom.d[lanes]), sigmas, omegas).r)

    lanes = np.arange(len(geom.d))
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


# ---------------------------------------------------------------------------
# photon-mode profiles and the overlap transmission coefficient

def _photon_regions(sol: AtrSolution) -> list:
    """Vector potential A = E/(i omega) of the lower-region photon mode of a
    batched sol as (lo, hi, Waves) regions: below the sheet (z <= 0) the
    transmitted wave t, in the gap (0 <= z <= d) the up-going wave m1
    referenced at z = 0 and the down-going wave m2 referenced at z = d.
    The amplitudes are E_y for TE and H_y for TM, where
    A = curl H/(eps0 omega^2).  The overall scale is arbitrary (it cancels
    in the normalized overlap)."""
    s, w = 1j * sol.k_z_gap, sol.omega

    def potential(amps, rates, refs):
        vectors = np.zeros(amps.shape + (3,), dtype=complex)
        vectors[..., 1] = amps
        field = Waves(sol.k_x, vectors, rates, refs)
        if sol.polarization == TE:
            return replace(field, amps=field.amps / (1j * w)[..., None, None])
        curl_h = field.curl()
        return replace(curl_h, amps=curl_h.amps / (CONSTANTS.eps0 * w * w)[..., None, None])

    zero = np.zeros_like(sol.d)
    return [(-math.inf, 0.0, potential(sol.t[..., None], -s[..., None], zero[..., None])),
            (0.0, sol.d, potential(np.stack([sol.m1, sol.m2], axis=-1),
                                   np.stack([s, -s], axis=-1), np.stack([zero, sol.d], axis=-1)))]


def prism_mode_normalization(geom: PrismGeometry, params: GrapheneParams, omega: float):
    """Quantization length of the lower-region photon mode by the same
    Hamiltonian-integral method used for the surface wave: half the
    integral of |A|^2 + (c0/omega)^2 |curl A|^2 over z <= d plus the
    sheet term |sigma''|/(2 eps0 omega)|A_par(0)|^2; one per spacing of a
    spacing sweep.  Defined for the evanescent-gap regime (theta above the
    critical angle)."""
    _require_evanescent_gap(geom, params)
    sol = _atr_solve(geom, conductivity(params, omega).value, omega)
    return hamiltonian_norm(_photon_regions(sol), sol.sigma.imag, sol.omega)


def prism_energy_fraction(sol: AtrSolution, n_lower):
    """Standing-wave field energy inside the prism, taken over a depth
    equal to the lower region's own extent (gap plus one decay length of
    the transmitted tail), relative to the lower-region mode energy; one
    ratio per element of a batched sol.  The overlap model assumes this
    ratio is small: at resonance the tunneled fields are strongly enhanced
    and dominate the normalization."""
    w = sol.omega
    kz1 = np.real(sol.k_z_prism)
    k1_sq = np.abs(sol.k_x) ** 2 + kz1 * kz1
    amp_sq = 1.0 + _reflectance(sol.r)
    c2w2 = (CONSTANTS.c0 / w) ** 2
    if sol.polarization == TE:
        # E_y amplitude 1; |A|^2 = |E|^2/w^2, |curl A|^2 = mu0^2 |H|^2
        density = amp_sq * (1.0 / w**2 + c2w2 * k1_sq / w**2)
    else:
        # H_y amplitude 1; E = (k/(w eps0 eps1)) H
        e_sq = k1_sq / (w * CONSTANTS.eps0 * sol.eps1) ** 2
        density = amp_sq * (e_sq / w**2 + c2w2 * CONSTANTS.mu0 ** 2)
    decay_below = np.abs(np.imag(sol.k_z_gap))
    with np.errstate(divide="ignore"):
        depth = sol.d + np.where(decay_below > 0.0, 0.5 / decay_below, sol.d)
    return 0.5 * density * depth / n_lower


def overlap_sweep(geom: PrismGeometry, params: GrapheneParams,
                  omegas) -> tuple[np.ndarray, np.ndarray]:
    """beta (see overlap_beta) and the prism energy ratio
    (prism_energy_fraction) at each spacing of geom (one for a one-point
    geometry), solved as one batch.  omegas is one frequency, or one per
    spacing with nan where a spacing has no dip (beta 0, ratio nan).  The
    conductivity and the lossless surface wave are evaluated once at one
    frequency, else once per spacing in one call.

    Warns ValidityWarning once per ratio above 1, at the first caller
    outside this module.  Raises NotResonant below the critical angle,
    UnsupportedModeError when Im sigma does not support the polarization
    and ArithmeticError, naming the first failing ratio, at a singular
    stack.
    """
    _require_evanescent_gap(geom, params)
    d = np.atleast_1d(geom.d)
    omegas = np.asarray(omegas, dtype=float)
    live = ~np.isnan(omegas) if omegas.ndim else np.full(d.shape, True)
    betas = np.zeros(d.shape, dtype=complex)
    ratios = np.full(d.shape, math.nan)
    if not live.any():
        return betas, ratios
    omega = omegas[live] if omegas.ndim else omegas[None]
    sigma = conductivity(params, omega).value
    sol = _atr_solve(replace(geom, d=d[live]), sigma, omega)
    n_phi, spp_above, spp_below = lossless_spp_norm(geom.polarization, omega, sigma.imag, 1.0)
    regions = _photon_regions(sol)
    n_psi = hamiltonian_norm(regions, sol.sigma.imag, sol.omega)
    below, gap = (field for _, _, field in regions)
    overlap = (wave_integral(below, spp_below, -math.inf, 0.0)
               + wave_integral(gap, spp_above, 0.0, sol.d))
    absorbed = np.sqrt(np.maximum(0.0, 1.0 - _reflectance(sol.r)))
    betas[live] = np.conj(overlap) * (absorbed / np.sqrt(n_psi * n_phi))
    ratios[live] = prism_energy_fraction(sol, n_psi)

    frame, level = sys._getframe(1), 2
    while frame.f_code.co_filename == __file__:
        frame, level = frame.f_back, level + 1
    for ratio in ratios[ratios > 1.0]:
        warnings.warn(f"field energy in the prism is not negligible "
                      f"(ratio {ratio:.2f}); the overlap model is marginal here",
                      ValidityWarning, stacklevel=level)
    return betas, ratios


def overlap_beta(geom: PrismGeometry, params: GrapheneParams, omega: float) -> complex:
    """Overlap transmission coefficient of the photon into the surface wave.

    beta* = sqrt(1 - |r|^2) * <Psi_L, phi> / sqrt(N_Psi N_phi) with the
    overlap integral on z <= d in closed form; frequency and in-plane
    momentum matching are enforced by evaluating both modes at the same
    omega (call at or near the matching frequency).  The one-point case of
    overlap_sweep, whose warnings and errors it raises.
    """
    return overlap_sweep(geom, params, omega)[0].item()


def coupling_from_beta(beta: complex) -> complex:
    """Coupling angle g = e^{i arg beta} arcsin|beta|, |g| in [0, pi/2]."""
    mag = abs(beta)
    if not mag <= 1.0 + 1e-9:
        raise ValueError(f"|beta| must not exceed 1, got {mag}")
    mag = min(mag, 1.0)
    if mag == 0.0:
        return 0.0 + 0.0j
    return cmath.exp(1j * cmath.phase(beta)) * math.asin(mag)
