"""Graphene sheet conductivity.

Two evaluation paths are provided: the full finite-temperature form
(intraband Drude term plus an interband integral over the Fermi-Dirac
occupation difference) and the closed-form low-temperature limit (Drude
term plus step and logarithm).  `conductivity_slope` gives d sigma/d omega
on the same two paths.  All internal arithmetic is in SI; the
chemical potential is accepted in eV at the API boundary and converted
once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported at the first call: only the
    finite-temperature interband conductivity integral needs it, and the
    scipy import costs more than the rest of gspp's start-up."""
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not converge within its subdivision budget."""

    def __init__(self, message: str, error_estimate: float):
        super().__init__(f"{message} (attained error estimate {error_estimate:.3e})")
        self.error_estimate = error_estimate


class LogSingularityError(ValueError):
    """Low-temperature conductivity requested exactly at the interband
    logarithm singularity (photon energy equal to twice the chemical
    potential).  Offset the frequency slightly; the dispersion results
    are meaningless at the singular point."""


_MU0 = 1.25663706127e-06  # vacuum permeability, N/A^2
_C0 = 299792458.0  # speed of light, m/s


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants used throughout (CODATA 2022, as literals: e, kB and c0
    are exact in the SI, hbar is h/(2*pi) with h exact, mu0 is measured;
    eps0 is derived from mu0 and c0 so that c0^2*eps0*mu0 = 1 holds
    exactly)."""

    e: float = 1.602176634e-19
    hbar: float = 1.0545718176461565e-34
    kB: float = 1.380649e-23
    eps0: float = 1.0 / (_MU0 * _C0**2)
    mu0: float = _MU0
    c0: float = _C0

    def __post_init__(self):
        for name in ("e", "hbar", "kB", "eps0", "mu0", "c0"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"constant {name} must be positive")
        if abs(self.c0**2 * self.eps0 * self.mu0 - 1.0) > 1e-12:
            raise ValueError("constants violate c0^2 = 1/(eps0*mu0)")

    @property
    def eta0(self) -> float:
        """Vacuum wave impedance sqrt(mu0/eps0), ohms."""
        return math.sqrt(self.mu0 / self.eps0)


CONSTANTS = PhysicalConstants()

# Intraband scattering times reported for graphene: ~0.35 ps at room
# temperature, 3-5 ps at cryogenic temperature; interband 0.0658 ps.
TAU_INTRA_300K = 0.35e-12
TAU_INTRA_LOWT = 5.0e-12
TAU_INTER_DEFAULT = 0.0658e-12


def default_tau_intra(temperature: float) -> float:
    """Standard intraband scattering time (s): 0.35 ps at temperatures
    >= 150 K, 5 ps below."""
    return TAU_INTRA_300K if temperature >= 150.0 else TAU_INTRA_LOWT


@dataclass(frozen=True)
class GrapheneParams:
    """Material state of the graphene sheet.

    mu_c is the chemical potential in eV; gamma_intra / gamma_inter are
    the intraband and interband scattering rates in rad/s; eps_r is the
    relative permittivity of the (symmetric) background; n_layers scales
    the sheet conductivity for N closely spaced monolayers.
    """

    mu_c: float
    temperature: float
    gamma_intra: float
    gamma_inter: float
    eps_r: float = 1.0
    n_layers: int = 1
    # 'auto' dispatches on kB*T vs min(|mu_c|, hbar*omega); 'full' or 'low'
    # pin the evaluation path.  Near the interband edge the gamma-less
    # low-T closed form is log-singular, so edge studies at cryogenic
    # temperature should pin 'full'.
    conductivity_model: str = "auto"

    def __post_init__(self):
        for name in ("mu_c", "temperature", "gamma_intra", "gamma_inter", "eps_r", "n_layers"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.temperature < 0.0:
            raise ValueError("temperature must be >= 0 K")
        if self.gamma_intra <= 0.0:
            raise ValueError("gamma_intra must be > 0")
        if self.gamma_inter <= 0.0:
            raise ValueError("gamma_inter must be > 0")
        if self.eps_r < 1.0:
            raise ValueError("eps_r must be >= 1")
        if self.n_layers < 1 or int(self.n_layers) != self.n_layers:
            raise ValueError("n_layers must be a positive integer")
        if self.conductivity_model not in ("auto", "full", "low"):
            raise ValueError("conductivity_model must be 'auto', 'full' or 'low'")

    @classmethod
    def with_default_rates(cls, mu_c: float, temperature: float,
                           eps_r: float = 1.0, n_layers: int = 1) -> "GrapheneParams":
        """Build params with the standard scattering times: intraband
        default_tau_intra(temperature); interband 1/gamma = 0.0658 ps."""
        return cls(mu_c=mu_c, temperature=temperature,
                   gamma_intra=1.0 / default_tau_intra(temperature),
                   gamma_inter=1.0 / TAU_INTER_DEFAULT,
                   eps_r=eps_r, n_layers=n_layers)


@dataclass(frozen=True)
class Conductivity:
    """Complex sheet conductivity (S) evaluated at radian frequency omega."""

    value: complex
    omega: float

    @property
    def real(self) -> float:
        return self.value.real

    @property
    def imag(self) -> float:
        return self.value.imag


def sigma_min() -> float:
    """Universal sheet conductivity pi*e^2/(2h) = e^2/(4*hbar), siemens."""
    return CONSTANTS.e**2 / (4.0 * CONSTANTS.hbar)


def _intraband_full(params: GrapheneParams, omega: float) -> complex:
    """Drude-like intraband term of the finite-temperature conductivity."""
    k = CONSTANTS
    kT = k.kB * params.temperature
    mu = abs(params.mu_c) * k.e
    x = mu / kT
    bracket = x + 2.0 * math.log1p(math.exp(-x))
    return 1j * k.e**2 * kT * bracket / (math.pi * k.hbar**2 * (omega + 1j * params.gamma_intra))


def _interband_integral(params: GrapheneParams, omega: float, power: int) -> complex:
    """Integral over u > 0 of d(u)/(abar^2 - u^2)^power, with d(u) the Fermi
    occupation difference and abar = (omega + i*gamma_inter)/omega.

    Power 1 is the interband conductivity's energy integral, power 2 its
    omega-derivative kernel K2.  The energy integral is rescaled with
    eps = hbar*omega*u/2 so the (gamma-shifted) resonance sits at u ~ abar.
    Both powers share the scales, the pole and onset and the cut: the
    integral runs on [0, u_cut] where d(u) still deviates from 1; beyond
    u_cut it is 1 to machine precision and the remainder is added in closed
    form (power 1) or as a series in (abar/u_cut)^2 (power 2), so the
    truncation error is far below 1e-10 of the accumulated value.  Power 1
    runs adaptive QUADPACK with the pole and onset as breakpoints, power 2
    a fixed-panel Gauss-Legendre rule.
    Raises QuadratureError when an adaptive run exhausts its subdivisions
    or the panel rule's error estimate exceeds 1e-9 and 1e-9 of its value.
    """
    k = CONSTANTS
    kT = k.kB * params.temperature
    mu = abs(params.mu_c) * k.e
    abar = (omega + 1j * params.gamma_inter) / omega
    s = float(k.hbar * omega / (2.0 * kT))      # u -> energy/kT scale
    xmu = float(mu / kT)

    u_step = 2.0 * mu / (k.hbar * omega)          # interband onset
    step_width = 2.0 * kT / (k.hbar * omega)
    u_cut = max(4.0, 3.0 * abs(abar), u_step + 60.0 * step_width + 2.0)

    pole = abar.real if abar.real > 0 else abs(abar)
    pole_width = max(abar.imag, 1e-3)

    if power == 2:
        # Remainder for u > u_cut, where d(u) == 1: with v = u_cut/u and
        # r = (abar/u_cut)^2, |r| <= 1/9 as u_cut >= 3|abar|, it is
        # u_cut^-3 * integral over [0, 1] of v^2/(1 - r v^2)^2 dv
        # = u_cut^-3 * sum over n of (n + 1) r^n/(2n + 3).  The closed form
        # is two terms near 1/(2 abar^2 u_cut) that cancel to about
        # 1/(3 u_cut^3), losing their last digits.
        r = (abar / u_cut) ** 2
        tail = 0.0
        for c in _TAIL_SERIES:
            tail = tail * r + c
        tail /= u_cut**3
        # Composite Gauss-Legendre on panels whose lengths double away from
        # the pole and the onset, every node in one array: the 16-point
        # rule, with the 12-point rule on the same panels as its estimate.
        # The pole's panels are sized by the resonance's own width
        # Im(abar) = gamma_inter/omega, however narrow, not by the floored
        # pole_width of the quad breakpoints.
        nodes, weights = _panel_rule()
        po, so = _doublings(abar.imag, u_cut), _doublings(step_width, u_cut)
        edges = np.concatenate(([0.0, u_cut, pole, u_step], pole + po, pole - po,
                                u_step + so, u_step - so))
        edges = np.unique(np.clip(edges, 0.0, u_cut))
        lo, length = edges[:-1, None], np.diff(edges)[:, None]
        t = length * nodes
        u = lo + t
        # d(u) = sinh(a)/(cosh(a) + cosh(xmu)) with a = s*u > 0, top and
        # bottom divided by exp(max(a, xmu)): no exponential overflows, and
        # no two occupations near 1 are subtracted
        a = s * u
        e = np.exp(-np.abs(a - xmu))
        d = (np.where(a < xmu, e, 1.0) * -np.expm1(-2.0 * a)
             / ((1.0 + np.exp(-(a + xmu))) * (1.0 + e)))
        # abar^2 - u^2 as (abar - u)(abar + u), with Re(abar) - u taken from
        # the panel's own offset t: abar^2 - u^2 itself loses 1e-16 absolute
        # to cancellation, relative 1e-16/Im(abar) next to a narrow pole
        denom = ((abar.real - lo) - t + 1j * abar.imag) * (abar + u)
        fine, coarse = ((length * d / (denom * denom)) @ weights).sum(axis=0)
        # quad's epsabs and epsrel of 1e-9: where K2 is far below 1 (a narrow
        # resonance at low frequency), rounding of about 1e-17 alone can
        # exceed 1e-9 of it
        if abs(fine - coarse) > 1e-9 * max(1.0, abs(fine)):
            raise QuadratureError("interband conductivity slope integral did not converge",
                                  float(abs(fine - coarse)))
        return complex(fine) + tail
    # closed-form remainder for u > u_cut with d(u) == 1; at u -> inf the
    # log tends to -i*pi
    tail = (-1j * math.pi - np.log((abar + u_cut) / (abar - u_cut))) / (2.0 * abar)

    raw_points = [pole - 3 * pole_width, pole, pole + 3 * pole_width,
                  u_step - 30 * step_width, u_step, u_step + 30 * step_width]
    points = sorted({p for p in raw_points if 0.0 < p < u_cut})

    # The integrand runs in plain floats but equals the numpy-scalar form
    # bit for bit: expit(x) is 1/(1 + exp(-x)), and 0 where exp(-x)
    # overflows; it divides by Smith's method with scl = 1/denominator, as
    # numpy divides a float64 by a complex scalar (Python's complex
    # division differs in the last bit).  Both quad runs sample the same
    # nodes, so the imaginary run reads the values the real run cached by u.
    exp = math.exp
    aa = abar * abar
    aa_re, bi = float(aa.real), float(aa.imag)
    abs_bi = abs(bi)
    cached_imag = {}

    def real_part(u):
        su = s * u
        try:
            f_minus = 1.0 / (1.0 + exp(-(xmu - su)))
        except OverflowError:
            f_minus = 0.0
        d = 1.0 / (1.0 + exp(-(xmu + su))) - f_minus
        br = aa_re - u * u
        if abs(br) >= abs_bi:
            rat = bi / br
            scl = 1.0 / (br + bi * rat)
            cached_imag[u] = (0.0 - d * rat) * scl
            return (d + 0.0 * rat) * scl
        rat = br / bi
        scl = 1.0 / (bi + br * rat)
        cached_imag[u] = (0.0 * rat - d) * scl
        return (d * rat + 0.0) * scl

    def imag_part(u):
        if u not in cached_imag:
            real_part(u)
        return cached_imag[u]

    pieces = []
    for integrand in (real_part, imag_part):
        out = quad(integrand, 0.0, u_cut, points=points,
                   epsabs=1e-9, epsrel=1e-9, limit=400, full_output=1)
        if len(out) > 3:
            raise QuadratureError("interband conductivity integral did not converge", out[1])
        pieces.append(out[0])
    return pieces[0] + 1j * pieces[1] + tail


_POWERS_OF_TWO = 2.0 ** np.arange(-3.0, 1024.0)
# (n + 1)/(2n + 3) for n = 19 down to 0, in Horner order: the 20 terms of
# K2's tail series leave 9^-20 of its first
_TAIL_SERIES = tuple((n + 1) / (2 * n + 3) for n in range(19, -1, -1))


def _doublings(width, reach):
    """Offsets width*{2^-3, 2^-2, ...} of panel edges from a feature of the
    given width, panels doubling in length away from it, out to the first
    offset that covers reach (reach >= 3 widths here, so never empty)."""
    return width * _POWERS_OF_TWO[:math.ceil(math.log2(reach / width)) + 4]


@functools.cache
def _panel_rule():
    """Nodes on [0, 1] of the 16-point Gauss-Legendre rule followed by the
    12-point rule's, and a (28, 2) weight matrix whose columns apply each
    rule to its own nodes.  Built at the first K2, so start-up does not
    import numpy.polynomial."""
    x16, w16 = np.polynomial.legendre.leggauss(16)
    x12, w12 = np.polynomial.legendre.leggauss(12)
    weights = np.zeros((28, 2))
    weights[:16, 0], weights[16:, 1] = 0.5 * w16, 0.5 * w12
    return 0.5 * (1.0 + np.concatenate((x16, x12))), weights


def _interband_full(params: GrapheneParams, omega: float) -> complex:
    """Interband term of the finite-temperature conductivity."""
    k = CONSTANTS
    a = omega + 1j * params.gamma_inter
    return (1j * k.e**2 * a * _interband_integral(params, omega, 1)
            / (2.0 * math.pi * k.hbar * omega))


def conductivity_full(params: GrapheneParams, omega: float) -> Conductivity:
    """Finite-temperature sheet conductivity (intraband + interband integral).

    Requires temperature > 0; at T = 0 the closed low-temperature form is
    the appropriate (and exact) limit.
    """
    if omega <= 0.0:
        raise ValueError("omega must be > 0")
    if params.temperature <= 0.0:
        raise ValueError("finite-temperature form needs T > 0; use conductivity_lowT at T = 0")
    value = _intraband_full(params, omega) + _interband_full(params, omega)
    return Conductivity(value=params.n_layers * value, omega=omega)


def conductivity_lowT(params: GrapheneParams, omega: float) -> Conductivity:
    """Low-temperature closed form: Drude term plus interband step and log.

    Valid for kB*T << min(|mu_c|, hbar*omega).  Exactly at
    hbar*omega = 2*|mu_c| the logarithm diverges and a
    LogSingularityError is raised.
    """
    if omega <= 0.0:
        raise ValueError("omega must be > 0")
    k = CONSTANTS
    mu = abs(params.mu_c) * k.e
    hw = k.hbar * omega
    drude = 1j * k.e**2 * mu / (math.pi * k.hbar**2 * (omega + 1j * params.gamma_intra))
    if mu == 0.0:
        inter = k.e**2 / (4.0 * k.hbar)
    else:
        if hw == 2.0 * mu:
            raise LogSingularityError(
                "hbar*omega equals 2*mu_c exactly; offset omega away from the log singularity")
        step = 1.0 if hw > 2.0 * mu else 0.0
        inter = k.e**2 / (4.0 * k.hbar) * (step + 1j / math.pi * math.log(abs((hw - 2.0 * mu) / (hw + 2.0 * mu))))
    return Conductivity(value=params.n_layers * (drude + inter), omega=omega)


def select_mode(params: GrapheneParams, omega: float) -> str:
    """Backend for params at omega: the one params.conductivity_model pins
    ('full' or 'low'), or under 'auto' the low-T form when
    kB*T < 0.01*min(|mu_c|, hbar*omega), and always at T = 0, where the
    full form is undefined."""
    if params.conductivity_model != "auto":
        return params.conductivity_model
    kT = CONSTANTS.kB * params.temperature
    scale = min(abs(params.mu_c) * CONSTANTS.e, CONSTANTS.hbar * omega)
    return "low" if kT == 0.0 or kT < 0.01 * scale else "full"


def conductivity(params: GrapheneParams, omega: float) -> Conductivity:
    """Sheet conductivity on the backend `select_mode` picks."""
    if select_mode(params, omega) == "full":
        return conductivity_full(params, omega)
    return conductivity_lowT(params, omega)


def conductivity_slope(params: GrapheneParams, sigma: Conductivity) -> complex:
    """d sigma/d omega (S s) at sigma.omega, where sigma = conductivity(params,
    sigma.omega), on the backend `select_mode` picks.

    Full form: each term carries a factor 1/(omega + i*gamma), whose
    derivative gives -sigma_intra/(omega + i*gamma_intra) and
    sigma_inter/(omega + i*gamma_inter); differentiating the interband
    denominator adds -(i e^2 abar^2/(pi hbar omega))*K2.  Low-T form: the
    closed form differentiated.
    """
    omega = sigma.omega
    k = CONSTANTS
    n = params.n_layers
    if select_mode(params, omega) == "full":
        intra = _intraband_full(params, omega)
        inter = sigma.value / n - intra
        abar = (omega + 1j * params.gamma_inter) / omega
        kernel = 1j * k.e**2 * abar**2 / (math.pi * k.hbar * omega) * _interband_integral(params, omega, 2)
        return n * (inter / (omega + 1j * params.gamma_inter)
                    - intra / (omega + 1j * params.gamma_intra) - kernel)
    mu = abs(params.mu_c) * k.e
    hw = k.hbar * omega
    a = omega + 1j * params.gamma_intra
    slope = -1j * k.e**2 * mu / (math.pi * k.hbar**2 * a * a)
    if mu != 0.0:
        if hw == 2.0 * mu:
            raise LogSingularityError(
                "hbar*omega equals 2*mu_c exactly; offset omega away from the log singularity")
        slope += 1j * k.e**2 * mu / (math.pi * (hw - 2.0 * mu) * (hw + 2.0 * mu))
    return n * slope
