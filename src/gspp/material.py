"""Graphene sheet conductivity.

Two evaluation paths are provided: the full finite-temperature form
(intraband Drude term plus an interband integral over the Fermi-Dirac
occupation difference) and the closed-form low-temperature limit (Drude
term plus step and logarithm).  `select_mode` picks one per material, not
per frequency: the full form at T > 0, the closed form at T = 0, unless
params pin one.  `conductivity_slope` gives d sigma/d omega on the same
path.  Both take one frequency or an array of them: the closed form and
the slope kernel run as numpy expressions over the whole sweep, the full
form's integral one frequency at a time, and each element of a sweep has
the bits of its one-point call.  All internal arithmetic is in SI; the
chemical potential is in eV at the API boundary, converted once.
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
    """A quadrature missed its tolerance at a frequency: adaptive QUADPACK
    ran out of subdivisions, or a fixed rule's error estimate is too large.
    On a sweep it names the first frequency that failed."""

    def __init__(self, message: str, error_estimate: float, omega: float):
        self.frequency_hz = float(omega) / (2.0 * math.pi)
        super().__init__(f"{message} at {self.frequency_hz:.9g} Hz"
                         f" (attained error estimate {error_estimate:.3e})")
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
    # 'auto' takes the full form at T > 0 and the closed form at T = 0;
    # 'full' or 'low' pin the evaluation path for every frequency.
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
    """Complex sheet conductivity (S) evaluated at radian frequency omega:
    one point, or a sweep with value and omega arrays of one shape."""

    value: complex | np.ndarray
    omega: float | np.ndarray

    @property
    def real(self) -> float | np.ndarray:
        return self.value.real

    @property
    def imag(self) -> float | np.ndarray:
        return self.value.imag


def sigma_min() -> float:
    """Universal sheet conductivity pi*e^2/(2h) = e^2/(4*hbar), siemens."""
    return CONSTANTS.e**2 / (4.0 * CONSTANTS.hbar)


def _intraband_full(params: GrapheneParams, omega):
    """Drude-like intraband term of the finite-temperature conductivity."""
    k = CONSTANTS
    kT = k.kB * params.temperature
    mu = abs(params.mu_c) * k.e
    x = mu / kT
    bracket = x + 2.0 * math.log1p(math.exp(-x))
    return 1j * k.e**2 * kT * bracket / (math.pi * k.hbar**2 * (omega + 1j * params.gamma_intra))


def _interband_integral(params: GrapheneParams, omega: float) -> complex:
    """Integral over u > 0 of d(u)/(abar^2 - u^2), with d(u) the Fermi
    occupation difference and abar = (omega + i*gamma_inter)/omega: the
    interband conductivity's energy integral, rescaled with
    eps = hbar*omega*u/2 so the (gamma-shifted) resonance sits at u ~ abar.

    The integral runs on [0, u_cut] where d(u) still deviates from 1; beyond
    u_cut it is 1 to machine precision and the remainder is added in closed
    form, so the truncation error is far below 1e-10 of the accumulated
    value.  Adaptive QUADPACK, with the pole and onset as breakpoints.
    `_slope_kernel` takes the same scales, pole, onset and cut.  Raises
    QuadratureError when a run exhausts its subdivisions.
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
            raise QuadratureError("interband conductivity integral did not converge",
                                  out[1], omega)
        pieces.append(out[0])
    return pieces[0] + 1j * pieces[1] + tail


_POWERS_OF_TWO = 2.0 ** np.arange(-3.0, 1024.0)
# (n + 1)/(2n + 3) for n = 19 down to 0, in Horner order: the 20 terms of
# K2's tail series leave 9^-20 of its first
_TAIL_SERIES = tuple((n + 1) / (2 * n + 3) for n in range(19, -1, -1))
# Gauss-Legendre nodes per block of the slope kernel: a block's temporaries
# stay near 256 KB however long the sweep (2**16 was as fast but added
# 9 MiB to a fig2b run's peak RSS, this 3 MiB)
_BLOCK_NODES = 2**14


def _doublings(width, reach):
    """Offsets width*{2^-3, 2^-2, ...} of panel edges from a feature of the
    given width, one row per frequency, panels doubling in length away from
    it out to the first offset that covers reach (reach >= 3 widths here,
    so never empty); nan past the last offset of a row."""
    count = np.ceil(np.log2(reach / width)).astype(int) + 4
    offsets = width[:, None] * _POWERS_OF_TWO[:count.max(initial=0)]
    offsets[np.arange(offsets.shape[1]) >= count[:, None]] = np.nan
    return offsets


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


def _slope_kernel(params: GrapheneParams, omegas: np.ndarray) -> np.ndarray:
    """K2 = integral over u > 0 of d(u)/(abar^2 - u^2)^2 at each frequency of
    the 1-D array omegas: the omega-derivative kernel of the interband
    integral, on `_interband_integral`'s scales, pole, onset and cut.

    Past u_cut, where d(u) == 1: with v = u_cut/u and r = (abar/u_cut)^2,
    |r| <= 1/9 as u_cut >= 3|abar|, the remainder is u_cut^-3 * integral
    over [0, 1] of v^2/(1 - r v^2)^2 dv = u_cut^-3 * sum over n of
    (n + 1) r^n/(2n + 3).  The closed form is two terms near
    1/(2 abar^2 u_cut) that cancel to about 1/(3 u_cut^3), losing their
    last digits.  Below u_cut, a composite 16-point Gauss-Legendre rule on
    panels whose lengths double away from the pole and the onset, with the
    12-point rule on the same panels as its estimate.  The pole's panels
    are sized by the resonance's own width Im(abar) = gamma_inter/omega,
    however narrow.  Every frequency's panels go into one array, evaluated
    in blocks of about _BLOCK_NODES nodes; each panel's rule sums are taken
    node by node, and each frequency's sum over its own panels, so a
    frequency's K2 has the same bits alone or in any sweep.
    Raises QuadratureError, at the first such frequency, where the two
    rules differ by more than 1e-9 and 1e-9 of the value.
    """
    k = CONSTANTS
    kT = k.kB * params.temperature
    mu = abs(params.mu_c) * k.e
    abar = (omegas + 1j * params.gamma_inter) / omegas
    s = k.hbar * omegas / (2.0 * kT)
    xmu = mu / kT
    u_step = 2.0 * mu / (k.hbar * omegas)
    step_width = 2.0 * kT / (k.hbar * omegas)
    u_cut = np.maximum(np.maximum(4.0, 3.0 * np.abs(abar)), u_step + 60.0 * step_width + 2.0)
    pole = np.where(abar.real > 0, abar.real, np.abs(abar))

    r = (abar / u_cut) ** 2
    tail = np.zeros_like(abar)
    for c in _TAIL_SERIES:
        tail = tail * r + c
    tail /= u_cut**3

    # each frequency's panel edges, sorted, with nan pads last: a panel is
    # two neighbouring edges that differ
    po, so = _doublings(abar.imag, u_cut), _doublings(step_width, u_cut)
    features = np.column_stack((np.zeros_like(u_cut), u_cut, pole, u_step))
    edges = np.concatenate((features, pole[:, None] + po, pole[:, None] - po,
                            u_step[:, None] + so, u_step[:, None] - so), axis=1)
    edges = np.sort(np.clip(edges, 0.0, u_cut[:, None]), axis=1)
    panels = edges[:, 1:] > edges[:, :-1]
    which = np.nonzero(panels)[0]   # each panel's frequency, in sweep order
    lo, length = edges[:, :-1][panels], np.diff(edges, axis=1)[panels]

    nodes, weights = _panel_rule()
    sums = np.empty((weights.shape[1], len(lo)), dtype=complex)
    step = max(1, _BLOCK_NODES // len(nodes))
    for start in range(0, len(lo), step):
        block = slice(start, start + step)
        f, lo_b, length_b = which[block], lo[block], length[block]
        t = nodes[:, None] * length_b
        u = lo_b + t
        # d(u) = sinh(a)/(cosh(a) + cosh(xmu)) with a = s*u > 0, top and
        # bottom divided by exp(max(a, xmu)): no exponential overflows, and
        # no two occupations near 1 are subtracted
        a = s[f] * u
        e = np.exp(-np.abs(a - xmu))
        d = (np.where(a < xmu, e, 1.0) * -np.expm1(-2.0 * a)
             / ((1.0 + np.exp(-(a + xmu))) * (1.0 + e)))
        # abar^2 - u^2 as (abar - u)(abar + u), with Re(abar) - u taken from
        # the panel's own offset t: abar^2 - u^2 itself loses 1e-16 absolute
        # to cancellation, relative 1e-16/Im(abar) next to a narrow pole
        ab = abar[f]
        denom = ((ab.real - lo_b) - t + 1j * ab.imag) * (ab + u)
        values = length_b * d / (denom * denom)
        # weights.T @ values one node at a time (BLAS may order the sum by
        # the block's shape), each rule over its own nodes
        sums[:, block] = 0.0
        for rule, column in zip(sums[:, block], weights.T):
            for j in np.flatnonzero(column):
                rule += column[j] * values[j]
    fine, coarse = np.add.reduceat(sums, np.searchsorted(which, np.arange(len(omegas))), axis=1)
    # quad's epsabs and epsrel of 1e-9: where K2 is far below 1 (a narrow
    # resonance at low frequency), rounding of about 1e-17 alone can
    # exceed 1e-9 of it
    error = np.abs(fine - coarse)
    failed = np.flatnonzero(error > 1e-9 * np.maximum(1.0, np.abs(fine)))
    if failed.size:
        i = failed[0]
        raise QuadratureError("interband conductivity slope integral did not converge",
                              float(error[i]), omegas[i])
    return fine + tail


def _interband_full(params: GrapheneParams, omega: float) -> complex:
    """Interband term of the finite-temperature conductivity."""
    k = CONSTANTS
    a = omega + 1j * params.gamma_inter
    return (1j * k.e**2 * a * _interband_integral(params, omega)
            / (2.0 * math.pi * k.hbar * omega))


def conductivity_full(params: GrapheneParams, omega: float) -> Conductivity:
    """Finite-temperature sheet conductivity (intraband + interband integral)
    at one frequency, taken as a Python float: the bits do not depend on
    the type of omega.

    Requires temperature > 0; at T = 0 the closed low-temperature form is
    the appropriate (and exact) limit.
    """
    omega = float(omega)
    if omega <= 0.0:
        raise ValueError("omega must be > 0")
    if params.temperature <= 0.0:
        raise ValueError("finite-temperature form needs T > 0; use conductivity_lowT at T = 0")
    value = _intraband_full(params, omega) + _interband_full(params, omega)
    return Conductivity(value=params.n_layers * value, omega=omega)


def _off_log_singularity(hw: np.ndarray, mu: float, omegas: np.ndarray) -> None:
    """Raise LogSingularityError at the first frequency where
    hbar*omega == 2*mu exactly."""
    singular = np.flatnonzero(hw == 2.0 * mu)
    if singular.size:
        raise LogSingularityError(
            f"hbar*omega equals 2*mu_c exactly at {omegas[singular[0]] / (2.0 * math.pi):.9g} Hz;"
            " offset omega away from the log singularity")


def _sweep(omega) -> np.ndarray:
    """omega as a 1-D float array: a one-point call runs the sweep's numpy
    loops on one element, so it has the bits of that element in any sweep
    (numpy's scalar complex product rounds differently)."""
    return np.atleast_1d(np.asarray(omega, dtype=float))


def conductivity_lowT(params: GrapheneParams, omega) -> Conductivity:
    """Low-temperature closed form: Drude term plus interband step and log,
    at one frequency or elementwise over an array of them.

    Valid for kB*T << min(|mu_c|, hbar*omega).  Exactly at
    hbar*omega = 2*|mu_c| the logarithm diverges and a
    LogSingularityError is raised.
    """
    omegas = _sweep(omega)
    if not np.all(omegas > 0.0):
        raise ValueError("omega must be > 0")
    k = CONSTANTS
    mu = abs(params.mu_c) * k.e
    hw = k.hbar * omegas
    drude = 1j * k.e**2 * mu / (math.pi * k.hbar**2 * (omegas + 1j * params.gamma_intra))
    if mu == 0.0:
        inter = k.e**2 / (4.0 * k.hbar)
    else:
        _off_log_singularity(hw, mu, omegas)
        step = np.where(hw > 2.0 * mu, 1.0, 0.0)
        inter = k.e**2 / (4.0 * k.hbar) * (step + 1j / math.pi * np.log(np.abs((hw - 2.0 * mu) / (hw + 2.0 * mu))))
    value = params.n_layers * (drude + inter)
    if np.ndim(omega) == 0:
        return Conductivity(value=value[0], omega=float(omega))
    return Conductivity(value=value, omega=omegas)


def select_mode(params: GrapheneParams) -> str:
    """Conductivity backend for params, one for every frequency: the one
    params.conductivity_model pins ('full' or 'low'), or under 'auto' the
    closed form where kB*T == 0, where the full form is undefined, and the
    full form at any T > 0."""
    if params.conductivity_model != "auto":
        return params.conductivity_model
    return "low" if CONSTANTS.kB * params.temperature == 0.0 else "full"


def conductivity(params: GrapheneParams, omega) -> Conductivity:
    """Sheet conductivity at one frequency or elementwise over an array of
    them, on the backend `select_mode` picks for params: the closed form in
    one `conductivity_lowT` call, the full form one `conductivity_full` call
    per frequency, in sweep order."""
    if select_mode(params) == "low":
        return conductivity_lowT(params, omega)
    omegas = np.asarray(omega, dtype=float)
    if omegas.ndim == 0:
        return conductivity_full(params, omega)
    value = [conductivity_full(params, w).value for w in omegas.ravel().tolist()]
    return Conductivity(value=np.array(value, dtype=complex).reshape(omegas.shape), omega=omegas)


def conductivity_slope(params: GrapheneParams, sigma: Conductivity):
    """d sigma/d omega (S s) at sigma.omega, where sigma = conductivity(params,
    sigma.omega), on the backend `select_mode` picks; elementwise on a
    sweep, with K2 for all its frequencies in one `_slope_kernel` call.

    Full form: each term carries a factor 1/(omega + i*gamma), whose
    derivative gives -sigma_intra/(omega + i*gamma_intra) and
    sigma_inter/(omega + i*gamma_inter); differentiating the interband
    denominator adds -(i e^2 abar^2/(pi hbar omega))*K2.  Low-T form: the
    closed form differentiated.
    """
    omega = _sweep(sigma.omega).ravel()
    k = CONSTANTS
    n = params.n_layers
    if select_mode(params) == "full":
        intra = _intraband_full(params, omega)
        inter = np.ravel(sigma.value) / n - intra
        abar = (omega + 1j * params.gamma_inter) / omega
        kernel = 1j * k.e**2 * abar**2 / (math.pi * k.hbar * omega) * _slope_kernel(params, omega)
        slope = n * (inter / (omega + 1j * params.gamma_inter)
                     - intra / (omega + 1j * params.gamma_intra) - kernel)
    else:
        mu = abs(params.mu_c) * k.e
        hw = k.hbar * omega
        a = omega + 1j * params.gamma_intra
        low = -1j * k.e**2 * mu / (math.pi * k.hbar**2 * a * a)
        if mu != 0.0:
            _off_log_singularity(hw, mu, omega)
            low += 1j * k.e**2 * mu / (math.pi * (hw - 2.0 * mu) * (hw + 2.0 * mu))
        slope = n * low
    return slope[0] if np.ndim(sigma.omega) == 0 else slope.reshape(np.shape(sigma.omega))
