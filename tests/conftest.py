"""Shared test oracles: exact two-mode beamsplitter, trace distance, the
truncated-Fock toolkit (density matrices, ladder/number/parity operators,
coherent states, the Fock rendering of a coherent mixture, the Kraus-sum
pure-loss channel damp_fock, the first-order damping Kraus pair and the
cat-code jump relations), a per-trajectory quantum-jump loop over one
Fock vector, the ensemble streams built one Generator per trajectory
(and the engine run on them), the complex-arithmetic ensemble micro-step
and parity projection and the ensemble loop built on them, the
whole-array float-view parity projection, run_ensemble with whole-array
recovery scoring, the ATR solve guarded by every system's SVD condition
number, the interband conductivity quadrature with a numpy-scalar
integrand, the ATR boundary-equation residuals, the reflectance-dip
search one spacing at a time with scipy's golden section, the mode
integrals of the quantization and prism-overlap layers as sampled
profiles integrated by graded-grid Simpson quadrature, and the
coherent-mixture fidelity in Python-ordered sums with the fidelity curves
and F0 built on it one point at a time.

Registers a derandomized hypothesis profile, so property tests draw the
same examples on every run."""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import quad, simpson
from scipy.linalg import expm
from scipy.optimize import minimize_scalar
from scipy.special import expit

import gspp.material
import gspp.prism
from gspp.dispersion import TE, wavenumber
from gspp.material import CONSTANTS, QuadratureError, _intraband_full, conductivity
from gspp.prism import NotResonant, _require_vacuum_background, atr_solve, critical_angle
from gspp.channel import propagate_mixture
from gspp.coupling import CouplerSpec, code_legs, excite_cat, excite_code, normalize_superposition
from gspp.qec import _code_basis, _unravel, trajectory_rng
from gspp.qstate import coherent_gram
from gspp.qstate import _coherent_column, fock_vector, truncation_dimension
from gspp.quantize import _lossless_mode, tm_parallel_amplitude

settings.register_profile("gspp", derandomize=True, deadline=None, database=None)
settings.load_profile("gspp")

TRACE_TOL = 1e-9
HERM_TOL = 1e-12
PSD_TOL = -1e-9


@dataclass(frozen=True)
class DensityMatrix:
    """Mixed state as a dense D x D matrix.  Treat as immutable."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def validate(self) -> None:
        """Hermiticity to 1e-12, unit trace to 1e-9, eigenvalues >= -1e-9."""
        m = self.matrix
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.conj().T).max() > HERM_TOL * scale:
            raise ValueError("density matrix is not Hermitian")
        tr = np.trace(m)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace {tr} differs from 1 beyond tolerance")
        if np.linalg.eigvalsh(m).min() < PSD_TOL:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")


def projector(psi: np.ndarray) -> DensityMatrix:
    return DensityMatrix(np.outer(psi, psi.conj()))


def coherent_tail_mass(alpha: complex, dim: int) -> float:
    """Probability mass of the coherent state above the truncation."""
    return max(0.0, 1.0 - float(np.sum(np.abs(_coherent_column(alpha, dim)) ** 2)))


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """Truncated, renormalized coherent state.  Errors when the truncated
    norm falls below 1 - 1e-8 (dimension too small for this amplitude)."""
    amps = _coherent_column(alpha, dim)
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if norm_sq < 1.0 - 1e-8:
        raise ValueError(f"dim={dim} too small for |alpha|={abs(alpha):.3f} "
                         f"(truncated norm^2 = {norm_sq:.12f})")
    return amps / math.sqrt(norm_sq)


def annihilation(dim: int) -> np.ndarray:
    """Ladder operator a with <n-1|a|n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def number(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def parity(dim: int) -> np.ndarray:
    """Photon parity (-1)^n, diagonal +-1."""
    return np.diag((-1.0) ** np.arange(dim)).astype(complex)


def fidelity(psi: np.ndarray, rho: DensityMatrix) -> float:
    """F = <psi|rho|psi>, clamped onto [0, 1] within 1e-9 slack."""
    if len(psi) != rho.dim:
        raise ValueError("dimension mismatch")
    f = float(np.real(np.vdot(psi, rho.matrix @ psi)))
    if f < -TRACE_TOL or f > 1.0 + TRACE_TOL:
        raise ValueError(f"fidelity {f} outside [0,1] beyond tolerance")
    return min(max(f, 0.0), 1.0)


def to_density_matrix(mixture, dim: int) -> DensityMatrix:
    """Fock rendering C M C^+ of a CoherentMixture over its raw coherent
    columns (the tail outside the truncation is assumed negligible)."""
    cols = np.stack([_coherent_column(a, dim) for a in mixture.amps], axis=1)
    return DensityMatrix(cols @ mixture.weights @ cols.conj().T)


def damp_fock(rho: DensityMatrix, eta: float) -> DensityMatrix:
    """Kraus-sum pure-loss channel on a truncated Fock density matrix,
    K_l[n-l, n] = sqrt(C(n, l)) (1-eta)^{l/2} eta^{(n-l)/2}."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    dim = rho.dim
    if eta == 1.0:
        return DensityMatrix(rho.matrix.copy())
    out = np.zeros_like(rho.matrix)
    if eta == 0.0:
        out[0, 0] = np.trace(rho.matrix)
        return DensityMatrix(out)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    for lost in range(dim):
        rows = np.arange(lost, dim)
        log_binom = log_fact[rows] - log_fact[lost] - log_fact[rows - lost]
        diag = np.exp(0.5 * (log_binom + lost * math.log1p(-eta)
                             + (rows - lost) * math.log(eta)))
        kraus = np.zeros((dim, dim), dtype=complex)
        kraus[rows - lost, rows] = diag
        out += kraus @ rho.matrix @ kraus.conj().T
    return DensityMatrix(out)


def kraus_pair(gamma_dt: float, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """First-order damping Kraus pair E0 = sqrt(gamma dt) a,
    E1 = 1 - (gamma dt/2) n; completeness holds up to (gamma dt)^2 n^2/4."""
    e0 = math.sqrt(gamma_dt) * annihilation(dim)
    e1 = np.eye(dim, dtype=complex) - 0.5 * gamma_dt * number(dim)
    return e0, e1


def kraus_completeness_residual(gamma_dt: float, dim: int) -> float:
    """Operator norm of E0^+E0 + E1^+E1 - 1."""
    e0, e1 = kraus_pair(gamma_dt, dim)
    resid = e0.conj().T @ e0 + e1.conj().T @ e1 - np.eye(dim)
    return float(np.linalg.norm(resid, 2))


def no_jump_norm(state: np.ndarray, gamma_dt: float) -> float:
    """Norm of exp(-gamma*dt*n/2)|state> before renormalization."""
    n = np.arange(len(state))
    return float(np.linalg.norm(state * np.exp(-0.5 * gamma_dt * n)))


@dataclass(frozen=True)
class CodeWord:
    """Label of one basis code word: logical in {0, 1}, parity_sign +-1."""

    logical: int
    parity_sign: int


def cat_norm(alpha: complex, sign: int) -> float:
    """N+- = 2(1 +- e^{-2|alpha|^2}), the squared norm of |alpha> +- |-alpha>."""
    return 2.0 * (1.0 + sign * math.exp(-2.0 * abs(alpha) ** 2))


def apply_annihilation(alpha: complex, word: CodeWord) -> tuple[complex, CodeWord]:
    """a|0L+-> = alpha sqrt(N-+/N+-)|0L-+>; a|1L+-> picks an extra factor i.

    Returns the analytic coefficient and the parity-flipped word.
    """
    sign = word.parity_sign
    coeff = alpha * math.sqrt(cat_norm(alpha, -sign) / cat_norm(alpha, sign))
    if word.logical == 1:
        coeff *= 1j
    return complex(coeff), CodeWord(word.logical, -word.parity_sign)


def encode(input_logical, alpha: complex) -> np.ndarray:
    """Unit Fock row of c0|0L> + c1|1L> at truncation_dimension(alpha)."""
    coeffs, amps = code_legs(*input_logical, alpha)
    return fock_vector(coeffs, amps, truncation_dimension(alpha))


def boundary_residuals(sol) -> np.ndarray:
    """Residuals of the four ATR boundary equations for the amplitudes of
    an AtrSolution (all should vanish to machine precision)."""
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


def two_mode_beamsplitter(psi: np.ndarray, g: complex) -> np.ndarray:
    """Exact beamsplitter action on a two-mode Fock array psi[n_a, n_b].

    The generator conserves total photon number, so the unitary is applied
    block-by-block (no truncation error inside each block).
    """
    dim = psi.shape[0]
    phi = cmath.phase(g) if g != 0 else 0.0
    theta = abs(g)
    out = np.zeros_like(psi, dtype=complex)
    for n_tot in range(2 * dim - 1):
        js = np.arange(max(0, n_tot - (dim - 1)), min(n_tot, dim - 1) + 1)
        if len(js) == 0:
            continue
        nb = len(js)
        gen = np.zeros((nb, nb), dtype=complex)
        for idx, j in enumerate(js):
            if idx + 1 < nb:
                amp = math.sqrt((j + 1) * (n_tot - j))
                gen[idx + 1, idx] += cmath.exp(1j * phi) * amp
                gen[idx, idx + 1] -= cmath.exp(-1j * phi) * amp
        block = expm(theta * gen)
        vec = np.array([psi[j, n_tot - j] for j in js])
        new = block @ vec
        for idx, j in enumerate(js):
            out[j, n_tot - j] = new[idx]
    return out


def partial_trace_mode_a(psi: np.ndarray) -> np.ndarray:
    """rho_b from a pure two-mode array psi[n_a, n_b]."""
    return np.einsum("am,an->mn", psi, psi.conj())


def trace_distance(rho1: np.ndarray, rho2: np.ndarray) -> float:
    eigs = np.linalg.eigvalsh(rho1 - rho2)
    return 0.5 * float(np.sum(np.abs(eigs)))


def fock_trajectory(config, input_logical, rng):
    """One quantum-jump trajectory as a plain loop over a Fock vector.

    Draws its uniforms in the engine's order (excitation steps, initial
    check, line steps, scheduled checks) and returns
    (jump count, parity outcomes, final amplitudes).
    """
    amps = encode(input_logical, config.alpha)
    n = np.arange(len(amps))
    schedule = config.check_schedule()
    n_exc = config.n_excitation_steps
    exc_u, init_u = rng.random(n_exc), rng.random(1)
    step_u, check_u = rng.random(config.n_steps), rng.random(int(schedule.sum()))
    jumps, outcomes = 0, []

    def step(amps, u, gamma_dt):
        nonlocal jumps
        if u < gamma_dt * np.sum(n * np.abs(amps) ** 2):
            jumps += 1
            out = np.zeros_like(amps)
            out[:-1] = amps[1:] * np.sqrt(n[1:])
        else:
            out = amps * np.exp(-0.5 * gamma_dt * n)
        return out / np.linalg.norm(out)

    def check(amps, u):
        outcome = 1 if u < np.sum(np.abs(amps[0::2]) ** 2) else -1
        outcomes.append(outcome)
        out = amps.copy()
        out[(1 if outcome > 0 else 0)::2] = 0.0
        return out / np.linalg.norm(out)

    for u in exc_u:
        amps = step(amps, u, config.excitation_gamma_t / n_exc)
    amps = amps * np.exp(1j * np.angle(config.alpha_excited / config.alpha) * n)
    if config.initial_check:
        amps = check(amps, init_u[0])
    checks = iter(check_u)
    for u, due in zip(step_u, schedule):
        amps = step(amps, u, 2.0 * config.k0_kappa2 * config.step)
        if due:
            amps = check(amps, next(checks))
    return jumps, tuple(outcomes), amps


def ensemble_uniforms_oracle(config, input_index, n_exc, n_steps, n_checks):
    """(draws, n_traj) uniform blocks from one trajectory_rng Generator per
    trajectory, drawn in the engine's order: excitation steps, initial
    check, line steps, scheduled checks."""
    sizes = (n_exc, 1, n_steps, n_checks)
    blocks = tuple(np.empty((n, config.n_trajectories)) for n in sizes)
    for j in range(config.n_trajectories):
        rng = trajectory_rng(config.seed, input_index, j)
        for block, n in zip(blocks, sizes):
            block[:, j] = rng.random(n)
    return blocks


def unravel_on_blocks(config, states, blocks, snapshot=None):
    """gspp.qec._unravel fed from ensemble_uniforms_oracle's blocks: the
    excitation, initial-check and line-step blocks in order as its first
    row stream, the scheduled-check block as its second.  The blocks may
    be edited first.  Same arguments and return value as unravel_oracle."""
    streams = iter(np.concatenate(blocks[:3])), iter(blocks[3])
    return _unravel(config, states, streams, config.check_schedule(), snapshot)


def channel_step_oracle(states, u, gamma_dt, n_vec, sqrt_n, decay, jumps) -> None:
    """Ensemble jump/no-jump micro-step in complex arithmetic: multiply by
    the decay and divide by np.linalg.norm, in place."""
    prob2 = np.abs(states) ** 2
    nbar = prob2 @ n_vec
    mask = u < gamma_dt * nbar
    pre = states[mask].copy() if np.any(mask) else None
    states *= decay
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    if pre is not None:
        shifted = np.zeros_like(pre)
        shifted[:, :-1] = pre[:, 1:] * sqrt_n
        norms = np.linalg.norm(shifted, axis=1, keepdims=True)
        if np.any(norms < 1e-14):
            raise ArithmeticError("jump applied to (near-)vacuum trajectory")
        states[mask] = shifted / norms
        jumps += mask


def parity_oracle(states, uniforms):
    """Ensemble parity projection by boolean row assignment and complex
    division by np.linalg.norm, in place; returns the +-1 outcomes."""
    p_even = np.sum(np.abs(states[:, 0::2]) ** 2, axis=1)
    outcome = np.where(uniforms < p_even, 1, -1)
    states[outcome > 0, 1::2] = 0.0
    states[outcome < 0, 0::2] = 0.0
    norms = np.linalg.norm(states, axis=1, keepdims=True)
    if np.any(norms < 1e-14):
        raise ArithmeticError("parity projection annihilated a trajectory")
    states /= norms
    return outcome


def unravel_oracle(config, states, blocks, snapshot=None):
    """The ensemble quantum-jump loop in gspp.qec._unravel's order on
    ensemble_uniforms_oracle's blocks, with <n> over the whole array at
    every micro-step (channel_step_oracle) and the general projection at
    every check (parity_oracle).  Returns the per-trajectory jump counts;
    snapshot is called as _unravel calls it."""
    exc_u, init_u, step_u, check_u = blocks
    nt, dim = states.shape
    n_vec = np.arange(dim, dtype=float)
    sqrt_n = np.sqrt(np.arange(1, dim, dtype=float))
    jumps = np.zeros(nt, dtype=int)
    flips = np.zeros(nt, dtype=int)
    parity = np.ones(nt, dtype=int)

    def check(u):
        nonlocal parity
        outcome = parity_oracle(states, u)
        flips[:] += outcome != parity
        parity = outcome

    if len(exc_u):
        g_dt = config.excitation_gamma_t / len(exc_u)
        for u in exc_u:
            channel_step_oracle(states, u, g_dt, n_vec, sqrt_n, np.exp(-0.5 * g_dt * n_vec), jumps)
    states *= np.exp(1j * np.angle(config.alpha_excited / config.alpha) * n_vec)
    if config.initial_check:
        check(init_u[0])
    if snapshot is not None:
        snapshot(0, parity, flips)
    gamma_dx = 2.0 * config.k0_kappa2 * config.step
    decay = np.exp(-0.5 * gamma_dx * n_vec)
    checks = iter(check_u)
    for i, due in enumerate(config.check_schedule()):
        channel_step_oracle(states, step_u[i], gamma_dx, n_vec, sqrt_n, decay, jumps)
        if due:
            check(next(checks))
        if snapshot is not None:
            snapshot(i + 1, parity, flips)
    return jumps


def vec_parity_oracle(states, uniforms):
    """gspp.qec._vec_parity on the whole array at once: p_even, the
    projection and the float-view renormalization with a state-sized
    scratch, in place; returns the +-1 outcomes."""
    p_even = np.sum(np.abs(states[:, 0::2]) ** 2, axis=1)
    outcome = np.where(uniforms < p_even, 1, -1)
    even = (outcome > 0)[:, None]
    np.copyto(states[:, 1::2], 0.0, where=even)
    np.copyto(states[:, 0::2], 0.0, where=~even)
    sq = np.conjugate(states)
    sq *= states
    norms = np.sqrt(np.add.reduce(sq.real, axis=1, keepdims=True))
    if np.any(norms < 1e-14):
        raise ArithmeticError("parity projection annihilated a trajectory")
    flat = states.view(float)
    flat *= 1.0 / norms
    return outcome


def recovery_score_oracle(states, parity, flips, bases, ref):
    """Recovered fidelity of every row against the reference row ref, on
    the whole array at once: gspp.qec._recovered's correction on bases
    (the _code_basis at the decayed amplitude) in one (2, n_traj, dim)
    block, then run_ensemble's scoring; rows the recovery annihilates
    score 0."""
    c = {key: states @ basis.conj() for key, basis in bases.items()}
    even = parity > 0
    same = [np.where(even, c[(lg, +1)], c[(lg, -1)]) for lg in (0, 1)]
    other = [np.where(even, c[(lg, -1)], c[(lg, +1)]) for lg in (0, 1)]
    phase = (-1j) ** (flips % 4)
    vec, tmp = np.empty((2, *states.shape), dtype=complex)
    np.multiply(same[0][:, None], bases[(0, +1)], out=vec)
    vec += np.multiply((phase * same[1])[:, None], bases[(1, +1)], out=tmp)
    vec += np.multiply(other[0][:, None], bases[(0, -1)], out=tmp)
    vec += np.multiply((phase * other[1])[:, None], bases[(1, -1)], out=tmp)
    np.conjugate(vec, out=tmp)
    np.multiply(tmp, vec, out=tmp)
    norms = np.sqrt(np.add.reduce(tmp.real, axis=1))
    overlap = np.abs(vec @ ref.conj()) ** 2
    return np.where(norms > 1e-8, overlap / np.maximum(norms, 1e-300) ** 2, 0.0)


def run_ensemble_oracle(config, input_logical, input_index):
    """gspp.qec.run_ensemble with every step on the whole array:
    unravel_oracle on ensemble_uniforms_oracle's blocks, each snapshot
    scored by recovery_score_oracle.  Returns (fidelities, jumps)."""
    dim = truncation_dimension(config.alpha)
    coeffs, amps = code_legs(*input_logical, config.alpha)
    states = np.tile(fock_vector(normalize_superposition(coeffs, amps), amps, dim),
                     (config.n_trajectories, 1))
    blocks = ensemble_uniforms_oracle(config, input_index, config.n_excitation_steps,
                                      config.n_steps, int(config.check_schedule().sum()))
    checkpoints = [int(s) for s in config.checkpoint_steps()]
    fid = np.empty((len(checkpoints), config.n_trajectories))

    def snapshot(step_no, parity, flips):
        if step_no not in checkpoints:
            return
        a_x = config.alpha_excited * math.exp(-config.k0_kappa2 * step_no * config.step)
        ref_coeffs, ref_amps = code_legs(*input_logical, a_x)
        for _ in range(2):
            ref_coeffs = normalize_superposition(ref_coeffs, ref_amps)
        ref = fock_vector(ref_coeffs, ref_amps, dim)
        fid[checkpoints.index(step_no)] = recovery_score_oracle(
            states, parity, flips, _code_basis(a_x, dim), ref)

    jumps = unravel_oracle(config, states, blocks, snapshot)
    return fid, jumps


def atr_guard_oracle(mat, rhs):
    """Solutions of a stack of ATR boundary systems (rhs of shape S + (4,))
    guarded by np.linalg.cond, a full SVD, on every system: raises
    ArithmeticError naming the first system whose condition number is
    above 1e12 or not finite."""
    cond = np.linalg.cond(mat)
    bad = ~np.isfinite(cond) | (cond > 1e12)
    if np.any(bad):
        value = np.asarray(cond)[bad][0]
        raise ArithmeticError(f"singular ATR boundary system (condition number {value:.3e})")
    return np.linalg.solve(mat, rhs[..., None])[..., 0]


def _interband_quad_setup(params, omega):
    """abar, the occupation scales xmu = mu/kT and s = hbar*omega/(2kT),
    u_cut and the quad breakpoints of the scaled interband integrals."""
    k = CONSTANTS
    kT = k.kB * params.temperature
    mu = abs(params.mu_c) * k.e
    abar = (omega + 1j * params.gamma_inter) / omega
    s = k.hbar * omega / (2.0 * kT)
    xmu = mu / kT

    u_step = 2.0 * mu / (k.hbar * omega)
    step_width = 2.0 * kT / (k.hbar * omega)
    u_cut = max(4.0, 3.0 * abs(abar), u_step + 60.0 * step_width + 2.0)
    pole = abar.real if abar.real > 0 else abs(abar)
    pole_width = max(abar.imag, 1e-3)
    raw_points = [pole - 3 * pole_width, pole, pole + 3 * pole_width,
                  u_step - 30 * step_width, u_step, u_step + 30 * step_width]
    points = sorted({p for p in raw_points if 0.0 < p < u_cut})
    return abar, xmu, s, u_cut, points


def _quad_complex(integrand, u_cut, points, what):
    """Integral over [0, u_cut] of integrand(u, 0) + i*integrand(u, 1), one
    quad run per part."""
    pieces = []
    for part in (0, 1):
        out = quad(integrand, 0.0, u_cut, args=(part,), points=points,
                   epsabs=1e-9, epsrel=1e-9, limit=400, full_output=1)
        if len(out) > 3:
            raise QuadratureError(f"{what} did not converge", out[1])
        pieces.append(out[0])
    return pieces[0] + 1j * pieces[1]


def quad_interband_oracle(params, omega):
    """Interband conductivity term with the integrand in numpy scalars:
    scipy's expit for the occupation difference and a float64 / complex
    quotient, one part per quad run.  Same breakpoints, tolerances and
    closed-form tail as gspp.material._interband_full."""
    k = CONSTANTS
    abar, xmu, s, u_cut, points = _interband_quad_setup(params, omega)

    def integrand(u, part):
        val = (expit(xmu + s * u) - expit(xmu - s * u)) / (abar * abar - u * u)
        return val.real if part == 0 else val.imag

    integral = _quad_complex(integrand, u_cut, points, "interband conductivity integral")
    ratio = (abar + u_cut) / (abar - u_cut)
    tail = (-1j * math.pi - np.log(ratio)) / (2.0 * abar)
    a = omega + 1j * params.gamma_inter
    return 1j * k.e**2 * a * (integral + tail) / (2.0 * math.pi * k.hbar * omega)


def quad_k2_oracle(params, omega):
    """K2 = integral over u > 0 of d(u)/(abar^2 - u^2)^2, the omega-derivative
    kernel of the interband integral: scipy's expit for the occupation
    difference d(u), 1/(abar^2 - u^2) = (br - i*bi)/(br^2 + bi^2) with
    br = Re abar^2 - u^2 and bi = Im abar^2, one part per quad run.  Same
    breakpoints, tolerances and closed-form tail as
    gspp.material.conductivity_slope's kernel."""
    abar, xmu, s, u_cut, points = _interband_quad_setup(params, omega)
    aa = abar * abar
    aa_re, bi = float(aa.real), float(aa.imag)

    def integrand(u, part):
        d = expit(xmu + s * u) - expit(xmu - s * u)
        br = aa_re - u * u
        den = br * br + bi * bi
        wr, wi = br / den, -bi / den
        return d * (wr * wr - wi * wi) if part == 0 else 2.0 * d * wr * wi

    integral = _quad_complex(integrand, u_cut, points,
                             "interband conductivity slope integral")
    ratio = (abar + u_cut) / (abar - u_cut)
    return integral + ((-1j * math.pi - cmath.log(ratio)) / (4.0 * abar**3)
                       - u_cut / (2.0 * abar**2 * (abar**2 - u_cut**2)))


def slope_k2_oracle(params, sigma):
    """Full-form d sigma/d omega at sigma.omega with K2 from quad_k2_oracle:
    sigma_inter/(omega + i*gamma_inter) - sigma_intra/(omega + i*gamma_intra)
    - (i e^2 abar^2/(pi hbar omega))*K2, per layer, times n_layers."""
    k = CONSTANTS
    omega = sigma.omega
    n = params.n_layers
    intra = _intraband_full(params, omega)
    inter = sigma.value / n - intra
    abar = (omega + 1j * params.gamma_inter) / omega
    kernel = 1j * k.e**2 * abar**2 / (math.pi * k.hbar * omega) * quad_k2_oracle(params, omega)
    return n * (inter / (omega + 1j * params.gamma_inter)
                - intra / (omega + 1j * params.gamma_intra) - kernel)


def group_velocity_fd_oracle(params, sigma, polarization, rel_step=1e-5):
    """Group velocity 1/(d Re k/d omega) by Richardson-extrapolated central
    differences of `wavenumber` over conductivities at omega +- h and
    omega +- h/2 (h = rel_step*omega), with sigma the centre conductivity.
    nan where Re k is not monotonic across the stencil (resonance or log
    singularity nearby) or the slope is not positive."""
    omega = sigma.omega
    h = rel_step * omega
    k_re = [wavenumber(polarization, conductivity(params, omega + d), params.eps_r).real
            for d in (-h, -h / 2.0, h / 2.0, h)]
    seq = [k_re[0], k_re[1], wavenumber(polarization, sigma, params.eps_r).real, k_re[2], k_re[3]]
    diffs = np.diff(seq)
    if not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
        return math.nan
    d_coarse = (k_re[3] - k_re[0]) / (2.0 * h)
    d_fine = (k_re[2] - k_re[1]) / h
    slope = (4.0 * d_fine - d_coarse) / 3.0
    return 1.0 / slope if slope > 0.0 else math.nan


def graded_nodes(length: float, rate: float, n: int):
    """Nodes on [0, length] geometrically refined toward 0 on scale 1/rate.

    Returns (z, dz_du) for the map z(u) = length*(e^{c u}-1)/(e^c-1) on a
    uniform u-grid of n points (n is forced odd for Simpson weights).
    """
    if length <= 0.0 or n < 3:
        raise ValueError("need length > 0 and n >= 3")
    if n % 2 == 0:
        n += 1
    c = math.log1p(max(rate, 1.0 / length) * length)
    u = np.linspace(0.0, 1.0, n)
    z = length * np.expm1(c * u) / math.expm1(c)
    jac = length * c * np.exp(c * u) / math.expm1(c)
    return z, jac


def integrate_graded(f, length: float, rate: float, n: int = 1025) -> complex:
    """Composite Simpson integral of f over [0, length] in the uniform
    coordinate of graded_nodes."""
    z, jac = graded_nodes(length, rate, n)
    y = np.asarray(f(z)) * jac
    return simpson(y, dx=1.0 / (len(z) - 1))


def spp_profile_oracle(polarization, mode, z):
    """Surface-wave profile written out per component: TE y_hat e^{-q0|z|},
    TM -(P x_hat -+ z_hat) e^{-q0|z|}; z = 0 takes the z > 0 side."""
    z = np.asarray(z, dtype=float)
    decay = np.exp(-mode.q0 * np.abs(z))
    out = np.zeros(z.shape + (3,), dtype=complex)
    if polarization == "TE":
        out[..., 1] = decay
    else:
        out[..., 0] = -tm_parallel_amplitude(mode) * decay
        out[..., 2] = np.where(z >= 0.0, 1.0, -1.0) * decay
    return out


def spp_energy_density(polarization, mode, eps_r):
    """Surface-wave energy density eps_r|phi|^2 + (c0/omega)^2 |curl phi|^2
    on z > 0, as a function of z."""
    q0, kx = mode.q0, mode.k
    c2w2 = (CONSTANTS.c0 / mode.omega) ** 2
    if polarization == "TE":
        coeff = eps_r + c2w2 * (abs(q0) ** 2 + abs(kx) ** 2)
    else:
        p_amp = tm_parallel_amplitude(mode)
        coeff = eps_r * (abs(p_amp) ** 2 + 1.0) + c2w2 * abs(q0 * p_amp - 1j * kx) ** 2
    return lambda z: coeff * np.exp(-2.0 * np.real(q0) * z) * np.ones_like(z)


def spp_norm_oracle(polarization, mode, params, n_points=2048):
    """Surface-wave quantization length: the energy density integrated over
    z in [0, 40/q0] on a graded grid, doubled, plus the sheet term."""
    sig = conductivity(params, mode.omega)
    ll = _lossless_mode(polarization, mode.omega, sig.imag, params.eps_r)
    q0 = ll.q0.real
    density = spp_energy_density(polarization, ll, params.eps_r)
    bulk = 2.0 * integrate_graded(density, 40.0 / q0, 2.0 * q0, n_points // 2 + 1).real
    phi_par0 = 1.0 if polarization == "TE" else abs(tm_parallel_amplitude(ll)) ** 2
    return 0.5 * bulk + abs(sig.imag) / (2.0 * CONSTANTS.eps0 * mode.omega) * phi_par0


def photon_profile_oracle(sol):
    """(A, curl A) of the lower-region photon mode as functions of z <= d,
    from the E and H fields of each ATR wave written out per component."""
    kz0, kx, w, d = sol.k_z_gap, sol.k_x, sol.omega, sol.d
    mu0, eps0 = CONSTANTS.mu0, CONSTANTS.eps0

    def waves(z):
        # (y amplitude, x factor q) of the waves present at each z
        gap = z >= 0.0
        up = sol.m1 * np.exp(1j * kz0 * z)
        down = sol.m2 * np.exp(-1j * kz0 * (z - d))
        low = sol.t * np.exp(-1j * kz0 * z)
        y = np.where(gap, up + down, low)
        qy = np.where(gap, kz0 * (up - down), -kz0 * low)
        return y, qy

    def fields(z):
        z = np.asarray(z, dtype=float)
        y, qy = waves(z)
        prim = np.zeros(z.shape + (3,), dtype=complex)
        dual = np.zeros(z.shape + (3,), dtype=complex)
        prim[..., 1] = y
        if sol.polarization == "TE":
            # E_y primary: H_x = -q E_y/(w mu0), H_z = kx E_y/(w mu0)
            dual[..., 0] = -qy / (w * mu0)
            dual[..., 2] = kx * y / (w * mu0)
            return prim, dual
        # H_y primary: E_x = q H_y/(w eps0), E_z = -kx H_y/(w eps0)
        dual[..., 0] = qy / (w * eps0)
        dual[..., 2] = -kx * y / (w * eps0)
        return dual, prim

    return (lambda z: fields(z)[0] / (1j * w)), (lambda z: mu0 * fields(z)[1])


def photon_norm_oracle(sol, n_points=2048):
    """Photon-mode quantization length: graded Simpson over [-40/kappa, 0),
    uniform Simpson over the gap, plus the sheet term."""
    profile, curl = photon_profile_oracle(sol)
    c2w2 = (CONSTANTS.c0 / sol.omega) ** 2

    def density(z):
        return (np.sum(np.abs(profile(z)) ** 2, axis=-1)
                + c2w2 * np.sum(np.abs(curl(z)) ** 2, axis=-1))

    decay_below = abs(np.imag(-sol.k_z_gap))
    n_side = n_points // 2 + 1
    z_neg, jac_neg = graded_nodes(40.0 / decay_below, decay_below, n_side)
    zb = -z_neg
    zb[0] = -1e-300  # fields jump across the sheet; stay on the lower side
    below = simpson(density(zb) * jac_neg, dx=1.0 / (n_side - 1))
    z_gap = np.linspace(0.0, sol.d, n_side)
    gap = simpson(density(z_gap), x=z_gap)
    a0 = profile(np.array(0.0))
    a_par_sq = abs(a0[0]) ** 2 + abs(a0[1]) ** 2
    return 0.5 * float(below + gap) + abs(sol.sigma.imag) / (2.0 * CONSTANTS.eps0 * sol.omega) * a_par_sq


def matching_frequency_oracle(geom, params, omega_lo, omega_hi, n_scan):
    """Reflectance-dip frequency at the spacing geom.d: a pointwise scan,
    then scipy's golden-section search on the three scan points around
    the minimum.  Raises NotResonant like matching_frequency."""
    if geom.theta_i <= critical_angle(geom.eps1):
        raise NotResonant("incidence below the critical angle")
    _require_vacuum_background(params)
    omegas = np.linspace(omega_lo, omega_hi, n_scan)
    refl = np.array([atr_solve(geom, params, float(w)).reflectance for w in omegas])
    i_min = int(np.argmin(refl))
    if refl[i_min] > 0.99:
        raise NotResonant("no reflectance dip below 0.99 in the scan window")
    if i_min == 0 or i_min == n_scan - 1:
        return float(omegas[i_min])
    res = minimize_scalar(
        lambda w: atr_solve(geom, params, float(w)).reflectance,
        bracket=(omegas[i_min - 1], omegas[i_min], omegas[i_min + 1]),
        method="golden", options={"xtol": 1e-10})
    return float(res.x)


def overlap_beta_oracle(geom, params, omega, n_points=1024):
    """Overlap transmission coefficient with every mode integral sampled:
    graded Simpson below the sheet down to 40 combined decay lengths and
    uniform Simpson across the gap."""
    sol = atr_solve(geom, params, omega)
    spp = _lossless_mode(geom.polarization, omega, sol.sigma.imag, params.eps_r)
    n_phi = spp_norm_oracle(geom.polarization, spp, params, n_points)
    n_psi = photon_norm_oracle(sol, n_points)
    profile, _ = photon_profile_oracle(sol)
    decay_below = max(abs(np.imag(-sol.k_z_gap)), abs(sol.k_z_gap) * 1e-3)
    rate = decay_below + spp.q0.real
    n_side = n_points // 2 + 1
    z_neg, jac_neg = graded_nodes(40.0 / rate, rate, n_side)
    zb = -z_neg
    zb[0] = -1e-300  # stay on the lower side of the sheet discontinuity
    f_below = np.sum(profile(zb) * np.conj(spp_profile_oracle(geom.polarization, spp, zb)), axis=-1)
    below = simpson(f_below * jac_neg, dx=1.0 / (n_side - 1))
    z_gap = np.linspace(0.0, geom.d, n_side)
    f_gap = np.sum(profile(z_gap) * np.conj(spp_profile_oracle(geom.polarization, spp, z_gap)),
                   axis=-1)
    gap = simpson(f_gap, x=z_gap)
    overlap = (below + gap) / math.sqrt(n_psi * n_phi)
    return complex(np.conj(math.sqrt(max(0.0, 1.0 - abs(sol.r) ** 2)) * overlap))


def fidelity_pure_oracle(rho, coeffs, amps) -> float:
    """<psi|rho|psi> of one coherent mixture in Python-ordered sums: for
    each j the bra and ket sums over m in order, then w_jk bra_j ket_k in
    row-major (j, k) order from 0."""
    coeffs = np.asarray(coeffs, dtype=complex)
    bra = [sum(np.conj(c) * g for c, g in zip(coeffs, col))
           for col in coherent_gram(amps, rho.amps).T]
    ket = [sum(c * g for c, g in zip(coeffs, row))
           for row in coherent_gram(rho.amps, amps)]
    f = 0.0 + 0.0j
    for (j, k), w in np.ndenumerate(rho.weights):
        f += w * bra[j] * ket[k]
    return float(f.real)


def fidelity_vs_distance_oracle(alpha, g, x_values, k0_kappa2, matched):
    """Excited-cat fidelity curve one distance at a time, against the
    initial cat or the amplitude-matched one."""
    rho0 = excite_cat(alpha, g)
    beta_mag = abs(CouplerSpec(g).beta_amp)
    out = []
    for x in np.asarray(x_values, dtype=float):
        rho_x = propagate_mixture(rho0, math.exp(-2.0 * k0_kappa2 * float(x)))
        a_ref = alpha * beta_mag * math.exp(-k0_kappa2 * float(x)) if matched else alpha
        amps = [a_ref, -a_ref]
        out.append(fidelity_pure_oracle(rho_x, normalize_superposition([1.0, 1.0], amps), amps))
    return np.array(out)


def f0_oracle(config, inputs) -> float:
    """qec's F0 one input at a time: the excited code word against the
    matched-amplitude logical reference, averaged in input order."""
    total = 0.0
    for c0, c1 in inputs:
        rho = excite_code(c0, c1, config.alpha, config.g)
        coeffs, amps = code_legs(c0, c1, config.alpha_excited)
        total += fidelity_pure_oracle(rho, normalize_superposition(coeffs, amps), amps)
    return total / len(inputs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def atr_systems(monkeypatch):
    """The (mat, rhs) stacks gspp.prism solves during the test, in order."""
    systems = []
    solve = gspp.prism._solve_screened

    def record(mat, rhs):
        systems.append((mat.copy(), rhs.copy()))
        return solve(mat, rhs)

    monkeypatch.setattr(gspp.prism, "_solve_screened", record)
    return systems


@pytest.fixture
def full_calls(monkeypatch):
    """Frequencies of the conductivity_full calls made during the test."""
    calls = []
    full = gspp.material.conductivity_full
    monkeypatch.setattr(gspp.material, "conductivity_full",
                        lambda params, omega: calls.append(omega) or full(params, omega))
    return calls
