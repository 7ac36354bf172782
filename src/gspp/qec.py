"""Cat-code error correction over the lossy SPP channel.

Logical qubits live on even cat states |0L> ~ |a>+|-a>, |1L> ~ |ia>+|-ia>.
Single-excitation loss flips photon parity, so parity checks along the
line detect jumps without reading out the logical content; an end-of-line
recovery flips the erred space back and undoes the i-per-jump phase
accumulated by the logical-one component.  Trajectories are unraveled as
quantum jumps: per micro-step, a jump (apply a, renormalize) occurs with
probability gamma*dt*<n>, otherwise the exact no-jump decay
exp(-gamma*dt*n/2) is applied and renormalized.  The imperfect excitation
stage (|beta| < 1) is itself a pure-loss channel with transmissivity
sin^2|g| and is unraveled the same way before x = 0.

Every trajectory draws from its own deterministic random stream derived
from (seed, input index, trajectory index), so ensembles are reproducible
and order-independent under any parallel chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import CouplerSpec, excite_superposition, normalize_superposition, superposition_vector
from .qstate import StateVector, _coherent_column, annihilation, number, truncation_dimension

SIX_CARDINAL = (
    (1.0, 0.0),
    (0.0, 1.0),
    (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)),
    (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)),
    (1.0 / math.sqrt(2.0), -1j / math.sqrt(2.0)),
)


@dataclass(frozen=True)
class CatCode:
    """Code-space description at amplitude alpha in a D-dimensional space."""

    alpha: complex
    dim: int

    def __post_init__(self):
        if self.dim < truncation_dimension(self.alpha):
            raise ValueError("truncation dimension too small for this alpha")

    @property
    def n_plus(self) -> float:
        return 2.0 * (1.0 + math.exp(-2.0 * abs(self.alpha) ** 2))

    @property
    def n_minus(self) -> float:
        return 2.0 * (1.0 - math.exp(-2.0 * abs(self.alpha) ** 2))

    def basis_amplitudes(self, logical: int, parity_sign: int) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients and coherent amplitudes of |logical_(+-)>."""
        a = self.alpha if logical == 0 else 1j * self.alpha
        norm = self.n_plus if parity_sign > 0 else self.n_minus
        c = 1.0 / math.sqrt(norm)
        return np.array([c, parity_sign * c], dtype=complex), np.array([a, -a], dtype=complex)

    def state(self, logical: int, parity_sign: int) -> StateVector:
        coeffs, amps = self.basis_amplitudes(logical, parity_sign)
        vec = sum(c * _coherent_column(a, self.dim) for c, a in zip(coeffs, amps))
        return StateVector(vec).normalized()

    def encode(self, c0: complex, c1: complex) -> StateVector:
        """Normalized c0|0L> + c1|1L> (exact Gram normalization)."""
        amps = [self.alpha, -self.alpha, 1j * self.alpha, -1j * self.alpha]
        return superposition_vector([c0, c0, c1, c1], amps, self.dim)


def code_states(code: CatCode) -> tuple[StateVector, StateVector, StateVector, StateVector]:
    """(|0L+>, |0L->, |1L+>, |1L->)."""
    return (code.state(0, +1), code.state(0, -1), code.state(1, +1), code.state(1, -1))


@dataclass(frozen=True)
class CodeWord:
    """Label of one basis code word: logical in {0, 1}, parity_sign +-1."""

    logical: int
    parity_sign: int


def apply_annihilation(code: CatCode, word: CodeWord) -> tuple[complex, CodeWord]:
    """a|0L+-> = alpha sqrt(N-+/N+-)|0L-+>; a|1L+-> picks an extra factor i.

    Returns the analytic coefficient and the parity-flipped word.
    """
    ratio = (code.n_minus / code.n_plus if word.parity_sign > 0
             else code.n_plus / code.n_minus)
    coeff = code.alpha * math.sqrt(ratio)
    if word.logical == 1:
        coeff *= 1j
    return complex(coeff), CodeWord(word.logical, -word.parity_sign)


def no_jump(state: StateVector, gamma_dt: float) -> StateVector:
    """Exact no-jump evolution exp(-gamma*dt*n/2), renormalized."""
    if gamma_dt < 0.0:
        raise ValueError("gamma_dt must be >= 0")
    n = np.arange(state.dim)
    return StateVector(state.amplitudes * np.exp(-0.5 * gamma_dt * n)).normalized()


def no_jump_norm(state: StateVector, gamma_dt: float) -> float:
    """Norm of exp(-gamma*dt*n/2)|state> before renormalization."""
    n = np.arange(state.dim)
    return float(np.linalg.norm(state.amplitudes * np.exp(-0.5 * gamma_dt * n)))


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


def parity_check(state: StateVector, rng: np.random.Generator) -> tuple[int, StateVector]:
    """Born-rule projective parity measurement; returns (+-1, projected state)."""
    row = np.array(state.normalized().amplitudes)[None, :]
    outcome = _vec_parity(row, rng.random(1))
    return int(outcome[0]), StateVector(row[0])


@dataclass(frozen=True)
class QecRunConfig:
    """One error-corrected propagation experiment.

    Distances are expressed through the attenuation factor k0*kappa''
    (1/m) and positions x (m); the jump rate per step is
    gamma*dt = 2*k0*kappa''*dx.  parity_p = 0 keeps only the initial
    post-excitation check; otherwise checks run every dx/p (integer
    schedule, floor(i*p) increments).  dx=None picks the largest step with
    gamma*dt*<n> <= 0.01 at the initial amplitude.
    """

    alpha: complex
    g: complex
    k0_kappa2: float
    x_total: float
    parity_p: float
    dx: float | None = None
    n_trajectories: int = 10_000
    seed: int = 0
    input_set: str = "six"
    haar_samples: int = 6
    initial_check: bool = True
    apply_recovery: bool = True
    n_checkpoints: int = 7

    def __post_init__(self):
        if not 0.0 <= self.parity_p <= 1.0:
            raise ValueError("parity probability must lie in [0, 1]")
        if self.x_total <= 0.0 or self.k0_kappa2 < 0.0:
            raise ValueError("need x_total > 0 and k0_kappa2 >= 0")
        if self.n_trajectories < 1:
            raise ValueError("need at least one trajectory")
        if self.n_checkpoints < 1:
            raise ValueError("need at least one checkpoint")
        if self.input_set not in ("six", "haar"):
            raise ValueError("input_set must be 'six' or 'haar'")
        nbar = abs(self.alpha_excited) ** 2
        if self.step * 2.0 * self.k0_kappa2 * max(nbar, 1.0) >= 0.05:
            raise ValueError("dx too coarse: per-step jump probability exceeds 0.05")

    @property
    def beta_amp(self) -> complex:
        return CouplerSpec(self.g).beta_amp

    @property
    def alpha_excited(self) -> complex:
        """SPP amplitude right after excitation, -conj(beta)*alpha."""
        return -np.conj(self.beta_amp) * self.alpha

    @property
    def step(self) -> float:
        if self.dx is not None:
            if self.dx <= 0.0:
                raise ValueError("dx must be > 0")
            return self.dx
        nbar = max(abs(self.alpha_excited) ** 2, 1.0)
        if self.k0_kappa2 == 0.0:
            return self.x_total / 100.0
        return 0.01 / (2.0 * self.k0_kappa2 * nbar)

    @property
    def n_steps(self) -> int:
        return max(1, math.ceil(self.x_total / self.step - 1e-9))

    def check_schedule(self) -> np.ndarray:
        """Boolean mask over steps: check after step i when floor(i*p)
        increments (i 1-based), i.e. every dx/p on average."""
        n = self.n_steps
        if self.parity_p == 0.0:
            return np.zeros(n, dtype=bool)
        i = np.arange(1, n + 1)
        return np.floor(i * self.parity_p) > np.floor((i - 1) * self.parity_p)

    def checkpoint_steps(self) -> np.ndarray:
        """Step indices (0..n_steps) where fidelity snapshots are taken."""
        return np.unique(np.linspace(0, self.n_steps, self.n_checkpoints).round().astype(int))

    def input_states(self, rng: np.random.Generator | None = None):
        if self.input_set == "six":
            return list(SIX_CARDINAL)
        rng = rng if rng is not None else np.random.default_rng((self.seed, 0xA11A))
        out = []
        for _ in range(self.haar_samples):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            out.append((complex(v[0]), complex(v[1])))
        return out

    # -- excitation-stage unraveling ------------------------------------
    @property
    def excitation_gamma_t(self) -> float:
        """Total gamma*t of the excitation-equivalent loss channel."""
        eta = abs(self.beta_amp) ** 2
        if eta >= 1.0:
            return 0.0
        if eta <= 0.0:
            raise ValueError("beta = 0: nothing is transferred to the SPP")
        return -math.log(eta)

    @property
    def n_excitation_steps(self) -> int:
        gt = self.excitation_gamma_t
        if gt == 0.0:
            return 0
        nbar = max(abs(self.alpha) ** 2, 1.0)
        return max(1, math.ceil(gt * nbar / 0.01))


@dataclass(frozen=True)
class TrajectoryRecord:
    """Outcome of one quantum-jump run."""

    jump_count: int
    parity_outcomes: tuple[int, ...]
    final_state: StateVector
    seed: int


@dataclass(frozen=True)
class QecCurve:
    """Ensemble fidelity versus distance, with the pre-check baseline F0.

    F0 is the analytic pre-check fidelity at x = 0 against the
    matched-amplitude reference; when |beta| = 1 the excitation is exact
    and F0 = 1 identically.
    """

    x: np.ndarray
    f_bar: np.ndarray
    std_err: np.ndarray
    f0: float
    n_trajectories: int


@dataclass(frozen=True)
class OrthogonalityReport:
    x: np.ndarray
    overlap: np.ndarray
    max_overlap: float
    violated: bool


# ---------------------------------------------------------------------------
# deterministic random streams

def trajectory_rng(seed: int, input_index: int, traj_index: int) -> np.random.Generator:
    """Independent stream per (seed, input, trajectory)."""
    return np.random.default_rng((seed, input_index, traj_index))


def _draw_blocks(rng: np.random.Generator, n_exc: int, n_steps: int, n_checks: int):
    """Fixed consumption order: excitation jumps, initial check, step jumps,
    scheduled checks."""
    return (rng.random(n_exc), rng.random(1), rng.random(n_steps), rng.random(n_checks))


def _ensemble_uniforms(config: QecRunConfig, input_index: int, n_exc: int,
                       n_steps: int, n_checks: int):
    """Per-trajectory streams assembled into (draws, n_traj) blocks."""
    nt = config.n_trajectories
    exc = np.empty((n_exc, nt))
    init = np.empty((1, nt))
    steps = np.empty((n_steps, nt))
    checks = np.empty((n_checks, nt))
    for j in range(nt):
        rng = trajectory_rng(config.seed, input_index, j)
        e, i0, s, c = _draw_blocks(rng, n_exc, n_steps, n_checks)
        exc[:, j] = e
        init[:, j] = i0
        steps[:, j] = s
        checks[:, j] = c
    return exc, init, steps, checks


# ---------------------------------------------------------------------------
# quantum-jump engine on a (n_traj, dim) block of Fock vectors

def _vec_channel_step(states, u, gamma_dt, n_vec, sqrt_n, decay, jumps) -> None:
    """One jump/no-jump micro-step applied in place to all trajectories."""
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


def _vec_parity(states: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Projective parity measurement in place; returns the +-1 outcomes."""
    p_even = np.sum(np.abs(states[:, 0::2]) ** 2, axis=1)
    outcome = np.where(uniforms < p_even, 1, -1)
    states[outcome > 0, 1::2] = 0.0
    states[outcome < 0, 0::2] = 0.0
    norms = np.linalg.norm(states, axis=1, keepdims=True)
    if np.any(norms < 1e-14):
        raise ArithmeticError("parity projection annihilated a trajectory")
    states /= norms
    return outcome


def _unravel(config: QecRunConfig, states: np.ndarray, blocks, snapshot=None,
             outcomes: list | None = None) -> np.ndarray:
    """Quantum-jump run of every row of states, in place.

    blocks are the (draws, n_traj) uniforms in _draw_blocks order.  The
    excitation-stage loss and the excitation phase come first, then the
    initial check and the line steps with their scheduled checks.
    snapshot(step_no, parity, flips) is called after the initial check
    (step 0) and after every step; outcomes, when given, receives each
    check's outcome array.  Returns the per-trajectory jump counts.
    """
    exc_u, init_u, step_u, check_u = blocks
    nt, dim = states.shape
    n_vec = np.arange(dim, dtype=float)
    sqrt_n = np.sqrt(np.arange(1, dim, dtype=float))
    jumps = np.zeros(nt, dtype=int)
    flips = np.zeros(nt, dtype=int)
    parity = np.ones(nt, dtype=int)

    def check(u):
        nonlocal parity
        outcome = _vec_parity(states, u)
        flips[:] += outcome != parity
        parity = outcome
        if outcomes is not None:
            outcomes.append(outcome)

    if len(exc_u):
        g_dt = config.excitation_gamma_t / len(exc_u)
        decay = np.exp(-0.5 * g_dt * n_vec)
        for u in exc_u:
            _vec_channel_step(states, u, g_dt, n_vec, sqrt_n, decay, jumps)
    # deterministic phase of the excited amplitude: -conj(beta) = r*e^{i phi}
    phi = np.angle(config.alpha_excited / config.alpha) if abs(config.alpha) else 0.0
    states *= np.exp(1j * phi * n_vec)

    if config.initial_check:
        check(init_u[0])
    if snapshot is not None:
        snapshot(0, parity, flips)
    gamma_dx = 2.0 * config.k0_kappa2 * config.step
    decay = np.exp(-0.5 * gamma_dx * n_vec)
    checks = iter(check_u)
    for i, due in enumerate(config.check_schedule()):
        _vec_channel_step(states, step_u[i], gamma_dx, n_vec, sqrt_n, decay, jumps)
        if due:
            check(next(checks))
        if snapshot is not None:
            snapshot(i + 1, parity, flips)
    return jumps


def run_trajectory(config: QecRunConfig, input_logical: tuple[complex, complex],
                   rng: np.random.Generator) -> TrajectoryRecord:
    """Quantum-jump run for one input state: the one-row case of the engine.

    Alternates channel micro-steps with parity checks on the schedule: one
    initial check right after excitation, then every dx/p.  Records every
    parity outcome and the total jump count.
    """
    c0, c1 = input_logical
    code = CatCode(alpha=config.alpha, dim=truncation_dimension(config.alpha))
    states = np.array(code.encode(c0, c1).amplitudes)[None, :]
    blocks = _draw_blocks(rng, config.n_excitation_steps, config.n_steps,
                          int(config.check_schedule().sum()))
    outcomes: list[np.ndarray] = []
    jumps = _unravel(config, states, [b[:, None] for b in blocks], outcomes=outcomes)
    return TrajectoryRecord(jump_count=int(jumps[0]),
                            parity_outcomes=tuple(int(o[0]) for o in outcomes),
                            final_state=StateVector(states[0]), seed=config.seed)


# ---------------------------------------------------------------------------
# recovery

def count_flips(outcomes) -> int:
    """Inferred jump count: parity flips relative to the even start."""
    flips = 0
    prev = 1
    for o in outcomes:
        if o != prev:
            flips += 1
        prev = o
    return flips


def _recovered(states: np.ndarray, parity: np.ndarray, flips: np.ndarray,
               code: CatCode) -> tuple[np.ndarray, np.ndarray]:
    """Sector swap of each row, given its last parity outcome and flip count.

    Returns the unnormalized recovered states and the weight each row
    keeps in its indicated parity sector (see recover).
    """
    bases = {(lg, s): code.state(lg, s).amplitudes for lg in (0, 1) for s in (+1, -1)}
    c = {key: states @ basis.conj() for key, basis in bases.items()}
    even = parity > 0
    # coefficients in the indicated parity sector and in the other one
    same = [np.where(even, c[(lg, +1)], c[(lg, -1)]) for lg in (0, 1)]
    other = [np.where(even, c[(lg, -1)], c[(lg, +1)]) for lg in (0, 1)]
    phase = (-1j) ** (flips % 4)
    # summed in place, left to right, to hold one (n_traj, dim) temporary
    vec = same[0][:, None] * bases[(0, +1)]
    vec += (phase * same[1])[:, None] * bases[(1, +1)]
    vec += other[0][:, None] * bases[(0, -1)]
    vec += (phase * other[1])[:, None] * bases[(1, -1)]
    return vec, np.abs(same[0]) ** 2 + np.abs(same[1]) ** 2


def recover(record: TrajectoryRecord, code: CatCode) -> tuple[StateVector, bool]:
    """End-of-line correction using the decayed-amplitude code basis.

    If the recorded parity indicates the erred space, the map
    |0L+><0L-| + |1L+><1L-| + h.c. swaps the parity sectors.  It is a
    partial isometry only up to second order in the code-word overlap
    reported by orthogonality_monitor, since the decayed code words are not
    exactly orthogonal; the state is renormalized afterwards.  The
    accumulated i^k phase on the logical-one component is undone with k
    inferred from the parity-flip count.  Components inconsistent with the
    record are carried into the wrong sector (honest infidelity) rather
    than dropped.  Returns (state, warn) with warn set when the projection
    onto the indicated subspace retains less than half the norm.
    """
    outcomes = record.parity_outcomes
    parity = np.array([outcomes[-1] if outcomes else 1])
    flips = np.array([count_flips(outcomes)])
    vec, weight = _recovered(record.final_state.amplitudes[None, :], parity, flips, code)
    norm = np.linalg.norm(vec[0])
    if norm < 1e-8:
        raise ArithmeticError("recovery annihilated the state (outside the code span)")
    return StateVector(vec[0] / norm), bool(weight[0] < 0.5)


def _f0_analytic(config: QecRunConfig, inputs) -> float:
    """Average fidelity of the excited (pre-check) state against the
    matched-amplitude logical reference, from the analytic mixture."""
    a_exc = config.alpha_excited
    total = 0.0
    for c0, c1 in inputs:
        rho = excite_superposition(
            [c0, c0, c1, c1],
            [config.alpha, -config.alpha, 1j * config.alpha, -1j * config.alpha],
            config.g)
        amps_ref = np.array([a_exc, -a_exc, 1j * a_exc, -1j * a_exc])
        coeffs_ref = normalize_superposition([c0, c0, c1, c1], amps_ref)
        total += rho.fidelity_pure(coeffs_ref, amps_ref)
    return total / len(inputs)


def run_ensemble(config: QecRunConfig, input_logical: tuple[complex, complex],
                 input_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Trajectory ensemble for one input state.

    Returns (fidelities, jumps): fidelities has shape
    (n_checkpoints, n_trajectories) holding the recovered fidelity at each
    snapshot; jumps the per-trajectory jump count.  Rows scored against a
    recovery that annihilated them get fidelity 0.
    """
    c0, c1 = input_logical
    dim = truncation_dimension(config.alpha)
    code = CatCode(alpha=config.alpha, dim=dim)
    blocks = _ensemble_uniforms(config, input_index, config.n_excitation_steps,
                                config.n_steps, int(config.check_schedule().sum()))
    nt = config.n_trajectories
    states = np.tile(code.encode(c0, c1).amplitudes, (nt, 1)).astype(complex)

    checkpoints = config.checkpoint_steps()
    fid = np.empty((len(checkpoints), nt))
    cp_index = {int(s): i for i, s in enumerate(checkpoints)}
    a0 = config.alpha_excited

    def snapshot(step_no: int, parity: np.ndarray, flips: np.ndarray):
        idx = cp_index.get(step_no)
        if idx is None:
            return
        x = step_no * config.step
        a_x = a0 * math.exp(-config.k0_kappa2 * x)
        amps_ref = np.array([a_x, -a_x, 1j * a_x, -1j * a_x])
        coeffs = normalize_superposition([c0, c0, c1, c1], amps_ref)
        ref = superposition_vector(coeffs, amps_ref, dim).amplitudes
        if not config.apply_recovery:
            fid[idx] = np.abs(states @ ref.conj()) ** 2
            return
        vec, _ = _recovered(states, parity, flips, CatCode(alpha=a_x, dim=dim))
        norms = np.linalg.norm(vec, axis=1)
        overlap = np.abs(vec @ ref.conj()) ** 2
        fid[idx] = np.where(norms > 1e-8, overlap / np.maximum(norms, 1e-300) ** 2, 0.0)

    jumps = _unravel(config, states, blocks, snapshot=snapshot)
    return fid, jumps


def average_fidelity(config: QecRunConfig, workers: int = 1) -> QecCurve:
    """Bloch-sphere-averaged recovered fidelity along the line.

    Averages over the configured input set (the six Pauli eigenstates
    form a 2-design, so their mean equals the Haar average) and the
    trajectory ensemble; F0 is the analytic pre-check fidelity at x = 0.
    The standard error needs at least two trajectories.
    """
    if config.n_trajectories < 2:
        raise ValueError("need at least two trajectories for a standard error")
    inputs = config.input_states()
    checkpoints = config.checkpoint_steps()
    x = checkpoints * config.step
    per_input_mean = np.zeros((len(inputs), len(checkpoints)))
    per_input_var = np.zeros_like(per_input_mean)

    def one(idx):
        fid, _ = run_ensemble(config, inputs[idx], idx)
        return idx, fid.mean(axis=1), fid.var(axis=1, ddof=1)

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for idx, m, v in pool.map(one, range(len(inputs))):
                per_input_mean[idx] = m
                per_input_var[idx] = v
    else:
        for idx in range(len(inputs)):
            _, per_input_mean[idx], per_input_var[idx] = one(idx)

    f_bar = per_input_mean.mean(axis=0)
    std_err = np.sqrt(per_input_var.sum(axis=0) / config.n_trajectories) / len(inputs)
    f0 = _f0_analytic(config, inputs)
    return QecCurve(x=x, f_bar=f_bar, std_err=std_err, f0=f0,
                    n_trajectories=config.n_trajectories)


def orthogonality_monitor(config: QecRunConfig, n_points: int = 200) -> OrthogonalityReport:
    """Max |<0L'+-|1L'+->| on the decayed code basis along the run; the
    code analysis assumes it stays below 1e-2."""
    x = np.linspace(0.0, config.x_total, n_points)
    a = np.abs(config.alpha_excited) * np.exp(-config.k0_kappa2 * x)
    a_sq = a * a
    n_plus = 2.0 * (1.0 + np.exp(-2.0 * a_sq))
    n_minus = 2.0 * (1.0 - np.exp(-2.0 * a_sq))
    # <0L+-|1L+-> = 4 e^{-a^2} cos(a^2)/N+ (even) or 4i e^{-a^2} sin(a^2)/N- (odd)
    even = np.abs(4.0 * np.exp(-a_sq) * np.cos(a_sq) / n_plus)
    odd = np.abs(4.0 * np.exp(-a_sq) * np.sin(a_sq) / n_minus)
    overlap = np.maximum(even, odd)
    max_overlap = float(overlap.max())
    return OrthogonalityReport(x=x, overlap=overlap, max_overlap=max_overlap,
                               violated=max_overlap > 1e-2)
