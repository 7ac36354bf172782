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
and order-independent under any parallel chunking.  The stream is numpy's
default_rng((seed, input, trajectory)), SeedSequence + PCG64.  The
ensemble steps every trajectory's stream at once in uint32/uint64
arithmetic, bit-identical to trajectory_rng, and makes the draws a few
rows at a time as the micro-steps and checks use them, so it holds
O(n_traj) draws however long the line.  The scheduled checks' draws
follow all the step draws in each stream; a second cursor reaches them by
PCG64's O(log k) jump-ahead.

The ensemble is one (n_traj, dim) array of Fock rows.  Each micro-step
takes its decisions (which rows jump, and whether a due parity check may
read its outcomes from the rows' known sectors) on the whole array, then
does the row-local arithmetic (decay, renormalization, the jumped rows'
writes and the check's renormalization) in one sweep over blocks of rows
that stay in cache.  No bit depends on the block size.  The general
parity projection and the recovery snapshots run over the same blocks,
so a run holds the ensemble, the two draw bursts and O(_BLOCK) scratch;
the snapshots' gemv keeps the whole-array bits while _BLOCK is a
multiple of 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .coupling import (CoherentMixture, CouplerSpec, code_legs, excite_code,
                       normalize_superposition)
from .qstate import fock_vector, truncation_dimension

SIX_CARDINAL = (
    (1.0, 0.0),
    (0.0, 1.0),
    (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)),
    (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)),
    (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)),
    (1.0 / math.sqrt(2.0), -1j / math.sqrt(2.0)),
)


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
    initial_check: bool = True
    apply_recovery: bool = True
    n_checkpoints: int = 7

    def __post_init__(self):
        if self.alpha == 0:
            raise ValueError("code amplitude alpha must be nonzero, got 0")
        if not 0.0 <= self.parity_p <= 1.0:
            raise ValueError("parity probability must lie in [0, 1]")
        if self.x_total <= 0.0 or self.k0_kappa2 < 0.0:
            raise ValueError("need x_total > 0 and k0_kappa2 >= 0")
        if self.n_trajectories < 1:
            raise ValueError("need at least one trajectory")
        if self.n_checkpoints < 1:
            raise ValueError("need at least one checkpoint")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.input_set != "six":
            raise ValueError(f"input_set must be 'six', got {self.input_set!r}")
        nbar = abs(self.alpha_excited) ** 2
        if self.step * 2.0 * self.k0_kappa2 * max(nbar, 1.0) >= 0.05:
            raise ValueError("dx too coarse: per-step jump probability exceeds 0.05")
        if self.n_checkpoints > self.n_steps + 1:
            raise ValueError(f"{self.n_checkpoints} checkpoints asked for, but the line has "
                             f"only {self.n_steps + 1} snapshot steps (0..{self.n_steps})")

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

    def input_states(self):
        """The six Pauli eigenstates: a 2-design, so their mean fidelity is
        the Bloch-sphere average."""
        return list(SIX_CARDINAL)

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


@dataclass(frozen=True)
class OrthogonalityReport:
    x: np.ndarray
    overlap: np.ndarray
    max_overlap: float
    violated: bool


# ---------------------------------------------------------------------------
# deterministic random streams

def trajectory_rng(seed: int, input_index: int, traj_index: int) -> np.random.Generator:
    """Independent stream per (seed, input, trajectory): numpy's
    SeedSequence + PCG64.  _ensemble_uniforms streams the same draws for
    a whole ensemble at once."""
    return np.random.default_rng((seed, input_index, traj_index))


# numpy.random.SeedSequence hash constants, and PCG64's 128-bit multiplier
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1
_LOW32, _SHIFT32 = np.uint64(_M32), np.uint64(32)


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's little-endian uint32 words of a non-negative integer."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _seed_sequence_states(seed: int, input_index: int, nt: int) -> list[np.ndarray]:
    """SeedSequence((seed, input_index, j)).generate_state(4, np.uint64) for
    every j < nt, as four uint64 arrays of length nt."""
    entropy = [np.full(nt, w, dtype=np.uint32)
               for w in _uint32_words(seed) + _uint32_words(input_index)]
    entropy.append(np.arange(nt, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _M32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(nt, dtype=np.uint32))
            for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i_dst in range(8):
        value = pool[i_dst % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _M32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return [state[2 * k] | (state[2 * k + 1] << _SHIFT32) for k in range(4)]


def _lcg_step(hi, lo, mult: int, add_hi, add_lo):
    """(state * mult + add) mod 2**128 on (hi, lo) uint64 halves, for a
    128-bit int mult; the high half of lo * mult's low half from 32-bit
    limbs.  mult = _PCG_MULT with add the increment is one PCG64 step."""
    m_hi, m_lo = np.uint64(mult >> 64), np.uint64(mult & 0xFFFFFFFFFFFFFFFF)
    m_lo1, m_lo0 = m_lo >> _SHIFT32, m_lo & _LOW32
    l1, l0 = lo >> _SHIFT32, lo & _LOW32
    p00, p01, p10 = l0 * m_lo0, l0 * m_lo1, l1 * m_lo0
    mid = (p00 >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = l1 * m_lo1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    new_lo = lo * m_lo + add_lo
    new_hi = carry + lo * m_hi + hi * m_lo + add_hi + (new_lo < add_lo)
    return new_hi, new_lo


def _pcg_seeded(seed: int, input_index: int, nt: int):
    """PCG64(SeedSequence((seed, input_index, j))) for every j < nt, as the
    (hi, lo) halves of its state and (inc_hi, inc_lo) of its increment."""
    s_hi, s_lo, q_hi, q_lo = _seed_sequence_states(seed, input_index, nt)
    one = np.uint64(1)
    inc_hi = (q_hi << one) | (q_lo >> np.uint64(63))
    inc_lo = (q_lo << one) | one
    # srandom: state = 0; step; state += initstate; step
    lo = inc_lo + s_lo
    hi = inc_hi + s_hi + (lo < s_lo)
    return (*_lcg_step(hi, lo, _PCG_MULT, inc_hi, inc_lo), inc_hi, inc_lo)


def _pcg_advance(hi, lo, inc_hi, inc_lo, k: int):
    """The states k LCG steps on, in O(log k): state * A + inc * S with
    A = M**k and S = sum of M**i over i < k, by square-and-multiply as
    numpy's pcg_advance_lcg_128 computes them (with plus = 1)."""
    cur_mult, cur_plus, a, s = _PCG_MULT, 1, 1, 0
    while k:
        if k & 1:
            a, s = a * cur_mult & _M128, (s * cur_mult + cur_plus) & _M128
        cur_mult, cur_plus = cur_mult * cur_mult & _M128, (cur_mult + 1) * cur_plus & _M128
        k >>= 1
    return _lcg_step(hi, lo, a, *_lcg_step(inc_hi, inc_lo, s, 0, 0))


def _uniform_rows(hi, lo, inc_hi, inc_lo, n_rows: int):
    """The next n_rows Generator.random rows of the streams at (hi, lo):
    per row one LCG step, the XSL-RR output and (x >> 11) * 2**-53.  Rows
    are made _DRAW_ROWS at a time into one reused buffer, so a row stays
    valid only until the stream starts its next burst."""
    buf = np.empty((min(_DRAW_ROWS, n_rows), len(lo)))
    for start in range(0, n_rows, _DRAW_ROWS):
        burst = buf[:n_rows - start]
        for row in burst:
            hi, lo = _lcg_step(hi, lo, _PCG_MULT, inc_hi, inc_lo)
            x = hi ^ lo
            rot = hi >> np.uint64(58)
            x = (x >> rot) | (x << (-rot & np.uint64(63)))
            np.multiply(x >> np.uint64(11), 2.0**-53, out=row)
        yield from burst


def _ensemble_uniforms(config: QecRunConfig, input_index: int, n_exc: int,
                       n_steps: int, n_checks: int):
    """Every trajectory's trajectory_rng stream, as two lazy streams of
    (n_traj,) rows.  A trajectory draws, in order, n_exc excitation-step
    draws, one initial-check draw, n_steps line-step draws and n_checks
    scheduled-check draws.  The first stream yields the first three groups
    in that order, the second the check draws, from a cursor that jumps
    n_exc + 1 + n_steps draws ahead of the first (no jump without checks).
    Both share the vectorized SeedSequence pool and PCG64 seeding, and
    hold O(n_traj) memory whatever the draw count."""
    hi, lo, inc_hi, inc_lo = _pcg_seeded(config.seed, input_index, config.n_trajectories)
    n_first = n_exc + 1 + n_steps
    checks = iter(())
    if n_checks:
        checks = _uniform_rows(*_pcg_advance(hi, lo, inc_hi, inc_lo, n_first),
                               inc_hi, inc_lo, n_checks)
    return _uniform_rows(hi, lo, inc_hi, inc_lo, n_first), checks


# ---------------------------------------------------------------------------
# quantum-jump engine on a (n_traj, dim) block of Fock vectors

# relative margin inside which a shortcut may not decide a Bernoulli draw
_BAND = 1e-9
# rows per block of the micro-step sweep, the parity projection and the
# recovery snapshot: a (512, 45) complex block and its conjugate scratch
# take 0.74 MB together, inside a 2 MiB L2.  It must stay a multiple of 8:
# OpenBLAS's gemv takes the rows of the snapshot's overlaps in lanes of 8,
# so blocks of 8k rows get the whole-array bits, and blocks of 2, 4, 5, 7
# or 12 rows moved fidelities by up to 8.9e-16
_BLOCK = 512
# rows per burst of a draw stream, 1.3 MB at 10k trajectories: of 1, 16 and
# 32 rows, 16 gave the lowest median wall time (3.27 s against 3.37 and
# 3.31 s) over eight alternating two-worker dense-parity runs on a 2-vCPU Xeon
_DRAW_ROWS = 16


def _row_norms(states: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """np.linalg.norm(states, axis=1, keepdims=True) with its ufuncs; sq is
    a complex buffer of states' shape that takes the conjugate and then
    the product.  Each row's norm depends on that row only, so a block of
    rows gets the bits the whole array would."""
    np.conjugate(states, out=sq)
    np.multiply(sq, states, out=sq)
    return np.sqrt(np.add.reduce(sq.real, axis=1, keepdims=True))


def _vec_channel_step(states, u, gamma_dt, n_vec, sqrt_n, decay2, jumps,
                      check=None, scratch=None):
    """One jump/no-jump micro-step applied in place to all trajectories,
    and the parity check due after it; decay2 is the no-jump decay
    repeated for the float view's (re, im) pairs.  Scaling that view by
    1/norm is what dividing the complex rows by a real norm computes.

    A row jumps when u < gamma_dt*<n>.  Rows enter with unit norm, so
    <n> <= dim - 1, and <n> is computed only on the rows whose u lies
    below gamma_dt*(dim - 1).  A gemv over a row subset can differ from
    the whole-array gemv in the last bits, so a draw within a relative
    _BAND of its threshold sends the step back to the whole-array <n>:
    every jump is the one that comparison decides.

    check is None, or (uniforms, sector) for a check after this step, with
    sector None or each row's +-1 parity sector before the step when every
    row is sector-pure: the other sector's amplitudes are exactly zero.  A
    jump moves a row to the other sector; decay and renormalization scale
    by positive reals, so exact zeros stay exact.  Then an odd row has
    p_even = 0 and measures -1, and an even row has p_even equal to its
    unit norm to about 1e-14 and measures +1 for any u below 1 - _BAND.
    The projection would write zeros over zeros, so only its
    renormalization runs.  Otherwise (sector None, or an even row drawing
    u >= 1 - _BAND) _vec_parity projects after the step.  Returns the
    check's outcomes, or None without a check.

    Every decision is taken on the whole array first.  The arithmetic then
    runs in one sweep over blocks of _BLOCK rows that stay in cache: decay,
    renormalization, the block's jumped rows, and the check's
    renormalization.  scratch is a complex (min(_BLOCK, n_traj), dim)
    buffer for _row_norms, or None to allocate one.
    """
    rows = np.flatnonzero(u < gamma_dt * n_vec[-1] * (1.0 + _BAND))
    pre = states[rows]
    u_rows = u[rows]
    thr = gamma_dt * (np.abs(pre) ** 2 @ n_vec)
    if np.any(np.abs(u_rows - thr) <= _BAND * thr):
        rows = np.flatnonzero(u < gamma_dt * (np.abs(states) ** 2 @ n_vec))
        pre = states[rows]
    else:
        jumped = u_rows < thr
        rows, pre = rows[jumped], pre[jumped]
    shifted = np.zeros_like(pre)
    shifted[:, :-1] = pre[:, 1:] * sqrt_n
    norms = np.linalg.norm(shifted, axis=1, keepdims=True)
    if np.any(norms < 1e-14):
        raise ArithmeticError("jump applied to (near-)vacuum trajectory")
    unit = shifted / norms
    jumps[rows] += 1

    uniforms, sector = (None, None) if check is None else check
    outcome = None
    if sector is not None:
        sector = sector.copy()
        sector[rows] *= -1
        if not np.any((sector > 0) & (uniforms >= 1.0 - _BAND)):
            outcome = sector

    nt, dim = states.shape
    if scratch is None:
        scratch = np.empty((min(_BLOCK, nt), dim), dtype=complex)
    starts = range(0, nt, _BLOCK)
    cuts = np.searchsorted(rows, [*starts, nt])
    for k, start in enumerate(starts):
        block = states[start:start + _BLOCK]
        sq = scratch[:len(block)]
        flat = block.view(float)
        flat *= decay2
        flat *= 1.0 / _row_norms(block, sq)
        take = slice(cuts[k], cuts[k + 1])
        block[rows[take] - start] = unit[take]
        if outcome is not None:
            norms = _row_norms(block, sq)
            if np.any(norms < 1e-14):
                raise ArithmeticError("parity projection annihilated a trajectory")
            flat *= 1.0 / norms
    if uniforms is not None and outcome is None:
        outcome = _vec_parity(states, uniforms)
    return outcome


def _vec_parity(states: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Projective parity measurement in place; returns the +-1 outcomes.
    Raises on a row the projection annihilates.  p_even, the projection
    and the renormalization are row-local, so they run over blocks of
    _BLOCK rows with one block-sized scratch, and no bit depends on the
    block size."""
    nt, dim = states.shape
    scratch = np.empty((min(_BLOCK, nt), dim), dtype=complex)
    outcome = np.empty(nt, dtype=int)
    for start in range(0, nt, _BLOCK):
        rows = slice(start, start + _BLOCK)
        block, out = states[rows], outcome[rows]
        p_even = np.sum(np.abs(block[:, 0::2]) ** 2, axis=1)
        out[:] = np.where(uniforms[rows] < p_even, 1, -1)
        even = (out > 0)[:, None]
        np.copyto(block[:, 1::2], 0.0, where=even)
        np.copyto(block[:, 0::2], 0.0, where=~even)
        norms = _row_norms(block, scratch[:len(block)])
        if np.any(norms < 1e-14):
            raise ArithmeticError("parity projection annihilated a trajectory")
        flat = block.view(float)
        flat *= 1.0 / norms
    return outcome


def _unravel(config: QecRunConfig, states: np.ndarray, streams, schedule,
             snapshot=None) -> np.ndarray:
    """Quantum-jump run of every row of states, in place.

    streams are the two row streams of _ensemble_uniforms, and schedule is
    config.check_schedule().  The excitation-stage loss and the excitation
    phase come first, then the initial check and the line steps with their
    scheduled checks.  Each step or check pulls its row from its stream
    when it runs.  snapshot(step_no, parity, flips) is called after the
    initial check (step 0) and after every step.  Returns the
    per-trajectory jump counts.
    """
    draws, checks = streams
    nt, dim = states.shape
    n_vec = np.arange(dim, dtype=float)
    sqrt_n = np.sqrt(np.arange(1, dim, dtype=float))
    scratch = np.empty((min(_BLOCK, nt), dim), dtype=complex)
    jumps = np.zeros(nt, dtype=int)
    flips = np.zeros(nt, dtype=int)
    parity = np.ones(nt, dtype=int)
    at_check = None  # jump counts at the last check, which left every row sector-pure

    def record(outcome):
        nonlocal parity, at_check
        flips[:] += outcome != parity
        parity = outcome
        at_check = jumps.copy()

    n_exc = config.n_excitation_steps
    if n_exc:
        g_dt = config.excitation_gamma_t / n_exc
        decay2 = np.repeat(np.exp(-0.5 * g_dt * n_vec), 2)
        for u in islice(draws, n_exc):
            _vec_channel_step(states, u, g_dt, n_vec, sqrt_n, decay2, jumps, scratch=scratch)
    # deterministic phase of the excited amplitude: -conj(beta) = r*e^{i phi}
    phi = np.angle(config.alpha_excited / config.alpha)
    states *= np.exp(1j * phi * n_vec)

    init_u = next(draws)  # drawn whether or not the initial check runs
    if config.initial_check:
        record(_vec_parity(states, init_u))
    if snapshot is not None:
        snapshot(0, parity, flips)
    gamma_dx = 2.0 * config.k0_kappa2 * config.step
    decay2 = np.repeat(np.exp(-0.5 * gamma_dx * n_vec), 2)
    for i, (due, u) in enumerate(zip(schedule, draws, strict=True)):
        check = None
        if due:
            # each row's sector before this step: a jump moves it to the other one
            sector = None if at_check is None else np.where((jumps - at_check) % 2 == 0,
                                                            parity, -parity)
            check = (next(checks), sector)
        outcome = _vec_channel_step(states, u, gamma_dx, n_vec, sqrt_n, decay2, jumps,
                                    check, scratch)
        if due:
            record(outcome)
        if snapshot is not None:
            snapshot(i + 1, parity, flips)
    return jumps


# ---------------------------------------------------------------------------
# recovery

def _code_basis(a: complex, dim: int) -> dict:
    """Unit Fock rows of the code basis at amplitude a, keyed by
    (logical, sign): |0L+-> ~ |a> +- |-a> and |1L+-> ~ |ia> +- |-ia>, with
    c = 1/sqrt(2(1 +- e^{-2|a|^2})) on each leg."""
    basis = {}
    for logical in (0, 1):
        leg = a if logical == 0 else 1j * a
        for sign in (+1, -1):
            c = 1.0 / math.sqrt(2.0 * (1.0 + sign * math.exp(-2.0 * abs(a) ** 2)))
            basis[(logical, sign)] = fock_vector([c, sign * c], [leg, -leg], dim)
    return basis


def _recovered(states: np.ndarray, parity: np.ndarray, flips: np.ndarray,
               bases: dict, conj: dict, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """End-of-line correction of each row on bases, the _code_basis at the
    decayed amplitude (conj holds its conjugate rows), given its last
    parity outcome and flip count; returns the unnormalized recovered
    states, written into out[0], and their norms.  out is a complex
    (2, len(states), dim) buffer, so a run scores a block of rows at a
    time in one reused buffer.

    A row whose parity indicates the erred space has its sectors swapped
    by |0L+><0L-| + |1L+><1L-| + h.c., a partial isometry only up to
    second order in the code-word overlap that orthogonality_monitor
    reports.  The i^k phase on the logical-one component is undone with k
    the flip count.  Components inconsistent with the record are carried
    into the wrong sector (honest infidelity) rather than dropped.
    """
    c = {key: states @ row for key, row in conj.items()}
    even = parity > 0
    # coefficients in the indicated parity sector and in the other one
    same = [np.where(even, c[(lg, +1)], c[(lg, -1)]) for lg in (0, 1)]
    other = [np.where(even, c[(lg, -1)], c[(lg, +1)]) for lg in (0, 1)]
    phase = (-1j) ** (flips % 4)
    vec, tmp = out
    # summed in place, left to right
    np.multiply(same[0][:, None], bases[(0, +1)], out=vec)
    vec += np.multiply((phase * same[1])[:, None], bases[(1, +1)], out=tmp)
    vec += np.multiply(other[0][:, None], bases[(0, -1)], out=tmp)
    vec += np.multiply((phase * other[1])[:, None], bases[(1, -1)], out=tmp)
    return vec, _row_norms(vec, tmp)[:, 0]


def _f0_analytic(config: QecRunConfig, inputs) -> float:
    """Average fidelity of the excited (pre-check) state against the
    matched-amplitude logical reference, from the analytic mixture: one
    contraction over the stack of inputs, summed in input order."""
    rhos = [excite_code(c0, c1, config.alpha, config.g) for c0, c1 in inputs]
    stack = CoherentMixture(np.array([r.amps for r in rhos]), np.array([r.weights for r in rhos]))
    legs = [code_legs(c0, c1, config.alpha_excited) for c0, c1 in inputs]
    coeffs = np.array([c for c, _ in legs], dtype=complex)
    amps = np.array([a for _, a in legs], dtype=complex)
    total = 0.0
    for f in stack.fidelity_pure(normalize_superposition(coeffs, amps), amps).tolist():
        total += f
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
    schedule = config.check_schedule()
    streams = _ensemble_uniforms(config, input_index, config.n_excitation_steps,
                                 config.n_steps, int(schedule.sum()))
    nt = config.n_trajectories
    coeffs, amps = code_legs(c0, c1, config.alpha)
    states = np.tile(fock_vector(normalize_superposition(coeffs, amps), amps, dim), (nt, 1))

    checkpoints = config.checkpoint_steps()
    fid = np.empty((len(checkpoints), nt))
    cp_index = {int(s): i for i, s in enumerate(checkpoints)}
    a0 = config.alpha_excited
    # _recovered's buffer, reused for every block of every snapshot
    buf = np.empty((2, min(_BLOCK, nt), dim), dtype=complex)

    def snapshot(step_no: int, parity: np.ndarray, flips: np.ndarray):
        idx = cp_index.get(step_no)
        if idx is None:
            return
        x = step_no * config.step
        a_x = a0 * math.exp(-config.k0_kappa2 * x)
        ref_coeffs, ref_amps = code_legs(c0, c1, a_x)
        # Gram-normalized twice: a single pass moves std_err in its last digit
        for _ in range(2):
            ref_coeffs = normalize_superposition(ref_coeffs, ref_amps)
        ref = fock_vector(ref_coeffs, ref_amps, dim).conj()
        if not config.apply_recovery:
            fid[idx] = np.abs(states @ ref) ** 2
            return
        bases = _code_basis(a_x, dim)
        conj = {key: row.conj() for key, row in bases.items()}
        for start in range(0, nt, _BLOCK):
            rows = slice(start, min(start + _BLOCK, nt))
            vec, norms = _recovered(states[rows], parity[rows], flips[rows], bases, conj,
                                    buf[:, :rows.stop - start])
            overlap = np.abs(vec @ ref) ** 2
            fid[idx, rows] = np.where(norms > 1e-8, overlap / np.maximum(norms, 1e-300) ** 2, 0.0)

    jumps = _unravel(config, states, streams, schedule, snapshot=snapshot)
    return fid, jumps


def average_fidelity(config: QecRunConfig, workers: int = 1) -> QecCurve:
    """Bloch-sphere-averaged recovered fidelity along the line.

    Averages over the six Pauli eigenstates (a 2-design, so their mean
    equals the Haar average) and the trajectory ensemble, one input per
    task on a pool of workers threads; F0 is the analytic pre-check
    fidelity at x = 0.  The standard error needs at least two trajectories.
    """
    if config.n_trajectories < 2:
        raise ValueError("need at least two trajectories for a standard error")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    from concurrent.futures import ThreadPoolExecutor
    inputs = config.input_states()

    def one(idx):
        fid, _ = run_ensemble(config, inputs[idx], idx)
        return fid.mean(axis=1), fid.var(axis=1, ddof=1)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        stats = list(pool.map(one, range(len(inputs))))
    # (inputs, checkpoints) C-ordered arrays: the reductions below keep their bits
    means, variances = (np.array(column) for column in zip(*stats))
    std_err = np.sqrt(variances.sum(axis=0) / config.n_trajectories) / len(inputs)
    return QecCurve(x=config.checkpoint_steps() * config.step, f_bar=means.mean(axis=0),
                    std_err=std_err, f0=_f0_analytic(config, inputs))


def orthogonality_monitor(config: QecRunConfig) -> OrthogonalityReport:
    """Max |<0L'+-|1L'+->| on the decayed code basis at 200 points along
    the run; the code analysis assumes it stays below 1e-2."""
    x = np.linspace(0.0, config.x_total, 200)
    a = np.abs(config.alpha_excited) * np.exp(-config.k0_kappa2 * x)
    t = a * a
    # <0L+-|1L+-> = 4 e^{-t} cos(t)/N+ = cos(t)/cosh(t) (even) or
    # 4i e^{-t} sin(t)/N- = i sin(t)/sinh(t) (odd), N+- = 2(1 +- e^{-2t}).
    # |sin t| <= t <= sinh t and |cos t| <= 1 <= cosh t hold after rounding,
    # so both ratios stay <= 1, also as t -> 0 where 1 - e^{-2t} cancels.
    with np.errstate(over="ignore"):  # cosh, sinh -> inf past t ~ 710
        overlap = np.maximum(np.abs(np.cos(t)) / np.cosh(t), np.abs(np.sin(t)) / np.sinh(t))
    max_overlap = float(overlap.max())
    return OrthogonalityReport(x=x, overlap=overlap, max_overlap=max_overlap,
                               violated=max_overlap > 1e-2)
