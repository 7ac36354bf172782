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
arithmetic, bit-identical to trajectory_rng, and makes each row of draws
when a micro-step uses it, so it holds O(n_traj) draws however long the
line.

Every row lies in one parity sector from x = 0 on, the other sector's
amplitudes exactly zero, and its sector is (-1)^jumps: the code words are
even, and a jump is the only operation that moves amplitudes between
sectors.  So a parity check's outcome is (-1)^jumps, read without a draw,
and the check's only effect on the rows is their renormalization.

Every operation on a Fock row is row-local, so trajectories with the same
jump history hold bit-identical rows.  The ensemble keeps one row per
such class, at most n_traj rows, and each trajectory's class index.  Each
micro-step decides per trajectory which trajectories jump, then does the
arithmetic (decay, renormalization, the new classes' jumped rows and a
due check's renormalization) once per class, in one sweep over blocks of
class rows that stay in cache.  No bit depends on the block size.  The
trajectories of one class also share their jump and flip counts, so the
record is kept per class as well, and each recovery snapshot scores the
class rows, one block at a time, and hands every trajectory its class's
score.  A run holds the class rows and record, one row of draws and
O(_BLOCK)-row temporaries.  A snapshot block of one row is scored as two
copies of it, since numpy would score a lone row with its one-row product
instead of the gemv.
"""

from __future__ import annotations

import cmath
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
    gamma*dt = 2*k0*kappa''*dx, with dx the largest step that keeps
    gamma*dt*<n> <= 0.01 at the initial amplitude (x_total/100 on a
    lossless line).  parity_p = 0 keeps only the initial post-excitation
    check; otherwise checks run every dx/p (integer schedule, floor(i*p)
    increments).
    """

    alpha: complex
    g: complex
    k0_kappa2: float
    x_total: float
    parity_p: float
    n_trajectories: int = 10_000
    seed: int = 0
    input_set: str = "six"
    initial_check: bool = True
    apply_recovery: bool = True
    n_checkpoints: int = 7

    def __post_init__(self):
        for name in ("alpha", "g", "k0_kappa2", "x_total"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha == 0:
            raise ValueError("code amplitude alpha must be nonzero, got 0")
        if math.exp(-0.5 * abs(self.alpha) * abs(self.alpha)) == 0.0:
            raise ValueError(f"code amplitude alpha is too large, got {self.alpha}: "
                             "its vacuum amplitude e^(-|alpha|^2/2) underflows to 0")
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


def _lcg_step(hi, lo, add_hi, add_lo):
    """One PCG64 step, (state * _PCG_MULT + add) mod 2**128, on (hi, lo)
    uint64 halves with add the increment; the high half of lo times the
    multiplier's low half from 32-bit limbs."""
    m_hi, m_lo = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
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
    return (*_lcg_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _uniform_rows(hi, lo, inc_hi, inc_lo, n_rows: int):
    """The next n_rows Generator.random rows of the streams at (hi, lo):
    per row one LCG step, the XSL-RR output and (x >> 11) * 2**-53."""
    for _ in range(n_rows):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x = hi ^ lo
        rot = hi >> np.uint64(58)
        x = (x >> rot) | (x << (-rot & np.uint64(63)))
        yield (x >> np.uint64(11)) * 2.0**-53


def _ensemble_uniforms(config: QecRunConfig, input_index: int, n_exc: int, n_steps: int):
    """Every trajectory's trajectory_rng stream, as one lazy stream of
    (n_traj,) rows: n_exc excitation-step draws, one initial-check draw
    and n_steps line-step draws, in the order a trajectory draws them.  It
    holds O(n_traj) memory whatever the draw count."""
    return _uniform_rows(*_pcg_seeded(config.seed, input_index, config.n_trajectories),
                         n_exc + 1 + n_steps)


# ---------------------------------------------------------------------------
# quantum-jump engine on one Fock row per jump-history class

# relative margin inside which a shortcut may not decide a Bernoulli draw
_BAND = 1e-9
# class rows per block of the micro-step sweep, the initial check and the
# recovery snapshot: a (512, 45) complex block and its norm's temporary
# take 0.74 MB together, and the sweep's decay tile 0.37 MB more, inside a
# 2 MiB L2.  The sweep and the check are row-local ufuncs.  The snapshot's
# gemv gave the 512-row blocks' bits at blocks of 2, 3, 4, 5, 7, 12 and 13
# rows (numpy 2.4.6 on scipy-openblas 0.3.31's Haswell kernel), but numpy
# scores a block of one row with its one-row product instead, so
# run_ensemble scores a one-row block as two copies of its row
_BLOCK = 512


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """The (n, 1) 2-norms of the complex rows: the expression
    np.linalg.norm(rows, axis=1, keepdims=True) runs, without its dispatch.
    Each row's depends on that row only, so a block of rows gets the bits
    the whole array would."""
    return np.sqrt(np.add.reduce((rows.conj() * rows).real, axis=1, keepdims=True))


def _renormalize(block: np.ndarray) -> None:
    """Divide each complex row of block by its norm, in place, by scaling
    its float view by 1/norm: what dividing the complex rows by a real
    norm computes."""
    flat = block.view(float)
    flat *= 1.0 / _row_norms(block)


def _group(jumped: np.ndarray, n_live: int):
    """The classes of the jumping trajectories, as np.unique(jumped,
    return_inverse=True, return_counts=True) gives them: the sorted
    distinct class ids, each trajectory's index into them and each id's
    count.  The ids are dense in 0..n_live-1, so a mask over the live
    classes sorts them and a counting pass over the indices counts them:
    with thousands of live classes, a one-byte mask scans faster than a
    count per class."""
    seen = np.zeros(n_live, dtype=bool)
    seen[jumped] = True
    parents = np.flatnonzero(seen)
    child = np.searchsorted(parents, jumped)
    return parents, child, np.bincount(child, minlength=len(parents))


def _decay_tile(gamma_dt: float, n_vec: np.ndarray) -> np.ndarray:
    """The no-jump decay exp(-gamma_dt*n/2) of one row's float view, its
    (re, im) pairs, repeated over _BLOCK rows: a block of class rows is
    scaled by a prefix of it in one contiguous multiply, where the one-row
    decay would broadcast as one short loop per row."""
    return np.tile(np.repeat(np.exp(-0.5 * gamma_dt * n_vec), 2), _BLOCK)


def _class_step(states, cls, n_live, u, gamma_dt, n_vec, sqrt_n, decay2, jumps, flips,
                check=False):
    """One jump/no-jump micro-step of every trajectory, and the parity
    check due after it when check is true.  Trajectory j's row is
    states[cls[j]]; rows 0..n_live-1 are the live classes, and states has
    room for one row per trajectory.  jumps and flips are the classes'
    record, indexed like the rows of states.  Updates states, cls and the
    record in place and returns n_live.  decay2 is _decay_tile's no-jump
    decay, one row's float view tiled over _BLOCK rows.

    Every decision is per trajectory.  A trajectory jumps when
    u < gamma_dt*<n>.  Rows enter with unit norm, so <n> <= dim - 1, and
    <n> is computed only on the gathered rows of the trajectories whose u
    lies below gamma_dt*(dim - 1): the matrix a per-trajectory ensemble
    would hold at the same positions.  A gemv over a row subset can differ
    from the whole-array gemv in the last bits, so a draw within a
    relative _BAND of its threshold sends the step back to the <n> of
    every gathered row: every jump is the one that comparison decides.

    Every row is sector-pure (see _unravel), so a check's projection
    would write zeros over zeros, and its only effect on the rows is one
    more renormalization of every class row after the step.

    The arithmetic is row-local, so it runs once per class.  All the
    trajectories that jump from one class share one new class, whose row
    is the parent's pre-step row shifted by a and normalized; it takes the
    parent's slot when the whole class jumped and the next free slot
    otherwise, so the live classes stay at rows 0..n_live-1.  It takes
    its parent's flips and one jump more.  The jumping trajectories are
    grouped by class in one pass over a mask of the live classes
    (_group), which gives np.unique's arrays without its sort.  One sweep
    over blocks of _BLOCK class rows that stay in cache then applies the
    decay and renormalization to the old rows, writes the new ones and
    runs the check's renormalization on all of them.  A block's old rows
    are contiguous, so the decay scales them with one multiply by a
    prefix of decay2 of their size.
    """
    rows = np.flatnonzero(u < gamma_dt * n_vec[-1] * (1.0 + _BAND))
    u_rows = u[rows]
    thr = gamma_dt * (np.abs(states[cls[rows]]) ** 2 @ n_vec)
    if np.any(np.abs(u_rows - thr) <= _BAND * thr):
        rows = np.flatnonzero(u < gamma_dt * (np.abs(states[cls]) ** 2 @ n_vec))
    else:
        rows = rows[u_rows < thr]
    parents, child, n_jumped = _group(cls[rows], n_live)
    unit = np.zeros((len(parents), states.shape[1]), dtype=complex)
    np.multiply(states[parents, 1:], sqrt_n, out=unit[:, :-1])
    norms = _row_norms(unit)
    if np.any(norms < 1e-14):
        raise ArithmeticError("jump applied to (near-)vacuum trajectory")
    np.divide(unit, norms, out=unit)
    moved = np.bincount(cls, minlength=n_live)[parents] == n_jumped
    slots = np.where(moved, parents, n_live + np.cumsum(~moved) - 1)
    cls[rows] = slots[child]
    # the right-hand sides first: a class that jumped whole keeps its slot
    jumps[slots], flips[slots] = jumps[parents] + 1, flips[parents]
    order = np.argsort(slots)
    slots, unit = slots[order], unit[order]
    n_old, n_live = n_live, n_live + len(parents) - int(moved.sum())

    starts = range(0, n_live, _BLOCK)
    cuts = np.searchsorted(slots, [*starts, n_live])
    for k, start in enumerate(starts):
        block = states[start:min(start + _BLOCK, n_live)]
        n = max(n_old - start, 0)
        old = block.view(float)[:n]
        old *= decay2[:old.size].reshape(old.shape)
        _renormalize(block[:n])
        take = slice(cuts[k], cuts[k + 1])
        block[slots[take] - start] = unit[take]
        if check:
            _renormalize(block)
    return n_live


def _unravel(config: QecRunConfig, states: np.ndarray, cls: np.ndarray, draws, schedule,
             snapshot=None) -> np.ndarray:
    """Quantum-jump run of every trajectory, in place on the class rows.

    states has one row per trajectory of room, and trajectory j's row is
    states[cls[j]]; rows 0..max(cls) must all be in use (one row and cls
    all zero start every trajectory in one state), and each must be even.
    draws is the row stream of _ensemble_uniforms, and schedule is
    config.check_schedule().  The excitation-stage loss and the excitation
    phase come first, then the initial check and the line steps with their
    scheduled checks.  Each step pulls its row from the stream when it
    runs; the initial check's row is pulled and not used, so the step
    rows keep their places in every trajectory's stream.  Each stage
    builds its no-jump decay once, tiled over _BLOCK rows (_decay_tile,
    368 KB at dim 45), so each micro-step scales a block of class rows in
    one contiguous multiply instead of one short loop per row.
    snapshot(step_no, n_live, flips) is called after the initial check
    (step 0) and after every step, with the live class count and the
    classes' flip counts, indexed like the rows of states: trajectory j's
    is flips[cls[j]], and its last check outcome (-1)**flips[cls[j]].
    Returns the per-trajectory jump counts.

    A start row's odd amplitudes are exactly zero (fock_vector sums the
    legs +-a and +-ia in pairs whose odd columns cancel exactly); one that
    is not raises ValueError.  The excitation phase, the decay and the
    renormalization scale entries and a jump shifts them by one place, so
    every row stays in one parity sector, (-1)^jumps, with the other
    sector exactly zero.  A projective parity check then finds p_even = 0
    on an odd row and p_even = 1 to rounding on an even one: its outcome
    is (-1)^jumps, and its projection writes zeros over zeros.  So a check
    draws nothing and only renormalizes the rows.  It counts a flip where
    its outcome differs from the last, (-1)^flips: where jumps - flips is
    odd.
    """
    nt, dim = len(cls), states.shape[1]
    n_live = int(cls.max()) + 1
    if np.any(states[:n_live, 1::2]):
        raise ValueError("a start row has a nonzero odd amplitude; the code words are even")
    n_vec = np.arange(dim, dtype=float)
    sqrt_n = np.sqrt(np.arange(1, dim, dtype=float))
    # the record of each class slot, as states holds its row
    jumps = np.zeros(nt, dtype=int)
    flips = np.zeros(nt, dtype=int)

    def record():
        flips[:n_live] += (jumps[:n_live] - flips[:n_live]) % 2

    n_exc = config.n_excitation_steps
    if n_exc:
        g_dt = config.excitation_gamma_t / n_exc
        decay2 = _decay_tile(g_dt, n_vec)
        for u in islice(draws, n_exc):
            n_live = _class_step(states, cls, n_live, u, g_dt, n_vec, sqrt_n, decay2, jumps,
                                 flips)
    # deterministic phase of the excited amplitude: -conj(beta) = r*e^{i phi}
    phi = np.angle(config.alpha_excited / config.alpha)
    states[:n_live] *= np.exp(1j * phi * n_vec)

    next(draws)  # the initial check's draw, made whether or not the check runs
    if config.initial_check:
        for start in range(0, n_live, _BLOCK):
            block = states[start:min(start + _BLOCK, n_live)]
            _renormalize(block)
        record()
    if snapshot is not None:
        snapshot(0, n_live, flips)
    gamma_dx = 2.0 * config.k0_kappa2 * config.step
    decay2 = _decay_tile(gamma_dx, n_vec)
    for i, (due, u) in enumerate(zip(schedule, draws, strict=True)):
        n_live = _class_step(states, cls, n_live, u, gamma_dx, n_vec, sqrt_n, decay2, jumps,
                             flips, due)
        if due:
            record()
        if snapshot is not None:
            snapshot(i + 1, n_live, flips)
    return jumps[cls]


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


def _recovered(states: np.ndarray, flips: np.ndarray, bases: dict,
               conj: dict) -> tuple[np.ndarray, np.ndarray]:
    """End-of-line correction of each row on bases, the _code_basis at the
    decayed amplitude (conj holds its conjugate rows), given its flip
    count; returns the unnormalized recovered states and their norms.

    A row whose last parity outcome, (-1)^flips, indicates the erred space
    has its sectors swapped by |0L+><0L-| + |1L+><1L-| + h.c., a partial
    isometry only up to second order in the code-word overlap that
    orthogonality_monitor reports.  The i^k phase on the logical-one
    component is undone with k the flip count.  Components inconsistent
    with the record are carried into the wrong sector (honest infidelity)
    rather than dropped.
    """
    c = {key: states @ row for key, row in conj.items()}
    even = flips % 2 == 0
    # coefficients in the indicated parity sector and in the other one
    same = [np.where(even, c[(lg, +1)], c[(lg, -1)]) for lg in (0, 1)]
    other = [np.where(even, c[(lg, -1)], c[(lg, +1)]) for lg in (0, 1)]
    phase = (-1j) ** (flips % 4)
    vec = (same[0][:, None] * bases[(0, +1)] + (phase * same[1])[:, None] * bases[(1, +1)]
           + other[0][:, None] * bases[(0, -1)] + (phase * other[1])[:, None] * bases[(1, -1)])
    return vec, _row_norms(vec)[:, 0]


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
    snapshot; jumps the per-trajectory jump count.  Each snapshot scores
    the class rows and gives every trajectory its class's score; rows
    scored against a recovery that annihilated them get fidelity 0.
    """
    c0, c1 = input_logical
    dim = truncation_dimension(config.alpha)
    schedule = config.check_schedule()
    draws = _ensemble_uniforms(config, input_index, config.n_excitation_steps, config.n_steps)
    nt = config.n_trajectories
    coeffs, amps = code_legs(c0, c1, config.alpha)
    states = np.empty((nt, dim), dtype=complex)
    states[0] = fock_vector(normalize_superposition(coeffs, amps), amps, dim)
    cls = np.zeros(nt, dtype=np.intp)

    checkpoints = config.checkpoint_steps()
    fid = np.empty((len(checkpoints), nt))
    cp_index = {int(s): i for i, s in enumerate(checkpoints)}
    a0 = config.alpha_excited

    def snapshot(step_no: int, n_live: int, flips: np.ndarray):
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
        bases = _code_basis(a_x, dim)
        conj = {key: row.conj() for key, row in bases.items()}
        score = np.empty(n_live)
        for start in range(0, n_live, _BLOCK):
            stop = min(start + _BLOCK, n_live)
            # a lone row as two copies: the gemv's bits, not the one-row product's
            pick = slice(start, stop) if stop - start > 1 else [start, start]
            if config.apply_recovery:
                vec, norms = _recovered(states[pick], flips[pick], bases, conj)
                overlap = np.abs(vec @ ref) ** 2
                block = np.where(norms > 1e-8, overlap / np.maximum(norms, 1e-300) ** 2, 0.0)
            else:
                block = np.abs(states[pick] @ ref) ** 2
            score[start:stop] = block[:stop - start]
        fid[idx] = score[cls]

    jumps = _unravel(config, states, cls, draws, schedule, snapshot=snapshot)
    return fid, jumps


def _input_stats(task: tuple[QecRunConfig, int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-checkpoint mean and sample variance of one input's ensemble."""
    config, idx = task
    fid, _ = run_ensemble(config, config.input_states()[idx], idx)
    return fid.mean(axis=1), fid.var(axis=1, ddof=1)


_OPENBLAS_SETTERS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_")


def _one_blas_thread() -> None:
    """Hold every OpenBLAS this worker process has loaded to one thread.

    The worker processes are the parallelism.  Each one's OpenBLAS threads
    on top would oversubscribe the CPUs: on two CPUs, the full fig5 at two
    workers took 2.8 times as long with OpenBLAS's default threads.  The
    libraries are found in /proc/self/maps; without it, or without an
    OpenBLAS, this does nothing.
    """
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps if "openblas" in line}
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_SETTERS:
            if hasattr(lib, name):
                getattr(lib, name)(ctypes.c_int(1))


def average_fidelity(config: QecRunConfig, workers: int = 1) -> QecCurve:
    """Bloch-sphere-averaged recovered fidelity along the line.

    Averages over the six Pauli eigenstates (a 2-design, so their mean
    equals the Haar average) and the trajectory ensemble; F0 is the
    analytic pre-check fidelity at x = 0.  One worker runs the inputs in
    this process, in order.  More run one input per task in min(workers, 6)
    worker processes, started with the POSIX ``fork`` method (threads would
    serialize on the interpreter lock the per-step Python work holds), each
    on one OpenBLAS thread.  The workers are joined before this returns,
    also when an input raises, and the input's exception reaches the caller
    with its own type.  The standard error needs at least two trajectories.
    """
    if config.n_trajectories < 2:
        raise ValueError("need at least two trajectories for a standard error")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    inputs = config.input_states()
    tasks = [(config, idx) for idx in range(len(inputs))]
    if workers == 1:
        stats = list(map(_input_stats, tasks))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                                   mp_context=multiprocessing.get_context("fork"),
                                   initializer=_one_blas_thread)
        try:
            stats = list(pool.map(_input_stats, tasks))
        finally:
            pool.shutdown(cancel_futures=True)  # after an error, start no further input
    # (inputs, checkpoints) C-ordered arrays: the reductions below keep their bits
    means, variances = (np.array(column) for column in zip(*stats))
    std_err = np.sqrt(variances.sum(axis=0) / config.n_trajectories) / len(inputs)
    # a row's score can round to just above 1; the reported mean is held to <= 1
    return QecCurve(x=config.checkpoint_steps() * config.step,
                    f_bar=np.minimum(means.mean(axis=0), 1.0),
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
