import ctypes
import math
import multiprocessing
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    CodeWord,
    annihilation,
    apply_annihilation,
    assert_record_matches,
    cat_norm,
    channel_step_oracle,
    coherent_state,
    encode,
    ensemble_uniforms_oracle,
    f0_oracle,
    fock_trajectory,
    group_oracle,
    kraus_completeness_residual,
    kraus_pair,
    last_outcome,
    no_jump_norm,
    parity,
    parity_oracle,
    run_ensemble_oracle,
    unravel_on_blocks,
    unravel_oracle,
)
import gspp.qec
from gspp.channel import AMPLITUDE_MATCHED, fidelity_vs_distance
from gspp.coupling import code_legs, normalize_superposition
from gspp.qec import (
    QecRunConfig,
    average_fidelity,
    orthogonality_monitor,
    run_ensemble,
    trajectory_rng,
)
from gspp.qec import (
    SIX_CARDINAL,
    _BLOCK,
    _class_step,
    _code_basis,
    _decay_tile,
    _ensemble_uniforms,
    _f0_analytic,
    _group,
    _recovered,
    _unravel,
)
from gspp.qstate import _coherent_column, fock_vector, truncation_dimension

ALPHA = 3.0
DIM = 64


@pytest.fixture(scope="module")
def basis():
    """The code basis rows at ALPHA, keyed by (logical, sign)."""
    return _code_basis(ALPHA, DIM)


class TestCodeStates:
    def test_normalized(self, basis):
        for st in basis.values():
            assert np.linalg.norm(st) == pytest.approx(1.0, abs=1e-12)

    def test_parity_eigenvalues(self, basis):
        p = parity(DIM)
        for (_, sign), st in basis.items():
            exp = np.real(np.vdot(st, p @ st))
            assert exp == pytest.approx(sign, abs=1e-10)

    def test_code_words_nearly_orthogonal(self, basis):
        assert abs(np.vdot(basis[(0, +1)], basis[(1, +1)])) < 1e-3

    def test_normalizations(self, basis):
        # each row is (|a_l> +- |-a_l>)/sqrt(N+-), N+- = 2(1 +- e^{-18}) at ALPHA = 3
        assert cat_norm(ALPHA, +1) == pytest.approx(2.0 * (1.0 + math.exp(-18.0)))
        assert cat_norm(ALPHA, -1) == pytest.approx(2.0 * (1.0 - math.exp(-18.0)))
        for (logical, sign), st in basis.items():
            leg = ALPHA * 1j**logical
            raw = _coherent_column(leg, DIM) + sign * _coherent_column(-leg, DIM)
            assert np.abs(raw / math.sqrt(cat_norm(ALPHA, sign)) - st).max() < 1e-12


def spread(rng, n_classes, nt):
    """A class index per trajectory, every one of n_classes <= nt in use."""
    return rng.permutation(np.arange(nt) % n_classes)


def class_rows(rows, cls):
    """The class engine's rows for trajectories on rows[cls]: room for one
    row per trajectory, the given rows in the first slots."""
    buf = np.empty((len(cls), rows.shape[1]), dtype=complex)
    buf[:len(rows)] = rows
    return buf


def class_record(n_slots):
    """A fresh class record for _class_step, (jumps, flips): no jumps and
    no flips, one slot per row of room."""
    return np.zeros(n_slots, dtype=int), np.zeros(n_slots, dtype=int)


def step_without_jumps(states, gamma_dt):
    """One _class_step in place, one class per row, with draws u = 1,
    which cannot jump while gamma_dt*<n> < 1."""
    nt, dim = states.shape
    n_vec = np.arange(dim, dtype=float)
    jumps, flips = class_record(nt)
    _class_step(states, np.arange(nt), nt, np.ones(nt), gamma_dt, n_vec, np.sqrt(n_vec[1:]),
                _decay_tile(gamma_dt, n_vec), jumps, flips)
    assert not jumps.any()


class TestJumpRelations:
    def test_annihilation_coefficients(self):
        ratio = cat_norm(ALPHA, -1) / cat_norm(ALPHA, +1)
        coeff, word = apply_annihilation(ALPHA, CodeWord(0, +1))
        assert word == CodeWord(0, -1)
        assert coeff == pytest.approx(ALPHA * math.sqrt(ratio))
        coeff1, word1 = apply_annihilation(ALPHA, CodeWord(1, +1))
        assert word1 == CodeWord(1, -1)
        assert coeff1 == pytest.approx(1j * ALPHA * math.sqrt(ratio))

    def test_matrix_apply_matches_analytic(self, basis):
        a = annihilation(DIM)
        for (logical, sign), st in basis.items():
            applied = a @ st
            coeff, word = apply_annihilation(ALPHA, CodeWord(logical, sign))
            target = coeff * basis[(word.logical, word.parity_sign)]
            assert np.linalg.norm(applied - target) < 1e-10

    def test_no_jump_closed_form(self, basis):
        gamma_dt = 0.04
        basis_dt = _code_basis(ALPHA * math.exp(-gamma_dt / 2.0), DIM)
        words = list(basis)
        states = np.array([basis[w] for w in words])
        step_without_jumps(states, gamma_dt)
        for row, w in zip(states, words):
            assert np.linalg.norm(row - basis_dt[w]) < 1e-10

    def test_no_jump_norm_analytic(self, basis):
        gamma_dt = 0.05
        decayed_alpha = ALPHA * math.exp(-gamma_dt / 2.0)
        for sign in (+1, -1):
            norm_sq = no_jump_norm(basis[(0, sign)], gamma_dt) ** 2
            expected = (math.exp(ALPHA**2 * (math.exp(-gamma_dt) - 1.0))
                        * cat_norm(decayed_alpha, sign) / cat_norm(ALPHA, sign))
            assert norm_sq == pytest.approx(expected, rel=1e-10)

    def test_no_jump_identity(self, basis):
        st = basis[(0, +1)]
        states = st[None, :].copy()
        step_without_jumps(states, 0.0)
        assert np.allclose(states[0], st)


class TestKraus:
    def test_zero_step(self):
        e0, e1 = kraus_pair(0.0, 16)
        assert np.allclose(e0, 0.0)
        assert np.allclose(e1, np.eye(16))

    def test_completeness_residual_bound(self):
        for gamma_dt in (1e-3, 5e-3, 0.01):
            resid = kraus_completeness_residual(gamma_dt, 64)
            assert resid <= gamma_dt**2 * 64**2 / 4.0

    def test_single_step_map_first_order(self, basis):
        # E0,E1 map |0L+><0L+| to dP|0L-><0L-| + (1-dP)|0L+,dt><0L+,dt|
        gamma_dt = 1e-3
        e0, e1 = kraus_pair(gamma_dt, DIM)
        st = basis[(0, +1)]
        rho_out = (e0 @ np.outer(st, st.conj()) @ e0.conj().T
                   + e1 @ np.outer(st, st.conj()) @ e1.conj().T)
        n_bar = ALPHA**2 * cat_norm(ALPHA, -1) / cat_norm(ALPHA, +1)
        d_p = gamma_dt * n_bar
        zero_m = basis[(0, -1)]
        zero_p_dt = _code_basis(ALPHA * math.exp(-gamma_dt / 2.0), DIM)[(0, +1)]
        target = (d_p * np.outer(zero_m, zero_m.conj())
                  + (1.0 - d_p) * np.outer(zero_p_dt, zero_p_dt.conj()))
        diff = np.abs(rho_out - target).max()
        assert diff < 10.0 * gamma_dt**2


class TestParityCheck:
    """A check's outcome is (-1)^jumps, whatever its draw, and the record's
    last outcome (-1)^flips; the check only renormalizes the rows."""

    @staticmethod
    def run_checked(cfg, start, stream):
        """_unravel from one start row; returns the jumps, the outcomes of
        every check and the final per-trajectory rows."""
        cls = np.zeros(cfg.n_trajectories, dtype=np.intp)
        states = class_rows(start[None, :], cls)
        due = check_steps(cfg)
        outcomes = []

        def snapshot(i, n_live, flips):
            if due[i]:
                outcomes.append(last_outcome(flips[cls]))

        jumps = _unravel(cfg, states, cls, stream, cfg.check_schedule(), snapshot)
        return jumps, np.array(outcomes), states[cls]

    def test_even_cat_deterministic(self):
        # a lossless line checked after every step, with initial-check
        # draws from 0 to the largest below 1: every outcome is +1 and every
        # row is still the even cat at the excited amplitude
        cfg = make_config(k0_kappa2=0.0, parity_p=1.0, x_total=0.05, n_trajectories=3)
        init = np.array([0.0, 0.5, 1.0 - 2.0**-53])
        stream = iter([init, *np.ones((cfg.n_steps, 3))])
        jumps, outcomes, rows = self.run_checked(cfg, encode((1.0, 0.0), cfg.alpha), stream)
        assert not jumps.any() and len(outcomes) == cfg.n_steps + 1
        assert np.all(outcomes == 1)
        cat = _code_basis(cfg.alpha_excited, rows.shape[1])[(0, +1)]
        for row in rows:
            assert overlap_sq(row, cat) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_even(self):
        # <n> = 0, so the vacuum never jumps on a lossy line, measures even
        # at every check and stays the vacuum bit for bit
        cfg = make_config(parity_p=1.0, x_total=0.05, n_trajectories=5)
        vac = np.eye(truncation_dimension(cfg.alpha), dtype=complex)[0]
        jumps, outcomes, rows = self.run_checked(cfg, vac, draws(cfg))
        assert not jumps.any() and len(outcomes) == cfg.n_steps + 1
        assert np.all(outcomes == 1)
        assert np.array_equal(rows, np.tile(vac, (5, 1)))

    def test_statistics_match_weights(self):
        # 10^4 trajectories of one class on a lossy line: the last outcome
        # is each one's (-1)^jumps, and the even share is the pure-loss
        # channel's weight of an even loss count at transmissivity eta,
        # sum_n |psi_n|^2 (1 + (2 eta - 1)^n)/2, binomial within 3 sigma
        cfg = make_config(parity_p=1.0, x_total=0.05, n_trajectories=10_000)
        start = encode((0.6, 0.8), cfg.alpha)
        jumps, outcomes, _ = self.run_checked(cfg, start, draws(cfg))
        assert np.array_equal(outcomes[-1], np.where(jumps % 2 == 0, 1, -1))
        eta = math.exp(-2.0 * cfg.k0_kappa2 * cfg.x_total)
        n = np.arange(len(start))
        p_even = float(np.sum(np.abs(start) ** 2 * (1.0 + (2.0 * eta - 1.0) ** n) / 2.0))
        hits = int(np.sum(outcomes[-1] == 1))
        sigma = math.sqrt(cfg.n_trajectories * p_even * (1.0 - p_even))
        assert 0.1 < p_even < 0.9
        assert abs(hits - cfg.n_trajectories * p_even) < 3.0 * sigma


def make_config(**kw):
    base = dict(alpha=ALPHA, g=math.pi / 2, k0_kappa2=1.0, x_total=0.2,
                parity_p=1.0, n_trajectories=64, seed=99)
    base.update(kw)
    return QecRunConfig(**base)


def check_steps(cfg):
    """Mask over snapshot steps 0..n_steps: a check ran just before it."""
    return np.concatenate(([cfg.initial_check], cfg.check_schedule()))


def draws(cfg):
    """Input 0's row stream for _unravel."""
    return _ensemble_uniforms(cfg, 0, cfg.n_excitation_steps, cfg.n_steps)


def unravel_rows(cfg, inp):
    """_unravel on input 0's draws, every row starting at inp.
    Returns the jump counts, the (checks, n_traj) last outcomes (-1)^flips
    of the snapshots that follow a check, the flip counts passed to the
    last snapshot and the final states."""
    blocks = ensemble_uniforms_oracle(cfg, 0, cfg.n_excitation_steps, cfg.n_steps,
                                      int(cfg.check_schedule().sum()))
    states = np.tile(encode(inp, cfg.alpha), (cfg.n_trajectories, 1))
    due = check_steps(cfg)
    outcomes, flips = [], []

    def snapshot(i, f):
        if due[i]:
            outcomes.append(last_outcome(f))
        flips.append(f.copy())

    jumps = unravel_on_blocks(cfg, states, blocks, snapshot)
    return jumps, np.array(outcomes).reshape(-1, cfg.n_trajectories), flips[-1], states


class TestTrajectories:
    def test_lossless_run(self):
        cfg = make_config(k0_kappa2=0.0, parity_p=1.0, x_total=1.0)
        jumps, outcomes, _, _ = unravel_rows(cfg, (1.0, 0.0))
        assert not jumps.any()
        assert outcomes.size and np.all(outcomes == 1)

    def test_jump_statistics(self):
        # mean jump count ~ <n>(1 - e^{-2 k x}) over the ensemble
        cfg = make_config(parity_p=0.0, x_total=0.3, n_trajectories=400,
                          initial_check=False)
        _, jumps = run_ensemble(cfg, (1.0, 0.0), 0)
        n_bar = ALPHA**2 * cat_norm(ALPHA, -1) / cat_norm(ALPHA, +1)
        expected = n_bar * (1.0 - math.exp(-2.0 * 1.0 * 0.3))
        se = math.sqrt(expected / 400)  # Poisson-like spread
        assert abs(jumps.mean() - expected) < 4.0 * se

    def test_parity_flip_jump_alignment(self):
        # p = 1: a check after every micro-step, which jumps at most once,
        # so every recorded flip matches one jump
        cfg = make_config(parity_p=1.0, x_total=0.05, n_trajectories=30, seed=5)
        jumps, _, flips, _ = unravel_rows(cfg, (1.0, 0.0))
        assert jumps.any()
        assert np.array_equal(flips, jumps)

    def test_determinism(self):
        cfg = make_config(n_trajectories=4)
        jumps1, outcomes1, _, states1 = unravel_rows(cfg, (0.6, 0.8))
        jumps2, outcomes2, _, states2 = unravel_rows(cfg, (0.6, 0.8))
        assert np.array_equal(outcomes1, outcomes2)
        assert np.array_equal(jumps1, jumps2)
        assert np.array_equal(states1, states2)

    @pytest.mark.parametrize("beta, parity_p", [(1.0, 0.6), (0.9511, 1.0)])
    def test_matches_fock_oracle(self, beta, parity_p):
        # each ensemble row against the per-trajectory Fock loop on the same
        # stream, with and without excitation-stage loss
        cfg = make_config(g=math.asin(beta), parity_p=parity_p, x_total=0.15,
                          n_trajectories=8)
        inp = (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))
        jumps, outcomes, _, states = unravel_rows(cfg, inp)
        for j in range(cfg.n_trajectories):
            n_jumps, fock_outcomes, amps = fock_trajectory(cfg, inp, trajectory_rng(cfg.seed, 0, j))
            assert jumps[j] == n_jumps
            assert tuple(outcomes[:, j]) == fock_outcomes
            assert np.abs(states[j] - amps).max() < 1e-10


def unit(vec):
    return vec / np.linalg.norm(vec)


def recovered(state, flips, basis):
    """_recovered on one row, normalized."""
    conj = {key: row.conj() for key, row in basis.items()}
    vec, _ = _recovered(state[None, :], np.array([flips]), basis, conj)
    return unit(vec[0])


def overlap_sq(a, b):
    return abs(np.vdot(a, b)) ** 2


class TestRecovery:
    def test_no_jump_identity(self, basis):
        out = recovered(basis[(0, +1)], 0, basis)
        # exact up to the e^{-alpha^2} non-orthogonality of the dyad sum
        assert overlap_sq(out, basis[(0, +1)]) == pytest.approx(1.0, abs=1e-6)

    def test_one_jump_restores_plus(self, basis):
        # |+> = (|0L> + |1L>)/sqrt(2), one jump, then recovery
        a = annihilation(DIM)
        amps = [ALPHA, -ALPHA, 1j * ALPHA, -1j * ALPHA]
        plus = fock_vector(np.ones(4), amps, DIM)
        out = recovered(unit(a @ plus), 1, basis)
        assert overlap_sq(out, plus) > 0.99

    def test_two_jumps_phase_correction(self, basis):
        # two detected jumps: parity back to even, logical-one phase i^2
        a = annihilation(DIM)
        amps = [ALPHA, -ALPHA, 1j * ALPHA, -1j * ALPHA]
        plus = fock_vector(np.ones(4), amps, DIM)
        double = unit(a @ (a @ plus))
        assert overlap_sq(recovered(double, 2, basis), plus) > 0.99
        # without the phase correction the state is orthogonal-ish to |+>
        assert overlap_sq(recovered(double, 0, basis), plus) < 0.6

    def test_inconsistent_record_carried_to_wrong_sector(self, basis):
        # state in the even space but the record claims odd: the swap moves
        # it into the odd sector rather than dropping it
        out = recovered(basis[(0, +1)], 1, basis)
        assert overlap_sq(out, basis[(0, +1)]) < 0.01
        assert overlap_sq(out, basis[(0, -1)]) == pytest.approx(1.0, abs=1e-6)


def openblas_functions(name: str) -> dict:
    """The openblas_<name> function of each OpenBLAS this process has
    loaded, by path."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except FileNotFoundError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                function = getattr(lib, f"{prefix}openblas_{name}{suffix}", None)
                if function is not None:
                    found[path] = function
    return found


def openblas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS this process has loaded, by path."""
    return {path: get() for path, get in openblas_functions("get_num_threads").items()}


class TestEnsemble:
    def test_mc_matches_analytic_channel(self):
        # parity checks disabled: trajectory-averaged fidelity equals the
        # deterministic decohered-mixture result within 3 standard errors
        cfg = make_config(parity_p=0.0, x_total=0.5, n_trajectories=4000,
                          initial_check=False, apply_recovery=False,
                          n_checkpoints=5)
        fid, _ = run_ensemble(cfg, (1.0, 0.0), 0)
        x = cfg.checkpoint_steps() * cfg.step
        analytic = fidelity_vs_distance(ALPHA, math.pi / 2, x, cfg.k0_kappa2,
                                        reference=AMPLITUDE_MATCHED)
        mc = fid.mean(axis=1)
        se = fid.std(axis=1, ddof=1) / math.sqrt(cfg.n_trajectories)
        for i in range(1, len(x)):
            assert abs(mc[i] - analytic[i]) <= 3.0 * se[i]

    def test_p_monotonicity(self):
        cfg_kw = dict(x_total=0.25, n_trajectories=600, n_checkpoints=3, seed=17)
        curves = {}
        for p in (0.0, 0.2, 0.6, 1.0):
            curve = average_fidelity(make_config(parity_p=p, **cfg_kw))
            curves[p] = curve
        for lo, hi in ((0.0, 0.2), (0.2, 0.6), (0.6, 1.0)):
            clo, chi = curves[lo], curves[hi]
            for i in range(len(clo.x)):
                comb = math.hypot(clo.std_err[i], chi.std_err[i])
                assert chi.f_bar[i] - clo.f_bar[i] >= -2.0 * comb

    def test_f0_perfect_coupling(self):
        curve = average_fidelity(make_config(n_trajectories=8, n_checkpoints=2))
        assert curve.f0 == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("g, f0", [
        (math.pi / 2, 0.9999999999999999),
        (math.asin(0.9877), 0.8090420834760145),
        (math.asin(0.9511), 0.48547185737417736),
    ])
    def test_f0_bits_pinned(self, g, f0):
        # the seed-7 benchmark tables print F0 to the last bit
        assert _f0_analytic(make_config(g=g), SIX_CARDINAL) == f0

    @pytest.mark.parametrize("beta", [1.0, 0.9877, 0.9511, 0.9, 0.5])
    def test_f0_stack_equals_per_input_loop(self, beta):
        # one contraction over the six inputs, bit for bit the loop over inputs
        config = make_config(g=math.asin(beta))
        assert _f0_analytic(config, SIX_CARDINAL) == f0_oracle(config, SIX_CARDINAL)

    def test_f0_partial_coupling_below_one(self):
        curve = average_fidelity(make_config(g=0.8 * math.pi / 2, n_trajectories=8,
                                             n_checkpoints=2))
        assert curve.f0 < 0.9

    @pytest.mark.parametrize("workers", [2, 4, 8])  # 8: more workers than inputs
    def test_workers_equivalence(self, workers):
        cfg = make_config(n_trajectories=32, n_checkpoints=3, parity_p=0.6)
        serial = average_fidelity(cfg, workers=1)
        pooled = average_fidelity(cfg, workers=workers)
        assert np.array_equal(serial.f_bar, pooled.f_bar)
        assert np.array_equal(serial.std_err, pooled.std_err)
        assert serial.f0 == pooled.f0

    def test_worker_error_reaches_caller(self, monkeypatch):
        # a forked worker inherits the patched module global
        def broken(*args):
            raise ArithmeticError("broken ensemble")

        monkeypatch.setattr(gspp.qec, "run_ensemble", broken)
        with pytest.raises(ArithmeticError, match="broken ensemble"):
            average_fidelity(make_config(n_trajectories=8, n_checkpoints=2), workers=2)
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_the_call(self):
        average_fidelity(make_config(n_trajectories=8, n_checkpoints=2), workers=2)
        assert multiprocessing.active_children() == []

    def test_worker_processes_run_one_blas_thread(self, monkeypatch):
        # the workers are the parallelism; the calling process keeps its BLAS
        # threads.  It runs two for the test, so that a worker left with the
        # threads it forked with fails also under OPENBLAS_NUM_THREADS=1
        mine = openblas_threads()
        if not mine:
            pytest.skip("no OpenBLAS loaded")

        def blas_threads_as_fidelity(config, input_logical, input_index):
            threads = max(openblas_threads().values())
            return np.full((2, config.n_trajectories), float(threads)), None

        monkeypatch.setattr(gspp.qec, "run_ensemble", blas_threads_as_fidelity)
        setters = openblas_functions("set_num_threads")
        try:
            for set_threads in setters.values():
                set_threads(ctypes.c_int(2))
            assert set(openblas_threads().values()) == {2}
            curve = average_fidelity(make_config(n_trajectories=8, n_checkpoints=2), workers=2)
            assert np.array_equal(curve.f_bar, [1.0, 1.0])
            assert set(openblas_threads().values()) == {2}
        finally:
            for path, set_threads in setters.items():
                set_threads(ctypes.c_int(mine[path]))
        assert openblas_threads() == mine

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match=f"worker.*{workers}"):
            average_fidelity(make_config(n_trajectories=8, n_checkpoints=2), workers=workers)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed .*-1"):
            make_config(seed=-1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["alpha", "g", "k0_kappa2", "x_total"])
    def test_non_finite_field_rejected(self, field, value):
        # unchecked, a non-finite x_total fails in the step count's integer
        # conversion, with a message that names no field
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make_config(**{field: value})

    def test_alpha_past_vacuum_underflow_rejected(self):
        # e^{-|alpha|^2/2} underflows to 0 past |alpha| of about 38.6, and
        # the start row with it; below, the column starts nonzero
        assert _coherent_column(38.5, 2)[0] > 0.0
        make_config(alpha=38.5)
        for alpha in (38.7, -38.7j, 1e200):
            with pytest.raises(ValueError, match="alpha is too large"):
                make_config(alpha=alpha)

    def test_only_the_six_state_input_set(self):
        # the six Pauli eigenstates are an exact 2-design; a sampled set is gone
        assert make_config().input_states() == list(SIX_CARDINAL)
        with pytest.raises(ValueError, match="input_set must be 'six', got 'haar'"):
            make_config(input_set="haar")


# seeds of one, two and three SeedSequence uint32 words
SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                  st.integers(2**64, 2**70 - 1))


def drain(stream, n_exc, nt):
    """A copy of every row of _ensemble_uniforms' stream, as the first
    three of ensemble_uniforms_oracle's blocks."""
    return np.split(np.reshape([row.copy() for row in stream], (-1, nt)), [n_exc, n_exc + 1])


class TestVectorizedStreams:
    """_ensemble_uniforms streams every trajectory's draws at once; column
    j must be trajectory_rng(seed, input, j) drawn in the engine's order,
    as ensemble_uniforms_oracle draws it."""

    @given(seed=SEEDS, input_index=st.integers(0, 9), nt=st.integers(1, 64),
           n_exc=st.integers(0, 4), n_steps=st.integers(1, 12))
    @example(seed=0, input_index=0, nt=1, n_exc=0, n_steps=1)
    @example(seed=2**32 - 1, input_index=9, nt=64, n_exc=0, n_steps=5)
    @example(seed=2**64, input_index=3, nt=7, n_exc=3, n_steps=4)
    def test_matches_trajectory_rng(self, seed, input_index, nt, n_exc, n_steps):
        cfg = make_config(seed=seed, n_trajectories=nt)
        blocks = drain(_ensemble_uniforms(cfg, input_index, n_exc, n_steps), n_exc, nt)
        assert [b.shape for b in blocks] == [(n_exc, nt), (1, nt), (n_steps, nt)]
        drawn = ensemble_uniforms_oracle(cfg, input_index, n_exc, n_steps, 0)
        for block, ref in zip(blocks, drawn):
            assert np.array_equal(block, ref)

    def test_matches_generator_loop(self):
        cfg = make_config(seed=7, n_trajectories=300)
        new = drain(_ensemble_uniforms(cfg, 4, 9, 30), 9, 300)
        old = ensemble_uniforms_oracle(cfg, 4, 9, 30, 0)
        for block, ref in zip(new, old):
            assert np.array_equal(block, ref)

    def test_draw_order_and_count(self):
        # the engine pulls n_exc + 1 + n_steps rows in stream order, and
        # none for a check: beta < 1 gives excitation draws, and at p = 0.4
        # the checks fall between steps
        cfg = make_config(g=math.asin(0.9511), parity_p=0.4, n_trajectories=50)
        n_exc, schedule = cfg.n_excitation_steps, cfg.check_schedule()
        assert n_exc > 0 and 0 < schedule.sum() < cfg.n_steps
        stream = _ensemble_uniforms(cfg, 2, n_exc, cfg.n_steps)
        pulled = []

        def recorded():
            for row in stream:
                pulled.append(row.copy())
                yield row

        cls = np.zeros(cfg.n_trajectories, dtype=np.intp)
        states = class_rows(encode((0.6, 0.8), cfg.alpha)[None, :], cls)
        _unravel(cfg, states, cls, recorded(), schedule)
        assert len(pulled) == n_exc + 1 + cfg.n_steps
        blocks = ensemble_uniforms_oracle(cfg, 2, n_exc, cfg.n_steps, 0)
        assert np.array_equal(pulled, np.concatenate(blocks))

    def test_run_memory_does_not_grow_with_line_length(self):
        # the draws are streamed: a line three times as long, with three
        # times the draws, must not raise run_ensemble's peak allocation.
        # Both take only the step-0 snapshot, which scores one class row:
        # a later snapshot's size follows the live classes, which grow
        # along the line, and would measure those instead of the draws
        peaks = []
        tracemalloc.start()
        try:
            for x_total in (0.05, 0.15):
                cfg = make_config(x_total=x_total, parity_p=1.0, n_trajectories=2000,
                                  n_checkpoints=1)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                run_ensemble(cfg, SIX_CARDINAL[2], 2)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_run_peak_is_ensemble_plus_blocks(self):
        # 10k rows on a 20-step line: the (10000, 45) ensemble is 6.9 MiB and
        # a row of draws 0.08 MiB; the recovery snapshots and the checks add
        # only _BLOCK-row temporaries (26.9 MiB with whole-array snapshots
        # and parity projections)
        cfg = make_config(x_total=0.011, parity_p=1.0, n_trajectories=10_000)
        assert cfg.n_steps == 20 and cfg.initial_check and cfg.apply_recovery
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_ensemble(cfg, SIX_CARDINAL[2], 2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20

    def test_lossy_run_peak_within_per_trajectory_engine(self):
        # the fig5 weakest-coupling panel at p = 0 with 3,000 trajectories:
        # the engine that stepped one row per trajectory peaked at 4,674,706
        # bytes on this run, after the same warm-up run (the first ensemble
        # of a process imports about 1 MiB of modules, numpy.ma among them)
        cfg = make_config(g=math.asin(0.9511), parity_p=0.0, x_total=0.18,
                          n_trajectories=3000, seed=7)
        assert cfg.n_excitation_steps and cfg.initial_check and cfg.apply_recovery
        run_ensemble(make_config(n_trajectories=8, x_total=0.01), SIX_CARDINAL[2], 2)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_ensemble(cfg, SIX_CARDINAL[2], 2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 4_674_706


class TestMicroStepOracle:
    """The class engine's micro-step, and the check fused into it, against
    their complex-arithmetic forms on the per-trajectory rows, bit for bit,
    over many steps."""

    @staticmethod
    def ensemble(rng, nt=400, dim=45):
        states = rng.standard_normal((nt, dim)) + 1j * rng.standard_normal((nt, dim))
        states *= np.exp(-0.08 * np.arange(dim))
        states[: nt // 4, 1::2] = 0.0  # even rows: odd sector exactly zero
        states[nt // 4: nt // 2, 0::2] = 0.0  # odd rows
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        return states

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_steps_bit_exact(self, seed):
        # 400 trajectories in 100 classes; a quarter of the classes are
        # even, a quarter odd and half hold both sectors
        rng = np.random.default_rng(seed)
        nt, n_live = 400, 100
        cls = spread(rng, n_live, nt)
        rows = self.ensemble(rng, n_live)
        new, old = class_rows(rows, cls), rows[cls]
        dim = new.shape[1]
        n_vec = np.arange(dim, dtype=float)
        sqrt_n = np.sqrt(np.arange(1, dim, dtype=float))
        record = class_record(nt)
        jumps_old = np.zeros(nt, dtype=int)
        for k in range(120):
            gamma_dt = 0.02 * (1 + k % 3)
            decay = np.exp(-0.5 * gamma_dt * n_vec)
            u = rng.random(nt) * (0.2 if k % 5 == 0 else 1.0)  # bursts of jumps
            n_live = _class_step(new, cls, n_live, u, gamma_dt, n_vec, sqrt_n,
                                 _decay_tile(gamma_dt, n_vec), *record)
            channel_step_oracle(old, u, gamma_dt, n_vec, sqrt_n, decay, jumps_old)
            assert np.array_equal(new[cls].view(float), old.view(float))
            assert np.array_equal(np.unique(cls), np.arange(n_live))
        assert np.array_equal(record[0][cls], jumps_old)
        assert jumps_old.sum() > nt  # jump rows were exercised
        assert np.any(old == 0.0)  # and exact-zero sectors

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_steps_and_checks_bit_exact(self, seed):
        # 400 trajectories in 100 sector-pure classes, a check fused into
        # every other step: the oracle's projection on draws of 0 measures
        # each row's sector, the start sector times (-1)^jumps
        rng = np.random.default_rng(seed)
        nt, n_live = 400, 100
        cls = spread(rng, n_live, nt)
        rows, sector = sector_pure_rows(rng, n_live, 45)
        new, old, sector = class_rows(rows, cls), rows[cls], sector[cls]
        dim = new.shape[1]
        n_vec = np.arange(dim, dtype=float)
        sqrt_n = np.sqrt(np.arange(1, dim, dtype=float))
        record = class_record(nt)
        jumps_old = np.zeros(nt, dtype=int)
        flips = 0
        for k in range(120):
            gamma_dt = 0.02 * (1 + k % 3)
            decay = np.exp(-0.5 * gamma_dt * n_vec)
            u = rng.random(nt) * (0.2 if k % 5 == 0 else 1.0)  # bursts of jumps
            check = bool(k % 2)
            n_live = _class_step(new, cls, n_live, u, gamma_dt, n_vec, sqrt_n,
                                 _decay_tile(gamma_dt, n_vec), *record, check)
            channel_step_oracle(old, u, gamma_dt, n_vec, sqrt_n, decay, jumps_old)
            if check:
                outcome = parity_oracle(old, np.zeros(nt))
                assert np.array_equal(outcome, np.where(jumps_old % 2 == 0, sector, -sector))
                flips += int(np.sum(outcome != sector))
            assert np.array_equal(record[0][cls], jumps_old)
            assert np.array_equal(new[cls].view(float), old.view(float))
            assert np.array_equal(np.unique(cls), np.arange(n_live))
        assert jumps_old.sum() > nt and flips > 0  # jumps and parity flips exercised

    @given(n_live=st.integers(1, 3 * _BLOCK + 1), n_jumped=st.integers(0, 3 * _BLOCK + 1),
           spread=st.integers(1, 3 * _BLOCK + 1), seed=st.integers(0, 2**32 - 1))
    @example(n_live=1, n_jumped=0, spread=1, seed=0)  # no trajectory jumps
    @example(n_live=1, n_jumped=40, spread=1, seed=0)  # one class
    @example(n_live=3 * _BLOCK + 1, n_jumped=3 * _BLOCK + 1, spread=3 * _BLOCK + 1, seed=1)
    def test_grouping_matches_unique(self, n_live, n_jumped, spread, seed):
        # the jumping trajectories' class ids, drawn from the first spread
        # classes or from all of them, in any order and with repeats
        rng = np.random.default_rng(seed)
        jumped = rng.integers(0, min(spread, n_live), size=n_jumped).astype(np.intp)
        jumped[rng.random(n_jumped) < 0.1] = n_live - 1
        for got, want in zip(_group(jumped, n_live), group_oracle(jumped), strict=True):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_one_row_jump_and_vacuum_errors(self):
        dim = 8
        n_vec = np.arange(dim, dtype=float)
        sqrt_n = np.sqrt(np.arange(1, dim, dtype=float))
        vacuum = np.zeros((1, dim), dtype=complex)
        vacuum[0, 0] = 1.0
        odd = np.zeros((1, dim), dtype=complex)
        odd[0, 1] = 1.0
        one = np.zeros(1, dtype=np.intp)
        decay2 = _decay_tile(0.01, n_vec)
        state = odd.copy()
        record = class_record(1)
        _class_step(state, one, 1, np.array([0.0]), 0.01, n_vec, sqrt_n, decay2, *record)
        assert record[0][0] == 1 and np.array_equal(state, vacuum)
        # <n> = 0 on the vacuum, so only a draw below 0 jumps it, and a
        # jump there has nothing to remove
        with pytest.raises(ArithmeticError, match="vacuum"):
            _class_step(state, one, 1, np.array([-1.0]), 0.01, n_vec, sqrt_n, decay2, *record)


def sector_pure_rows(rng, nt, dim, decay=0.08):
    """Unit rows with random amplitudes in one parity sector each, the other
    sector exactly zero; returns (states, sector)."""
    states = rng.standard_normal((nt, dim)) + 1j * rng.standard_normal((nt, dim))
    states *= np.exp(-decay * np.arange(dim))
    sector = rng.choice([1, -1], size=nt)
    states[sector > 0, 1::2] = 0.0
    states[sector < 0, 0::2] = 0.0
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    return states, sector


def outcome_or_error(fn, *args):
    try:
        return fn(*args)
    except ArithmeticError:
        return ArithmeticError


def near(value, rng, size):
    """value, or one representable step below or above it, per entry."""
    value = np.broadcast_to(value, size)
    return rng.choice(3, size=size).choose(
        [np.nextafter(value, -np.inf), value, np.nextafter(value, np.inf)])


# check draws near the top of the unit interval, where a projective check
# with a draw could find an even row odd: the largest draw, and 1 - 1e-9
# and its neighbours
NEAR_TOP = [1.0 - 2.0**-53, 1.0 - 1e-9, np.nextafter(1.0 - 1e-9, 0.0),
            np.nextafter(1.0 - 1e-9, 1.0)]
# an ensemble of two whole sweep blocks and a ragged third
RAGGED = 2 * _BLOCK + 37


class TestDecisionShortcuts:
    """The micro-step decides a jump from <n> on the rows that can jump,
    and a check's outcome from each trajectory's jump count.  Every jump,
    outcome and per-trajectory state bit must be what the whole-array <n>
    and the projective check with its draw give.  (States compare as float
    views with ==, which holds -0.0 equal to +0.0: the oracles' projection
    writes +0.0 over the empty sector, and their complex division turns
    some -0.0 into +0.0.  No output depends on that sign.)"""

    @staticmethod
    def run_engines(cfg, near_top=None):
        """unravel_on_blocks and unravel_oracle on the same draws; returns
        each one's (jumps, snapshots, states), a snapshot being the step
        number and the record the engine passed it.  near_top, a (rows, u)
        pair, sets those trajectories' check draws to u for the engine and
        to 0 for the oracle, whose projection then measures (-1)^jumps."""
        blocks = ensemble_uniforms_oracle(cfg, 0, cfg.n_excitation_steps, cfg.n_steps,
                                          int(cfg.check_schedule().sum()))
        engine_blocks, oracle_blocks = blocks, blocks
        if near_top is not None:
            rows, u = near_top
            engine_blocks = tuple(b.copy() for b in blocks)
            oracle_blocks = tuple(b.copy() for b in blocks)
            for k in (1, 3):  # the initial and the scheduled check draws
                engine_blocks[k][:, rows] = u
                oracle_blocks[k][:, rows] = 0.0
        start = np.tile(encode((1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)), cfg.alpha),
                        (cfg.n_trajectories, 1))
        runs = []
        for engine, drawn in ((unravel_on_blocks, engine_blocks), (unravel_oracle, oracle_blocks)):
            states = start.copy()
            snaps = []

            def snapshot(i, *record):
                snaps.append((i, *(r.copy() for r in record)))

            jumps = engine(cfg, states, drawn, snapshot)
            runs.append((jumps, snaps, states))
        return runs

    @staticmethod
    def assert_same(new, old):
        assert np.array_equal(new[0], old[0])
        assert [snap[0] for snap in new[1]] == [snap[0] for snap in old[1]]
        for (_, flips), (_, outcome, oracle_flips) in zip(new[1], old[1]):
            assert_record_matches(outcome, oracle_flips, flips)
        assert np.array_equal(new[2].view(float), old[2].view(float))

    @classmethod
    def ensemble_matches_oracle(cls, beta, parity_p, initial_check, nt):
        cfg = make_config(g=math.asin(beta), parity_p=parity_p, initial_check=initial_check,
                          n_trajectories=nt)
        new, old = cls.run_engines(cfg)
        assert new[0].sum() > 100 and check_steps(cfg).sum() > 30  # jumps and checks exercised
        cls.assert_same(new, old)

    @pytest.mark.parametrize("beta, parity_p, initial_check", [
        (1.0, 1.0, True), (1.0, 0.2, True), (1.0, 0.6, True),
        (0.9511, 1.0, True), (0.9511, 0.6, True),
        (1.0, 0.6, False), (0.9511, 0.2, False),
    ])
    def test_ensemble_matches_oracle(self, beta, parity_p, initial_check):
        self.ensemble_matches_oracle(beta, parity_p, initial_check, 300)

    @pytest.mark.parametrize("beta, parity_p, initial_check", [
        (1.0, 1.0, True), (0.9511, 0.6, True), (0.9511, 0.2, False),
    ])
    def test_ensemble_matches_oracle_across_blocks(self, beta, parity_p, initial_check):
        self.ensemble_matches_oracle(beta, parity_p, initial_check, RAGGED)

    @classmethod
    def check_draws_near_top(cls, rows, u, nt):
        # against p_even = 1 to rounding, a projective check with a draw of
        # 1 - 2**-53 could send an even row to its empty odd sector and
        # abort; a check that reads the jump count completes every run
        cfg = make_config(parity_p=1.0, n_trajectories=nt, x_total=0.05)
        new, old = cls.run_engines(cfg, (rows, u))
        assert new[0].sum() > 0 and check_steps(cfg).sum() > 30  # jumps and checks exercised
        cls.assert_same(new, old)

    @pytest.mark.parametrize("rows", [slice(None), slice(0, 1), slice(0, 300, 7)])
    @pytest.mark.parametrize("u", NEAR_TOP)
    def test_check_draws_near_top_of_unit_interval(self, rows, u):
        self.check_draws_near_top(rows, u, 300)

    @pytest.mark.parametrize("rows", [slice(None), slice(-1, None), slice(_BLOCK - 3, None, 7)])
    @pytest.mark.parametrize("u", NEAR_TOP)
    def test_check_draws_near_top_across_blocks(self, rows, u):
        self.check_draws_near_top(rows, u, RAGGED)

    @settings(max_examples=30)
    @given(beta=st.sampled_from([1.0, 0.9877, 0.9511]), parity_p=st.floats(0.0, 1.0),
           initial_check=st.booleans(), nt=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           rows=st.sampled_from([slice(None), slice(0, 1), slice(3, None, 7)]),
           u=st.sampled_from([None, *NEAR_TOP]))
    @example(beta=0.9511, parity_p=1.0, initial_check=True, nt=RAGGED, seed=7,
             rows=slice(_BLOCK - 3, None, 7), u=1.0 - 2.0**-53)
    @example(beta=1.0, parity_p=0.6, initial_check=False, nt=13, seed=11, rows=slice(None),
             u=1.0 - 2.0**-53)
    def test_unravel_matches_oracle(self, beta, parity_p, initial_check, nt, seed, rows, u):
        # a check draws nothing: with check draws near the top of the unit
        # interval, where the oracle's projection could annihilate an even
        # row, the engine equals the oracle run on draws of 0
        cfg = make_config(g=math.asin(beta), parity_p=parity_p, initial_check=initial_check,
                          n_trajectories=nt, seed=seed, x_total=0.05)
        new, old = self.run_engines(cfg, None if u is None else (rows, u))
        self.assert_same(new, old)

    @pytest.mark.parametrize("seed", range(4))
    def test_jump_draws_at_threshold(self, seed):
        # u at the whole-array gamma*<n> and at its neighbours on a random
        # row subset: a subset gemv alone decides some of them wrongly
        # 2000 trajectories in 500 classes, so draws near one threshold
        # split a class between jumping and staying
        rng = np.random.default_rng(seed)
        nt, n_classes, dim, gamma_dt = 2000, 500, 45, 0.01
        n_vec = np.arange(dim, dtype=float)
        sqrt_n = np.sqrt(np.arange(1, dim, dtype=float))
        decay = np.exp(-0.5 * gamma_dt * n_vec)
        for _ in range(25):
            cls = spread(rng, n_classes, nt)
            rows, _ = sector_pure_rows(rng, n_classes, dim)
            new, old = class_rows(rows, cls), rows[cls]
            thr = gamma_dt * (np.abs(old) ** 2 @ n_vec)
            u = np.ones(nt)
            rows = rng.choice(nt, int(rng.integers(1, 400)), replace=False)
            u[rows] = near(thr[rows], rng, len(rows))
            jumps_new, flips = class_record(nt)
            jumps_old = np.zeros(nt, dtype=int)
            _class_step(new, cls, n_classes, u, gamma_dt, n_vec, sqrt_n,
                        _decay_tile(gamma_dt, n_vec), jumps_new, flips)
            channel_step_oracle(old, u, gamma_dt, n_vec, sqrt_n, decay, jumps_old)
            assert np.array_equal(jumps_new[cls], jumps_old)
            assert np.array_equal(new[cls].view(float), old.view(float))

    @pytest.mark.parametrize("beta, parity_p, initial_check", [
        (1.0, 1.0, True), (1.0, 0.2, True), (0.9511, 0.6, True), (0.9511, 0.6, False),
    ])
    def test_rows_stay_sector_pure(self, beta, parity_p, initial_check):
        # from snapshot 0 on every row lies in one parity sector, the other
        # one exactly zero; it is the record's last outcome, (-1)^flips, at
        # every snapshot that follows a check, and (-1)^jumps at the end
        cfg = make_config(g=math.asin(beta), parity_p=parity_p, initial_check=initial_check,
                          n_trajectories=200)
        cls = np.zeros(cfg.n_trajectories, dtype=np.intp)
        states = class_rows(encode((0.6, 0.8), cfg.alpha)[None, :], cls)
        due = check_steps(cfg)
        sectors = []

        def snapshot(i, n_live, flips):
            rows = states[cls]
            even = np.all(rows[:, 1::2] == 0.0, axis=1)
            assert np.array_equal(even, ~np.all(rows[:, 0::2] == 0.0, axis=1))
            sectors.append(np.where(even, 1, -1))
            if due[i]:
                assert np.array_equal(sectors[-1], last_outcome(flips[cls]))

        jumps = _unravel(cfg, states, cls, draws(cfg), cfg.check_schedule(), snapshot)
        assert jumps.sum() > 0 and len(sectors) == cfg.n_steps + 1 > 100
        assert np.array_equal(sectors[-1], np.where(jumps % 2 == 0, 1, -1))

    @given(dim=st.integers(8, 60), gamma_dt=st.floats(1e-4, 0.05), nt=st.integers(1, 200),
           seed=st.integers(0, 2**32 - 1))
    def test_kernels_match_oracles(self, dim, gamma_dt, nt, seed):
        rng = np.random.default_rng(seed)
        n_classes = int(rng.integers(1, nt + 1))
        start_cls = spread(rng, n_classes, nt)
        rows, sector = sector_pure_rows(rng, n_classes, dim, decay=rng.uniform(0.0, 0.2))
        new, cls, sector = class_rows(rows, start_cls), start_cls.copy(), sector[start_cls]
        start = new.copy()
        old = rows[cls]
        n_vec = np.arange(dim, dtype=float)
        sqrt_n = np.sqrt(np.arange(1, dim, dtype=float))
        decay = np.exp(-0.5 * gamma_dt * n_vec)
        thr = gamma_dt * (np.abs(old) ** 2 @ n_vec)
        bound = gamma_dt * (dim - 1) * (1.0 + 1e-9)
        # draws at the row's threshold, at the candidate bound, or anywhere
        u = rng.choice(3, size=nt).choose([near(thr, rng, nt), near(bound, rng, nt),
                                           rng.random(nt) * min(1.0, 2.0 * bound)])
        record = class_record(nt)
        jumps_old = np.zeros(nt, dtype=int)
        n_live = _class_step(new, cls, n_classes, u, gamma_dt, n_vec, sqrt_n,
                             _decay_tile(gamma_dt, n_vec), *record)
        channel_step_oracle(old, u, gamma_dt, n_vec, sqrt_n, decay, jumps_old)
        assert np.array_equal(record[0][cls], jumps_old)
        assert np.array_equal(new[cls].view(float), old.view(float))
        assert np.array_equal(np.unique(cls), np.arange(n_live))

        # the same step fused with a check, against the oracle's projection
        # on draws of 0, which measures each row's sector: the start sector
        # times (-1)^jumps
        new, cls, record = start, start_cls.copy(), class_record(nt)
        _class_step(new, cls, n_classes, u, gamma_dt, n_vec, sqrt_n,
                    _decay_tile(gamma_dt, n_vec), *record, True)
        outcome = parity_oracle(old, np.zeros(nt))
        assert np.array_equal(outcome, np.where(jumps_old % 2 == 0, sector, -sector))
        assert np.array_equal(record[0][cls], jumps_old)
        assert np.array_equal(new[cls].view(float), old.view(float))


class TestBlockedSweep:
    """The micro-step sweeps the rows in blocks of _BLOCK; no bit may depend
    on where the block edges fall."""

    @staticmethod
    def step_both(states, u, check=False, gamma_dt=0.01):
        """The fused step (with a check when check is true), and the oracle
        step and projection on draws of 0, on copies of states; returns
        (states, jumps) of the fused step and (states, jumps, outcomes) of
        the oracle, outcomes None without a check."""
        nt, dim = states.shape
        n_vec = np.arange(dim, dtype=float)
        sqrt_n = np.sqrt(np.arange(1, dim, dtype=float))
        decay = np.exp(-0.5 * gamma_dt * n_vec)
        # one class per row, so the sweep's block edges fall where the rows'
        # do, and the class record is the per-trajectory one
        new, cls, (jumps_new, flips) = states.copy(), np.arange(nt), class_record(nt)
        _class_step(new, cls, nt, u, gamma_dt, n_vec, sqrt_n, _decay_tile(gamma_dt, n_vec),
                    jumps_new, flips, check)
        old, jumps_old = states.copy(), np.zeros(nt, dtype=int)
        channel_step_oracle(old, u, gamma_dt, n_vec, sqrt_n, decay, jumps_old)
        outcome = parity_oracle(old, np.zeros(nt)) if check else None
        return (new[cls], jumps_new), (old, jumps_old, outcome)

    @pytest.mark.parametrize("block", [1, 7, 45])
    def test_block_size_invariance(self, monkeypatch, block):
        # excitation loss and no initial check, then checks at p = 0.6
        cfg = make_config(g=math.asin(0.9511), parity_p=0.6, initial_check=False,
                          n_trajectories=40, x_total=0.05)
        ref = unravel_rows(cfg, (0.6, 0.8))
        monkeypatch.setattr("gspp.qec._BLOCK", block)
        new = unravel_rows(cfg, (0.6, 0.8))
        assert ref[0].sum() > 10 and len(ref[1]) > 20  # jumps and checks exercised
        for a, b in zip(new[:3], ref[:3]):
            assert np.array_equal(a, b)
        assert np.array_equal(new[3].view(float), ref[3].view(float))

    @pytest.mark.parametrize("with_check", [False, True])
    def test_jumps_at_block_edges(self, with_check):
        rng = np.random.default_rng(11)
        states, sector = sector_pure_rows(rng, RAGGED, 45)
        edges = np.array([0, _BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2 * _BLOCK, RAGGED - 1])
        u = np.ones(RAGGED)
        u[edges] = 0.0
        (new, jumps_new), (old, jumps_old, outcome) = self.step_both(states, u, with_check)
        assert np.array_equal(np.flatnonzero(jumps_new), edges)
        assert np.array_equal(jumps_new, jumps_old)
        assert np.array_equal(new.view(float), old.view(float))
        if with_check:
            assert np.array_equal(outcome, np.where(jumps_new % 2 == 0, sector, -sector))

    @pytest.mark.parametrize("block", [1, 7, 8, 64, 512])
    def test_initial_check_in_blocks(self, monkeypatch, block):
        # excitation-stage jumps leave about 330 classes, odd and even, for
        # the initial check to renormalize block by block
        cfg = make_config(g=math.asin(0.9511), parity_p=0.6, initial_check=True,
                          n_trajectories=RAGGED, x_total=0.01)
        monkeypatch.setattr("gspp.qec._BLOCK", block)
        new, old = TestDecisionShortcuts.run_engines(cfg)
        i, flips = new[1][0]
        assert i == 0 and np.any(flips % 2 == 1) and np.any(flips % 2 == 0)
        TestDecisionShortcuts.assert_same(new, old)


def live_counts(monkeypatch):
    """Spy on run_ensemble's _unravel: returns the dict it fills with the
    live class count at each snapshot step."""
    counts = {}
    unravel = gspp.qec._unravel

    def spy(config, states, cls, draws, schedule, snapshot):
        def counted(step_no, n_live, flips):
            counts[step_no] = n_live
            snapshot(step_no, n_live, flips)

        return unravel(config, states, cls, draws, schedule, counted)

    monkeypatch.setattr("gspp.qec._unravel", spy)
    return counts


def assert_matches_whole_array_oracle(cfg, input_index):
    """run_ensemble's (fid, jumps) bit for bit those of the whole-array
    oracle for cfg.apply_recovery."""
    oracle = run_ensemble_oracle if cfg.apply_recovery else unrecovered_oracle
    fid, jumps = run_ensemble(cfg, SIX_CARDINAL[input_index], input_index)
    fid_ref, jumps_ref = oracle(cfg, SIX_CARDINAL[input_index], input_index)
    assert np.array_equal(jumps, jumps_ref)
    assert fid.tobytes() == fid_ref.tobytes()


class TestBlockedRecovery:
    """run_ensemble scores each snapshot's class rows, and a check
    renormalizes them, in blocks of _BLOCK rows.  Every bit must be the
    whole-array oracles', also where a snapshot block would hold one row,
    which numpy scores with its one-row product instead of the gemv."""

    @pytest.fixture(scope="class", params=[513, 517, 1101, RAGGED])
    def whole_array_run(self, request):
        # excitation loss, the initial check and checks at p = 0.6, recovery on
        cfg = make_config(g=math.asin(0.9511), parity_p=0.6, x_total=0.05,
                          n_trajectories=request.param)
        assert cfg.initial_check and cfg.apply_recovery and cfg.n_excitation_steps
        return cfg, run_ensemble_oracle(cfg, SIX_CARDINAL[4], 4)

    @pytest.mark.parametrize("block", [8, 64, 512])
    def test_fidelities_match_whole_array_oracle(self, monkeypatch, whole_array_run, block):
        cfg, (fid_ref, jumps_ref) = whole_array_run
        monkeypatch.setattr("gspp.qec._BLOCK", block)
        fid, jumps = run_ensemble(cfg, SIX_CARDINAL[4], 4)
        assert jumps_ref.sum() > 100 and np.any(fid_ref < 0.99)  # jumps and errors exercised
        assert np.array_equal(jumps, jumps_ref)
        assert fid.tobytes() == fid_ref.tobytes()

    @pytest.mark.parametrize("block", [1, 7, 8, 64, 512])
    @pytest.mark.parametrize("nt", [517, 1101, RAGGED])
    def test_parity_matches_whole_array_oracle(self, monkeypatch, nt, block):
        # row-local arithmetic: a step with its check on a third as many
        # sector-pure classes as trajectories, some of them split by jumps,
        # gives the whole-array step and projection's bits at any block size
        rng = np.random.default_rng(nt)
        n_classes, dim, gamma_dt = nt // 3, 45, 0.05
        cls = spread(rng, n_classes, nt)
        rows, sector = sector_pure_rows(rng, n_classes, dim)
        states, ref, sector = class_rows(rows, cls), rows[cls], sector[cls]
        n_vec = np.arange(dim, dtype=float)
        sqrt_n = np.sqrt(np.arange(1, dim, dtype=float))
        decay = np.exp(-0.5 * gamma_dt * n_vec)
        u = rng.random(nt)
        record = class_record(nt)
        jumps_old = np.zeros(nt, dtype=int)
        monkeypatch.setattr("gspp.qec._BLOCK", block)
        n_live = _class_step(states, cls, n_classes, u, gamma_dt, n_vec, sqrt_n,
                             _decay_tile(gamma_dt, n_vec), *record, True)
        channel_step_oracle(ref, u, gamma_dt, n_vec, sqrt_n, decay, jumps_old)
        expected = parity_oracle(ref, np.zeros(nt))
        assert np.array_equal(record[0][cls], jumps_old)
        assert np.array_equal(expected, np.where(jumps_old % 2 == 0, sector, -sector))
        assert np.any(expected > 0) and np.any(expected < 0) and n_live > n_classes
        assert np.array_equal(states[cls].view(float), ref.view(float))

    @pytest.mark.parametrize("apply_recovery", [True, False])
    @pytest.mark.parametrize("k0_kappa2", [1.0, 0.0])
    def test_lone_class_matches_whole_array_oracle(self, monkeypatch, k0_kappa2,
                                                   apply_recovery):
        # at beta = 1 the step-0 snapshot holds one class, and a lossless
        # line keeps it one class to the end
        cfg = make_config(k0_kappa2=k0_kappa2, x_total=0.05, n_trajectories=300,
                          apply_recovery=apply_recovery)
        counts = live_counts(monkeypatch)
        assert_matches_whole_array_oracle(cfg, 4)
        live = [counts[int(s)] for s in cfg.checkpoint_steps()]
        assert live[0] == 1
        assert (max(live) == 1) == (k0_kappa2 == 0.0)

    @pytest.mark.parametrize("apply_recovery", [True, False])
    @pytest.mark.parametrize("block", [1, 7, 8])
    def test_one_row_tail_matches_whole_array_oracle(self, monkeypatch, block, apply_recovery):
        # a snapshot at every step, so some checkpoint has n_live = 1 (mod
        # _BLOCK) with n_live > _BLOCK: its last class block holds one row
        kw = dict(g=math.asin(0.9511), parity_p=0.6, x_total=0.05, n_trajectories=200,
                  apply_recovery=apply_recovery)
        cfg = make_config(**kw, n_checkpoints=make_config(**kw).n_steps + 1)
        monkeypatch.setattr("gspp.qec._BLOCK", block)
        counts = live_counts(monkeypatch)
        assert_matches_whole_array_oracle(cfg, 2)
        assert any((n - 1) % block == 0 and n > block for n in counts.values())

    def test_checkpoint_scores_class_rows(self, monkeypatch):
        # at p = 1 and beta = 1 the check outcomes up to a step record when
        # each trajectory jumped, so their distinct histories count the
        # live classes (test_one_class_per_jump_history); a checkpoint
        # scores at most one row per class and one copy of a lone row
        cfg = make_config(parity_p=1.0, x_total=0.05, n_trajectories=2000)
        assert cfg.n_excitation_steps == 0 and cfg.initial_check
        start = np.tile(encode(SIX_CARDINAL[2], cfg.alpha), (cfg.n_trajectories, 1))
        blocks = ensemble_uniforms_oracle(cfg, 2, 0, cfg.n_steps,
                                          int(cfg.check_schedule().sum()))
        history = []

        def record(i, parity, flips):
            history.append(parity.copy())

        unravel_oracle(cfg, start, blocks, record)
        n_live = [len(np.unique(np.array(history[:s + 1]).T, axis=0))
                  for s in cfg.checkpoint_steps()]
        scored = []
        code_basis, recovered = gspp.qec._code_basis, gspp.qec._recovered

        def basis_spy(*args):
            scored.append(0)  # one code basis per checkpoint
            return code_basis(*args)

        def recovered_spy(states, *args):
            scored[-1] += len(states)
            return recovered(states, *args)

        monkeypatch.setattr("gspp.qec._code_basis", basis_spy)
        monkeypatch.setattr("gspp.qec._recovered", recovered_spy)
        run_ensemble(cfg, SIX_CARDINAL[2], 2)
        assert len(scored) == len(n_live) and n_live[0] == 1
        assert max(n_live) < cfg.n_trajectories // 4
        for rows, classes in zip(scored, n_live):
            assert classes <= rows <= classes + 1


def unrecovered_oracle(cfg, input_logical, input_index):
    """run_ensemble with apply_recovery off, on the whole array:
    unravel_oracle on ensemble_uniforms_oracle's blocks, each snapshot the
    squared overlap of every row with the reference row."""
    dim = truncation_dimension(cfg.alpha)
    coeffs, amps = code_legs(*input_logical, cfg.alpha)
    states = np.tile(fock_vector(normalize_superposition(coeffs, amps), amps, dim),
                     (cfg.n_trajectories, 1))
    blocks = ensemble_uniforms_oracle(cfg, input_index, cfg.n_excitation_steps, cfg.n_steps,
                                      int(cfg.check_schedule().sum()))
    checkpoints = [int(s) for s in cfg.checkpoint_steps()]
    fid = np.empty((len(checkpoints), cfg.n_trajectories))

    def snapshot(step_no, parity, flips):
        if step_no in checkpoints:
            a_x = cfg.alpha_excited * math.exp(-cfg.k0_kappa2 * step_no * cfg.step)
            ref_coeffs, ref_amps = code_legs(*input_logical, a_x)
            for _ in range(2):
                ref_coeffs = normalize_superposition(ref_coeffs, ref_amps)
            ref = fock_vector(ref_coeffs, ref_amps, dim)
            fid[checkpoints.index(step_no)] = np.abs(states @ ref.conj()) ** 2

    return fid, unravel_oracle(cfg, states, blocks, snapshot)


class TestClassEngine:
    """The ensemble holds one row per jump-history class; every output bit
    must be what the per-trajectory oracles give."""

    @settings(max_examples=40)
    @given(beta=st.sampled_from([1.0, 0.9877, 0.9511]), parity_p=st.floats(0.0, 1.0),
           initial_check=st.booleans(), apply_recovery=st.booleans(), nt=st.integers(2, 300),
           seed=st.integers(0, 2**32 - 1), input_index=st.integers(0, 5))
    @example(beta=0.9511, parity_p=0.6, initial_check=False, apply_recovery=True, nt=13,
             seed=7, input_index=4)
    @example(beta=1.0, parity_p=1.0, initial_check=True, apply_recovery=False, nt=296,
             seed=11, input_index=2)
    def test_run_ensemble_matches_oracle(self, beta, parity_p, initial_check, apply_recovery,
                                         nt, seed, input_index):
        cfg = make_config(g=math.asin(beta), parity_p=parity_p, initial_check=initial_check,
                          apply_recovery=apply_recovery, n_trajectories=nt, seed=seed,
                          x_total=0.05, n_checkpoints=4)
        args = cfg, SIX_CARDINAL[input_index], input_index
        oracle = run_ensemble_oracle if apply_recovery else unrecovered_oracle
        new, old = outcome_or_error(run_ensemble, *args), outcome_or_error(oracle, *args)
        assert new is not ArithmeticError
        assert old is not ArithmeticError
        assert new[0].tobytes() == old[0].tobytes()
        assert np.array_equal(new[1], old[1])

    def test_slots_reused_on_a_long_line(self):
        # at most nt trajectories share one jump, so nt**2 jumps start at
        # least nt new classes: only reused slots keep them within nt rows
        cfg = make_config(parity_p=0.5, x_total=1.0, n_trajectories=5, seed=3)
        new, old = TestDecisionShortcuts.run_engines(cfg)
        assert new[0].sum() >= cfg.n_trajectories**2
        TestDecisionShortcuts.assert_same(new, old)

    @pytest.mark.parametrize("beta, parity_p, initial_check", [
        (1.0, 1.0, True), (0.9511, 0.0, True), (0.9511, 0.6, False),
    ])
    def test_classes_are_shared_histories(self, beta, parity_p, initial_check):
        # every slot below n_live is in use, so there are at most n_traj
        # classes, and the record kept once per class, read through each
        # trajectory's class, is the per-trajectory oracle's at every step
        cfg = make_config(g=math.asin(beta), parity_p=parity_p, initial_check=initial_check,
                          n_trajectories=300)
        nt = cfg.n_trajectories
        start = encode((0.6, 0.8), cfg.alpha)
        blocks = ensemble_uniforms_oracle(cfg, 0, cfg.n_excitation_steps, cfg.n_steps,
                                          int(cfg.check_schedule().sum()))
        records = []

        def record(i, parity, flips):
            records.append((parity.copy(), flips.copy()))

        jumps_old = unravel_oracle(cfg, np.tile(start, (nt, 1)), blocks, record)
        cls = np.zeros(nt, dtype=np.intp)
        states = class_rows(start[None, :], cls)
        counts = []

        def snapshot(i, n_live, flips):
            counts.append(n_live)
            assert n_live == cls.max() + 1 <= nt
            assert np.array_equal(np.unique(cls), np.arange(n_live))
            assert_record_matches(*records[i], flips[cls])

        jumps = _unravel(cfg, states, cls, draws(cfg), cfg.check_schedule(), snapshot)
        assert np.array_equal(jumps, jumps_old)
        assert len(counts) == cfg.n_steps + 1
        assert 1 < max(counts) < nt  # classes split, and are shared

    def test_one_class_per_jump_history(self):
        # at p = 1 a check follows every micro-step, which jumps at most
        # once, so the flip counts record when each trajectory jumped: two
        # trajectories share a class exactly when they jumped at the same
        # steps, and no check splits a class
        cfg = make_config(parity_p=1.0, n_trajectories=300)
        assert cfg.n_excitation_steps == 0 and cfg.initial_check
        nt = cfg.n_trajectories
        cls = np.zeros(nt, dtype=np.intp)
        states = class_rows(encode((0.6, 0.8), cfg.alpha)[None, :], cls)
        history = []

        def snapshot(i, n_live, flips):
            history.append(flips[cls])

        _unravel(cfg, states, cls, draws(cfg), cfg.check_schedule(), snapshot)
        _, key = np.unique(np.array(history).T, axis=0, return_inverse=True)
        n_live = int(cls.max()) + 1
        assert 1 < n_live < nt
        assert len(np.unique(key)) == n_live
        assert len(np.unique(np.stack([cls, key.ravel()]), axis=1).T) == n_live

    def test_odd_start_row_rejected(self):
        # a check reads its outcome from the jump count only if every start
        # row is even
        cfg = make_config(n_trajectories=4)
        cls = np.array([0, 1, 1, 0])
        even = encode((0.6, 0.8), cfg.alpha)
        for odd_part in (1e-300, 1e-300j):
            states = class_rows(np.array([even, even]), cls)
            states[1, 5] = odd_part
            with pytest.raises(ValueError, match="odd amplitude"):
                _unravel(cfg, states, cls, draws(cfg), cfg.check_schedule())


class TestOrthogonalityMonitor:
    def test_alpha3_within_bound(self):
        # the plotted range of the error-correction figures stops where the
        # decayed code basis still satisfies the 1e-2 overlap bound
        cfg = make_config(g=0.8 * math.pi / 2, x_total=0.18, n_trajectories=1)
        report = orthogonality_monitor(cfg)
        assert not report.violated
        assert report.max_overlap <= 1e-2

    def test_small_alpha_violates(self):
        cfg = QecRunConfig(alpha=0.5, g=math.pi / 2, k0_kappa2=1.0, x_total=0.3,
                           parity_p=1.0, n_trajectories=1, seed=0)
        report = orthogonality_monitor(cfg)
        assert report.violated

    def test_start_value_small(self):
        cfg = make_config(x_total=0.3)
        report = orthogonality_monitor(cfg)
        assert report.overlap[0] < 1e-3

    @pytest.mark.parametrize("x_total", [3.0, 10.0, 20.0])
    def test_overlap_of_unit_states_at_most_one(self, x_total):
        # the odd-sector overlap sin(a^2)/sinh(a^2) tends to 1 as a -> 0;
        # 2(1 - e^{-2a^2}) cancelled there and read 1.2588 at x_total = 20
        report = orthogonality_monitor(make_config(x_total=x_total, n_trajectories=1))
        assert np.all(report.overlap <= 1.0)
        assert report.max_overlap <= 1.0

    @pytest.mark.parametrize("x_total", [3.0, 10.0, 20.0])
    def test_matches_fock_overlap(self, x_total):
        # max over sectors of |<0L+-|1L+->| with the code words built as
        # unit Fock vectors of |a> +- |-a> and |ia> +- |-ia>, at all 200
        # points of the run: a from 3 down to 3e^{-3}, 3e^{-10} or 3e^{-20}
        cfg = make_config(x_total=x_total, n_trajectories=1)
        report = orthogonality_monitor(cfg)

        def word(amp, sign):
            v = coherent_state(amp, 60) + sign * coherent_state(-amp, 60)
            return v / np.linalg.norm(v)

        for x, got in zip(report.x, report.overlap):
            a = abs(cfg.alpha_excited) * math.exp(-cfg.k0_kappa2 * x)
            fock = max(abs(np.vdot(word(a, s), word(1j * a, s))) for s in (1, -1))
            assert abs(got - fock) <= 1e-12, (a, got, fock)
