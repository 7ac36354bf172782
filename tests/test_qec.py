import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    CodeWord,
    annihilation,
    apply_annihilation,
    cat_norm,
    channel_step_oracle,
    coherent_state,
    encode,
    ensemble_uniforms_oracle,
    f0_oracle,
    fock_trajectory,
    kraus_completeness_residual,
    kraus_pair,
    no_jump_norm,
    parity,
    parity_oracle,
    run_ensemble_oracle,
    unravel_on_blocks,
    unravel_oracle,
    vec_parity_oracle,
)
from gspp.channel import AMPLITUDE_MATCHED, fidelity_vs_distance
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
    _code_basis,
    _ensemble_uniforms,
    _f0_analytic,
    _pcg_advance,
    _pcg_seeded,
    _recovered,
    _unravel,
    _vec_channel_step,
    _vec_parity,
)
from gspp.qstate import _coherent_column, fock_vector

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


def step_without_jumps(states, gamma_dt):
    """One _vec_channel_step in place with draws u = 1, which cannot jump
    while gamma_dt*<n> < 1."""
    nt, dim = states.shape
    n_vec = np.arange(dim, dtype=float)
    jumps = np.zeros(nt, dtype=int)
    _vec_channel_step(states, np.ones(nt), gamma_dt, n_vec, np.sqrt(n_vec[1:]),
                      np.repeat(np.exp(-0.5 * gamma_dt * n_vec), 2), jumps)
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
    def test_even_cat_deterministic(self, basis):
        rng = np.random.default_rng(1)
        rows = basis[(0, +1)][None, :].copy()
        outcome = _vec_parity(rows, rng.random(1))
        assert outcome[0] == 1
        assert abs(np.vdot(rows[0], basis[(0, +1)])) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_even(self):
        rng = np.random.default_rng(2)
        vac = np.eye(8, dtype=complex)[:1]
        assert _vec_parity(vac, rng.random(1))[0] == 1

    def test_statistics_match_weights(self, basis):
        # even/odd superposition measured on 10^4 rows: binomial within 3 sigma
        w_even = 0.7
        psi = math.sqrt(w_even) * basis[(0, +1)] + math.sqrt(1.0 - w_even) * basis[(0, -1)]
        psi /= np.linalg.norm(psi)
        rng = np.random.default_rng(3)
        n = 10_000
        rows = np.tile(psi, (n, 1))
        hits = int(np.sum(_vec_parity(rows, rng.random(n)) == 1))
        p_even = float(np.sum(np.abs(psi[0::2]) ** 2))
        sigma = math.sqrt(n * p_even * (1.0 - p_even))
        assert abs(hits - n * p_even) < 3.0 * sigma


def make_config(**kw):
    base = dict(alpha=ALPHA, g=math.pi / 2, k0_kappa2=1.0, x_total=0.2,
                parity_p=1.0, n_trajectories=64, seed=99)
    base.update(kw)
    return QecRunConfig(**base)


def check_steps(cfg):
    """Mask over snapshot steps 0..n_steps: a check ran just before it."""
    return np.concatenate(([cfg.initial_check], cfg.check_schedule()))


def unravel_rows(cfg, inp):
    """_unravel on input 0's draws, every row starting at inp.
    Returns the jump counts, the (checks, n_traj) outcomes read from the
    snapshots that follow a check, the flip counts passed to the last
    snapshot and the final states."""
    blocks = ensemble_uniforms_oracle(cfg, 0, cfg.n_excitation_steps, cfg.n_steps,
                                      int(cfg.check_schedule().sum()))
    states = np.tile(encode(inp, cfg.alpha), (cfg.n_trajectories, 1))
    due = check_steps(cfg)
    outcomes, flips = [], []

    def snapshot(i, parity, f):
        if due[i]:
            outcomes.append(parity.copy())
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
        # p = 1 with a fine step: every recorded flip matches one jump
        cfg = make_config(parity_p=1.0, x_total=0.05, dx=0.0001,
                          n_trajectories=30, seed=5)
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

    def test_too_coarse_step_rejected(self):
        with pytest.raises(ValueError):
            make_config(dx=1.0, k0_kappa2=1.0)


def unit(vec):
    return vec / np.linalg.norm(vec)


def recovered(state, last_parity, flips, basis):
    """_recovered on one row, normalized."""
    conj = {key: row.conj() for key, row in basis.items()}
    vec, _ = _recovered(state[None, :], np.array([last_parity]), np.array([flips]), basis,
                        conj, np.empty((2, 1, len(state)), dtype=complex))
    return unit(vec[0])


def overlap_sq(a, b):
    return abs(np.vdot(a, b)) ** 2


class TestRecovery:
    def test_no_jump_identity(self, basis):
        out = recovered(basis[(0, +1)], 1, 0, basis)
        # exact up to the e^{-alpha^2} non-orthogonality of the dyad sum
        assert overlap_sq(out, basis[(0, +1)]) == pytest.approx(1.0, abs=1e-6)

    def test_one_jump_restores_plus(self, basis):
        # |+> = (|0L> + |1L>)/sqrt(2), one jump, then recovery
        a = annihilation(DIM)
        amps = [ALPHA, -ALPHA, 1j * ALPHA, -1j * ALPHA]
        plus = fock_vector(np.ones(4), amps, DIM)
        out = recovered(unit(a @ plus), -1, 1, basis)
        assert overlap_sq(out, plus) > 0.99

    def test_two_jumps_phase_correction(self, basis):
        # two detected jumps: parity back to even, logical-one phase i^2
        a = annihilation(DIM)
        amps = [ALPHA, -ALPHA, 1j * ALPHA, -1j * ALPHA]
        plus = fock_vector(np.ones(4), amps, DIM)
        double = unit(a @ (a @ plus))
        assert overlap_sq(recovered(double, 1, 2, basis), plus) > 0.99
        # without the phase correction the state is orthogonal-ish to |+>
        assert overlap_sq(recovered(double, 1, 0, basis), plus) < 0.6

    def test_inconsistent_record_carried_to_wrong_sector(self, basis):
        # state in the even space but the record claims odd: the swap moves
        # it into the odd sector rather than dropping it
        out = recovered(basis[(0, +1)], -1, 1, basis)
        assert overlap_sq(out, basis[(0, +1)]) < 0.01
        assert overlap_sq(out, basis[(0, -1)]) == pytest.approx(1.0, abs=1e-6)


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

    def test_workers_equivalence(self):
        cfg = make_config(n_trajectories=32, n_checkpoints=3, parity_p=0.6)
        serial = average_fidelity(cfg, workers=1)
        threaded = average_fidelity(cfg, workers=4)
        assert np.array_equal(serial.f_bar, threaded.f_bar)
        assert np.array_equal(serial.std_err, threaded.std_err)
        assert serial.f0 == threaded.f0

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match=f"worker.*{workers}"):
            average_fidelity(make_config(n_trajectories=8, n_checkpoints=2), workers=workers)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed .*-1"):
            make_config(seed=-1)

    def test_only_the_six_state_input_set(self):
        # the six Pauli eigenstates are an exact 2-design; a sampled set is gone
        assert make_config().input_states() == list(SIX_CARDINAL)
        with pytest.raises(ValueError, match="input_set must be 'six', got 'haar'"):
            make_config(input_set="haar")


# seeds of one, two and three SeedSequence uint32 words
SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                  st.integers(2**64, 2**70 - 1))


def drain(streams, n_exc, nt):
    """A copy of every row of _ensemble_uniforms' two streams, as
    ensemble_uniforms_oracle's four blocks."""
    draws, checks = (np.reshape([row.copy() for row in stream], (-1, nt)) for stream in streams)
    return (*np.split(draws, [n_exc, n_exc + 1]), checks)


class TestVectorizedStreams:
    """_ensemble_uniforms streams every trajectory's draws at once; column
    j must be trajectory_rng(seed, input, j) drawn in the engine's order,
    as ensemble_uniforms_oracle draws it."""

    @given(seed=SEEDS, input_index=st.integers(0, 9), nt=st.integers(1, 64),
           n_exc=st.integers(0, 4), n_steps=st.integers(1, 12), n_checks=st.integers(0, 12))
    @example(seed=0, input_index=0, nt=1, n_exc=0, n_steps=1, n_checks=0)
    @example(seed=2**32 - 1, input_index=9, nt=64, n_exc=0, n_steps=5, n_checks=5)
    @example(seed=2**64, input_index=3, nt=7, n_exc=3, n_steps=4, n_checks=0)
    def test_matches_trajectory_rng(self, seed, input_index, nt, n_exc, n_steps, n_checks):
        cfg = make_config(seed=seed, n_trajectories=nt)
        blocks = drain(_ensemble_uniforms(cfg, input_index, n_exc, n_steps, n_checks), n_exc, nt)
        assert [b.shape for b in blocks] == [(n_exc, nt), (1, nt), (n_steps, nt), (n_checks, nt)]
        drawn = ensemble_uniforms_oracle(cfg, input_index, n_exc, n_steps, n_checks)
        for block, ref in zip(blocks, drawn):
            assert np.array_equal(block, ref)

    def test_matches_generator_loop(self):
        cfg = make_config(seed=7, n_trajectories=300)
        new = drain(_ensemble_uniforms(cfg, 4, 9, 30, 17), 9, 300)
        old = ensemble_uniforms_oracle(cfg, 4, 9, 30, 17)
        for block, ref in zip(new, old):
            assert np.array_equal(block, ref)

    @pytest.mark.parametrize("rows", [1, 7, 40, 64])
    def test_burst_size_invariance(self, monkeypatch, rows):
        # 40 first-stream rows and 17 check rows, in bursts of every size
        monkeypatch.setattr("gspp.qec._DRAW_ROWS", rows)
        self.test_matches_generator_loop()

    @given(seed=SEEDS, input_index=st.integers(0, 9), traj=st.integers(0, 63),
           k=st.integers(0, 2**128 - 1))
    @example(seed=7, input_index=0, traj=0, k=0)
    @example(seed=7, input_index=5, traj=63, k=1)
    @example(seed=2**32 - 1, input_index=1, traj=9, k=217)
    @example(seed=2**64, input_index=2, traj=31, k=649)
    @example(seed=0, input_index=9, traj=4, k=2**33 + 5)
    def test_jump_ahead_matches_pcg64_advance(self, seed, input_index, traj, k):
        hi, lo, inc_hi, inc_lo = _pcg_seeded(seed, input_index, traj + 1)
        bitgen = np.random.PCG64(np.random.SeedSequence((seed, input_index, traj)))
        assert int(inc_hi[traj]) << 64 | int(inc_lo[traj]) == bitgen.state["state"]["inc"]
        hi, lo = _pcg_advance(hi, lo, inc_hi, inc_lo, k)
        assert int(hi[traj]) << 64 | int(lo[traj]) == bitgen.advance(k).state["state"]["state"]

    def test_draw_order_and_count(self):
        # beta < 1 gives excitation draws, and at p = 0.4 the check rows fall
        # between step rows
        cfg = make_config(g=math.asin(0.9511), parity_p=0.4, n_trajectories=50)
        n_exc, schedule = cfg.n_excitation_steps, cfg.check_schedule()
        n_checks = int(schedule.sum())
        assert n_exc > 0 and 0 < n_checks < cfg.n_steps
        streams = _ensemble_uniforms(cfg, 2, n_exc, cfg.n_steps, n_checks)
        pulled = []

        def recorded(name, stream):
            for row in stream:
                pulled.append((name, row.copy()))
                yield row

        states = np.tile(encode((0.6, 0.8), cfg.alpha), (cfg.n_trajectories, 1))
        _unravel(cfg, states, (recorded("draw", streams[0]), recorded("check", streams[1])),
                 schedule)
        order = ["draw"] * (n_exc + 1)
        for due in schedule:
            order += ["draw", "check"] if due else ["draw"]
        assert [name for name, _ in pulled] == order
        exc, init, step, check = ensemble_uniforms_oracle(cfg, 2, n_exc, cfg.n_steps, n_checks)
        expected = {"draw": iter(np.concatenate((exc, init, step))), "check": iter(check)}
        for name, row in pulled:
            assert np.array_equal(row, next(expected[name]))
        assert all(next(stream, None) is None for stream in (*streams, *expected.values()))

    def test_run_memory_does_not_grow_with_line_length(self):
        # the draws are streamed: a line three times as long, with three
        # times the draws, must not raise run_ensemble's peak allocation
        peaks = []
        tracemalloc.start()
        try:
            for x_total in (0.05, 0.15):
                cfg = make_config(x_total=x_total, parity_p=1.0, n_trajectories=2000)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                run_ensemble(cfg, SIX_CARDINAL[2], 2)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_run_peak_is_ensemble_plus_blocks(self):
        # 10k rows on a 20-step line: the (10000, 45) ensemble is 6.9 MiB and
        # the two draw bursts 2.4 MiB; the recovery snapshots and the parity
        # projection add only _BLOCK-row scratch (26.9 MiB with whole-array
        # snapshots and projection)
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


class TestMicroStepOracle:
    """The float-view micro-step and parity projection against their
    complex-arithmetic forms, bit for bit, over many steps."""

    @staticmethod
    def ensemble(rng, nt=400, dim=45):
        states = rng.standard_normal((nt, dim)) + 1j * rng.standard_normal((nt, dim))
        states *= np.exp(-0.08 * np.arange(dim))
        states[: nt // 4, 1::2] = 0.0  # even rows: odd sector exactly zero
        states[nt // 4: nt // 2, 0::2] = 0.0  # odd rows
        states /= np.linalg.norm(states, axis=1, keepdims=True)
        return states

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_steps_and_checks_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        new = self.ensemble(rng)
        old = new.copy()
        nt, dim = new.shape
        n_vec = np.arange(dim, dtype=float)
        sqrt_n = np.sqrt(np.arange(1, dim, dtype=float))
        jumps_new = np.zeros(nt, dtype=int)
        jumps_old = np.zeros(nt, dtype=int)
        flips = 0
        for k in range(120):
            gamma_dt = 0.02 * (1 + k % 3)
            decay = np.exp(-0.5 * gamma_dt * n_vec)
            u = rng.random(nt) * (0.2 if k % 5 == 0 else 1.0)  # bursts of jumps
            _vec_channel_step(new, u, gamma_dt, n_vec, sqrt_n, np.repeat(decay, 2), jumps_new)
            channel_step_oracle(old, u, gamma_dt, n_vec, sqrt_n, decay, jumps_old)
            assert np.array_equal(new.view(float), old.view(float))
            if k % 2:
                before = np.sum(np.abs(new[:, 0::2]) ** 2, axis=1) > 0.5
                u = rng.random(nt)
                outcome = _vec_parity(new, u)
                assert np.array_equal(outcome, parity_oracle(old, u))
                assert np.array_equal(new.view(float), old.view(float))
                flips += int(np.sum((outcome > 0) != before))
        assert np.array_equal(jumps_new, jumps_old)
        assert jumps_new.sum() > nt  # jump rows were exercised
        assert flips > 0  # and parity flips
        assert np.any(new == 0.0)  # and exact-zero sectors

    def test_one_row_jump_and_vacuum_errors(self):
        dim = 8
        n_vec = np.arange(dim, dtype=float)
        sqrt_n = np.sqrt(np.arange(1, dim, dtype=float))
        vacuum = np.zeros((1, dim), dtype=complex)
        vacuum[0, 0] = 1.0
        odd = np.zeros((1, dim), dtype=complex)
        odd[0, 1] = 1.0
        with pytest.raises(ArithmeticError):
            _vec_parity(vacuum.copy(), np.array([1.0]))  # p_even = 1, u = 1 -> odd
        state = odd.copy()
        jumps = np.zeros(1, dtype=int)
        _vec_channel_step(state, np.array([0.0]), 0.01, n_vec, sqrt_n,
                          np.repeat(np.exp(-0.005 * n_vec), 2), jumps)
        assert jumps[0] == 1 and np.array_equal(state, vacuum)


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


# check draws at and around the sector shortcut's 1 - _BAND cut
NEAR_TOP = [1.0 - 2.0**-53, 1.0 - 1e-9, np.nextafter(1.0 - 1e-9, 0.0),
            np.nextafter(1.0 - 1e-9, 1.0)]
# an ensemble of two whole sweep blocks and a ragged third
RAGGED = 2 * _BLOCK + 37


class TestDecisionShortcuts:
    """The micro-step decides a jump from <n> on the rows that can jump,
    and a check after the first from each row's parity sector.  Every
    jump, outcome and state bit must be what the whole-array <n> and the
    general projection give.  (States compare as float views: the oracles'
    complex division turns some -0.0 into +0.0, the float view does not.)"""

    @staticmethod
    def run_engines(cfg, edit=None):
        blocks = ensemble_uniforms_oracle(cfg, 0, cfg.n_excitation_steps, cfg.n_steps,
                                          int(cfg.check_schedule().sum()))
        if edit is not None:
            edit(blocks)
        start = np.tile(encode((1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)), cfg.alpha),
                        (cfg.n_trajectories, 1))
        due = check_steps(cfg)
        runs = []
        for engine in (unravel_on_blocks, unravel_oracle):
            states = start.copy()
            outcomes, snaps = [], []
            def snapshot(i, parity, flips):
                snaps.append((i, parity.copy(), flips.copy()))
                if due[i]:
                    outcomes.append(parity.copy())

            jumps = outcome_or_error(engine, cfg, states, blocks, snapshot)
            runs.append(jumps if jumps is ArithmeticError else (jumps, outcomes, snaps, states))
        return runs

    @staticmethod
    def assert_same(new, old):
        if new is ArithmeticError or old is ArithmeticError:
            assert new is old
            return
        assert np.array_equal(new[0], old[0])
        assert len(new[1]) == len(old[1])
        assert all(np.array_equal(a, b) for a, b in zip(new[1], old[1]))
        assert len(new[2]) == len(old[2])
        for (i, p, f), (j, q, g) in zip(new[2], old[2]):
            assert i == j and np.array_equal(p, q) and np.array_equal(f, g)
        assert np.array_equal(new[3].view(float), old[3].view(float))

    @classmethod
    def ensemble_matches_oracle(cls, beta, parity_p, initial_check, nt):
        cfg = make_config(g=math.asin(beta), parity_p=parity_p, initial_check=initial_check,
                          n_trajectories=nt)
        new, old = cls.run_engines(cfg)
        assert new[0].sum() > 100 and len(new[1]) > 30  # jumps and checks exercised
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
        # against p_even = 1 to rounding, u = 1 - 2**-53 may send an even row
        # to the empty odd sector, and then both engines raise
        def edit(blocks):
            blocks[3][5:, rows] = u

        cfg = make_config(parity_p=1.0, n_trajectories=nt, x_total=0.05)
        new, old = cls.run_engines(cfg, edit)
        if u < 1.0 - 1e-10:
            assert new is not ArithmeticError
        cls.assert_same(new, old)

    @pytest.mark.parametrize("rows", [slice(None), slice(0, 1), slice(0, 300, 7)])
    @pytest.mark.parametrize("u", NEAR_TOP)
    def test_check_draws_near_top_of_unit_interval(self, rows, u):
        self.check_draws_near_top(rows, u, 300)

    @pytest.mark.parametrize("rows", [slice(None), slice(-1, None), slice(_BLOCK - 3, None, 7)])
    @pytest.mark.parametrize("u", NEAR_TOP)
    def test_check_draws_near_top_across_blocks(self, rows, u):
        self.check_draws_near_top(rows, u, RAGGED)

    @pytest.mark.parametrize("seed", range(4))
    def test_jump_draws_at_threshold(self, seed):
        # u at the whole-array gamma*<n> and at its neighbours on a random
        # row subset: a subset gemv alone decides some of them wrongly
        rng = np.random.default_rng(seed)
        nt, dim, gamma_dt = 2000, 45, 0.01
        n_vec = np.arange(dim, dtype=float)
        sqrt_n = np.sqrt(np.arange(1, dim, dtype=float))
        decay = np.exp(-0.5 * gamma_dt * n_vec)
        for _ in range(25):
            new, _ = sector_pure_rows(rng, nt, dim)
            old = new.copy()
            thr = gamma_dt * (np.abs(new) ** 2 @ n_vec)
            u = np.ones(nt)
            rows = rng.choice(nt, int(rng.integers(1, 400)), replace=False)
            u[rows] = near(thr[rows], rng, len(rows))
            jumps_new = np.zeros(nt, dtype=int)
            jumps_old = np.zeros(nt, dtype=int)
            _vec_channel_step(new, u, gamma_dt, n_vec, sqrt_n, np.repeat(decay, 2), jumps_new)
            channel_step_oracle(old, u, gamma_dt, n_vec, sqrt_n, decay, jumps_old)
            assert np.array_equal(jumps_new, jumps_old)
            assert np.array_equal(new.view(float), old.view(float))

    @pytest.mark.parametrize("beta, parity_p, initial_check", [
        (1.0, 1.0, True), (1.0, 0.2, True), (0.9511, 0.6, True), (0.9511, 0.6, False),
    ])
    def test_rows_stay_sector_pure(self, beta, parity_p, initial_check):
        cfg = make_config(g=math.asin(beta), parity_p=parity_p, initial_check=initial_check,
                          n_trajectories=200)
        blocks = ensemble_uniforms_oracle(cfg, 0, cfg.n_excitation_steps, cfg.n_steps,
                                          int(cfg.check_schedule().sum()))
        states = np.tile(encode((0.6, 0.8), cfg.alpha), (cfg.n_trajectories, 1))
        first_check = int(np.argmax(check_steps(cfg)))
        impure = []

        def snapshot(i, parity, flips):
            if i >= first_check:
                pure = np.all(states[:, 0::2] == 0.0, axis=1) | np.all(states[:, 1::2] == 0.0, axis=1)
                impure.append(int(np.sum(~pure)))

        jumps = unravel_on_blocks(cfg, states, blocks, snapshot)
        assert jumps.sum() > 0 and len(impure) > 100
        assert not any(impure)

    @given(dim=st.integers(8, 60), gamma_dt=st.floats(1e-4, 0.05), nt=st.integers(1, 200),
           seed=st.integers(0, 2**32 - 1))
    def test_kernels_match_oracles(self, dim, gamma_dt, nt, seed):
        rng = np.random.default_rng(seed)
        new, sector = sector_pure_rows(rng, nt, dim, decay=rng.uniform(0.0, 0.2))
        start = new.copy()
        old = new.copy()
        n_vec = np.arange(dim, dtype=float)
        sqrt_n = np.sqrt(np.arange(1, dim, dtype=float))
        decay = np.exp(-0.5 * gamma_dt * n_vec)
        thr = gamma_dt * (np.abs(new) ** 2 @ n_vec)
        bound = gamma_dt * (dim - 1) * (1.0 + 1e-9)
        # draws at the row's threshold, at the candidate bound, or anywhere
        u = rng.choice(3, size=nt).choose([near(thr, rng, nt), near(bound, rng, nt),
                                           rng.random(nt) * min(1.0, 2.0 * bound)])
        jumps_new = np.zeros(nt, dtype=int)
        jumps_old = np.zeros(nt, dtype=int)
        _vec_channel_step(new, u, gamma_dt, n_vec, sqrt_n, np.repeat(decay, 2), jumps_new)
        channel_step_oracle(old, u, gamma_dt, n_vec, sqrt_n, decay, jumps_old)
        assert np.array_equal(jumps_new, jumps_old)
        assert np.array_equal(new.view(float), old.view(float))

        # the same step fused with a check on the rows' known sectors
        check_u = rng.choice(4, size=nt).choose([near(1.0 - 1e-9, rng, nt),
                                                 np.full(nt, 1.0 - 2.0**-53),
                                                 np.zeros(nt), rng.random(nt)])
        new, jumps_new = start, np.zeros(nt, dtype=int)
        outcome = outcome_or_error(_vec_channel_step, new, u, gamma_dt, n_vec, sqrt_n,
                                   np.repeat(decay, 2), jumps_new, (check_u, sector))
        sector = np.where(jumps_old % 2 == 0, sector, -sector)
        expected = outcome_or_error(parity_oracle, old, check_u)
        if expected is ArithmeticError:
            assert outcome is ArithmeticError
        else:
            assert np.array_equal(outcome, expected) and np.array_equal(outcome, sector)
            assert np.array_equal(jumps_new, jumps_old)
            assert np.array_equal(new.view(float), old.view(float))


class TestBlockedSweep:
    """The micro-step sweeps the rows in blocks of _BLOCK; no bit may depend
    on where the block edges fall."""

    @staticmethod
    def step_both(states, u, check_u=None, sector=None, gamma_dt=0.01):
        """The fused step (with a check on known sectors when check_u is
        given) and the oracle step and projection, on copies of states;
        returns each engine's (states, jumps, outcome) or ArithmeticError."""
        nt, dim = states.shape
        n_vec = np.arange(dim, dtype=float)
        sqrt_n = np.sqrt(np.arange(1, dim, dtype=float))
        decay = np.exp(-0.5 * gamma_dt * n_vec)
        check = None if check_u is None else (check_u, sector)

        def fused(new, jumps):
            return new, jumps, _vec_channel_step(new, u, gamma_dt, n_vec, sqrt_n,
                                                 np.repeat(decay, 2), jumps, check)

        def oracle(old, jumps):
            channel_step_oracle(old, u, gamma_dt, n_vec, sqrt_n, decay, jumps)
            return old, jumps, None if check_u is None else parity_oracle(old, check_u)

        return [outcome_or_error(engine, states.copy(), np.zeros(nt, dtype=int))
                for engine in (fused, oracle)]

    @pytest.mark.parametrize("block", [1, 7, 45])
    def test_block_size_invariance(self, monkeypatch, block):
        # no initial check: the first check takes the general projection,
        # the later ones the sweep's renormalization
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
        check_u = rng.random(RAGGED) * 0.9 if with_check else None
        (new, jumps_new, outcome), (old, jumps_old, expected) = self.step_both(
            states, u, check_u, sector)
        assert np.array_equal(np.flatnonzero(jumps_new), edges)
        assert np.array_equal(jumps_new, jumps_old)
        assert np.array_equal(new.view(float), old.view(float))
        if with_check:
            assert np.array_equal(outcome, expected)
            assert np.array_equal(outcome, np.where(jumps_new % 2 == 0, sector, -sector))
        else:
            assert outcome is None

    @pytest.mark.parametrize("row", [0, _BLOCK, RAGGED - 1])
    def test_fused_check_annihilation_raises(self, row):
        # a vacuum row in the even sector draws u = 1 >= p_even = 1: the
        # projection keeps its empty odd sector
        rng = np.random.default_rng(12)
        states, sector = sector_pure_rows(rng, RAGGED, 45)
        states[row] = 0.0
        states[row, 0] = 1.0
        sector[row] = 1
        check_u = rng.random(RAGGED) * 0.5
        check_u[row] = 1.0
        assert self.step_both(states, np.ones(RAGGED), check_u, sector) == [ArithmeticError] * 2


class TestBlockedRecovery:
    """run_ensemble scores each snapshot, and _vec_parity projects, in blocks
    of _BLOCK rows.  With _BLOCK a multiple of 8 every bit must be the
    whole-array oracles'."""

    @pytest.fixture(scope="class", params=[517, 1101, RAGGED])
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
        # row-local arithmetic: any block size gives the whole-array bits
        rng = np.random.default_rng(nt)
        states = TestMicroStepOracle.ensemble(rng, nt)
        u = rng.random(nt)
        ref = states.copy()
        expected = vec_parity_oracle(ref, u)
        monkeypatch.setattr("gspp.qec._BLOCK", block)
        assert np.array_equal(_vec_parity(states, u), expected)
        assert np.any(expected > 0) and np.any(expected < 0)
        assert states.tobytes() == ref.tobytes()

    def test_parity_annihilation_in_last_block_raises(self):
        rng = np.random.default_rng(13)
        states = TestMicroStepOracle.ensemble(rng, RAGGED)
        states[-1] = 0.0
        states[-1, 0] = 1.0  # vacuum: p_even = 1, and u = 1 measures odd
        u = rng.random(RAGGED) * 0.5
        u[-1] = 1.0
        with pytest.raises(ArithmeticError):
            vec_parity_oracle(states.copy(), u)
        with pytest.raises(ArithmeticError):
            _vec_parity(states, u)


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
