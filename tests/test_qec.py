import math

import numpy as np
import pytest

from conftest import fock_trajectory
from gspp.channel import AMPLITUDE_MATCHED, fidelity_vs_distance
from gspp.coupling import normalize_superposition, superposition_vector
from gspp.qec import (
    CatCode,
    CodeWord,
    QecRunConfig,
    TrajectoryRecord,
    apply_annihilation,
    average_fidelity,
    code_states,
    count_flips,
    kraus_completeness_residual,
    kraus_pair,
    no_jump,
    no_jump_norm,
    orthogonality_monitor,
    parity_check,
    recover,
    run_ensemble,
    run_trajectory,
    trajectory_rng,
)
from gspp.qstate import StateVector, annihilation, parity, pure_fidelity, truncation_dimension

ALPHA = 3.0
DIM = 64


@pytest.fixture(scope="module")
def code():
    return CatCode(alpha=ALPHA, dim=DIM)


class TestCodeStates:
    def test_normalized(self, code):
        for st in code_states(code):
            assert st.norm() == pytest.approx(1.0, abs=1e-12)

    def test_parity_eigenvalues(self, code):
        zero_p, zero_m, one_p, one_m = code_states(code)
        p = parity(DIM)
        for st, val in ((zero_p, 1.0), (one_p, 1.0), (zero_m, -1.0), (one_m, -1.0)):
            exp = np.real(np.vdot(st.amplitudes, p @ st.amplitudes))
            assert exp == pytest.approx(val, abs=1e-10)

    def test_code_words_nearly_orthogonal(self, code):
        zero_p, _, one_p, _ = code_states(code)
        assert abs(zero_p.inner(one_p)) < 1e-3

    def test_normalizations(self, code):
        assert code.n_plus == pytest.approx(2.0 * (1.0 + math.exp(-18.0)))
        assert code.n_minus == pytest.approx(2.0 * (1.0 - math.exp(-18.0)))


class TestJumpRelations:
    def test_annihilation_coefficients(self, code):
        coeff, word = apply_annihilation(code, CodeWord(0, +1))
        assert word == CodeWord(0, -1)
        assert coeff == pytest.approx(ALPHA * math.sqrt(code.n_minus / code.n_plus))
        coeff1, word1 = apply_annihilation(code, CodeWord(1, +1))
        assert word1 == CodeWord(1, -1)
        assert coeff1 == pytest.approx(1j * ALPHA * math.sqrt(code.n_minus / code.n_plus))

    def test_matrix_apply_matches_analytic(self, code):
        a = annihilation(DIM)
        for logical in (0, 1):
            for sign in (+1, -1):
                st = code.state(logical, sign)
                applied = a @ st.amplitudes
                coeff, word = apply_annihilation(code, CodeWord(logical, sign))
                target = coeff * code.state(word.logical, word.parity_sign).amplitudes
                assert np.linalg.norm(applied - target) < 1e-10

    def test_no_jump_closed_form(self, code):
        gamma_dt = 0.04
        decayed_alpha = ALPHA * math.exp(-gamma_dt / 2.0)
        code_dt = CatCode(alpha=decayed_alpha, dim=DIM)
        for logical in (0, 1):
            for sign in (+1, -1):
                st = code.state(logical, sign)
                out = no_jump(st, gamma_dt)
                target = code_dt.state(logical, sign)
                assert np.linalg.norm(out.amplitudes - target.amplitudes) < 1e-10

    def test_no_jump_norm_analytic(self, code):
        gamma_dt = 0.05
        decayed_alpha = ALPHA * math.exp(-gamma_dt / 2.0)
        code_dt = CatCode(alpha=decayed_alpha, dim=DIM)
        for sign, n_now, n_dt in ((+1, code.n_plus, code_dt.n_plus),
                                  (-1, code.n_minus, code_dt.n_minus)):
            st = code.state(0, sign)
            norm_sq = no_jump_norm(st, gamma_dt) ** 2
            expected = math.exp(ALPHA**2 * (math.exp(-gamma_dt) - 1.0)) * n_dt / n_now
            assert norm_sq == pytest.approx(expected, rel=1e-10)

    def test_no_jump_identity(self, code):
        st = code.state(0, +1)
        out = no_jump(st, 0.0)
        assert np.allclose(out.amplitudes, st.amplitudes)


class TestKraus:
    def test_zero_step(self):
        e0, e1 = kraus_pair(0.0, 16)
        assert np.allclose(e0, 0.0)
        assert np.allclose(e1, np.eye(16))

    def test_completeness_residual_bound(self):
        for gamma_dt in (1e-3, 5e-3, 0.01):
            resid = kraus_completeness_residual(gamma_dt, 64)
            assert resid <= gamma_dt**2 * 64**2 / 4.0

    def test_single_step_map_first_order(self, code):
        # E0,E1 map |0L+><0L+| to dP|0L-><0L-| + (1-dP)|0L+,dt><0L+,dt|
        gamma_dt = 1e-3
        e0, e1 = kraus_pair(gamma_dt, DIM)
        st = code.state(0, +1).amplitudes
        rho_out = (e0 @ np.outer(st, st.conj()) @ e0.conj().T
                   + e1 @ np.outer(st, st.conj()) @ e1.conj().T)
        n_bar = ALPHA**2 * code.n_minus / code.n_plus
        d_p = gamma_dt * n_bar
        zero_m = code.state(0, -1).amplitudes
        code_dt = CatCode(alpha=ALPHA * math.exp(-gamma_dt / 2.0), dim=DIM)
        zero_p_dt = code_dt.state(0, +1).amplitudes
        target = (d_p * np.outer(zero_m, zero_m.conj())
                  + (1.0 - d_p) * np.outer(zero_p_dt, zero_p_dt.conj()))
        diff = np.abs(rho_out - target).max()
        assert diff < 10.0 * gamma_dt**2


class TestParityCheck:
    def test_even_cat_deterministic(self, code):
        rng = np.random.default_rng(1)
        outcome, st = parity_check(code.state(0, +1), rng)
        assert outcome == 1
        assert pure_fidelity(st, code.state(0, +1)) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_even(self):
        rng = np.random.default_rng(2)
        vac = StateVector(np.eye(8, dtype=complex)[0])
        outcome, _ = parity_check(vac, rng)
        assert outcome == 1

    def test_statistics_match_weights(self, code):
        # even/odd superposition sampled 10^4 times: binomial within 3 sigma
        w_even = 0.7
        psi = StateVector(math.sqrt(w_even) * code.state(0, +1).amplitudes
                          + math.sqrt(1.0 - w_even) * code.state(0, -1).amplitudes)
        psi = psi.normalized()
        rng = np.random.default_rng(3)
        n = 10_000
        hits = sum(parity_check(psi, rng)[0] == 1 for _ in range(n))
        p_even = float(np.sum(np.abs(psi.amplitudes[0::2]) ** 2))
        sigma = math.sqrt(n * p_even * (1.0 - p_even))
        assert abs(hits - n * p_even) < 3.0 * sigma


def make_config(**kw):
    base = dict(alpha=ALPHA, g=math.pi / 2, k0_kappa2=1.0, x_total=0.2,
                parity_p=1.0, n_trajectories=64, seed=99)
    base.update(kw)
    return QecRunConfig(**base)


class TestTrajectories:
    def test_lossless_run(self):
        cfg = make_config(k0_kappa2=0.0, parity_p=1.0, x_total=1.0)
        rec = run_trajectory(cfg, (1.0, 0.0), trajectory_rng(cfg.seed, 0, 0))
        assert rec.jump_count == 0
        assert all(o == 1 for o in rec.parity_outcomes)

    def test_jump_statistics(self):
        # mean jump count ~ <n>(1 - e^{-2 k x}) over the ensemble
        cfg = make_config(parity_p=0.0, x_total=0.3, n_trajectories=400,
                          initial_check=False)
        _, jumps = run_ensemble(cfg, (1.0, 0.0), 0)
        code = CatCode(alpha=ALPHA, dim=truncation_dimension(ALPHA))
        n_bar = ALPHA**2 * code.n_minus / code.n_plus
        expected = n_bar * (1.0 - math.exp(-2.0 * 1.0 * 0.3))
        se = math.sqrt(expected / 400)  # Poisson-like spread
        assert abs(jumps.mean() - expected) < 4.0 * se

    def test_parity_flip_jump_alignment(self):
        # p = 1 with a fine step: every recorded flip matches one jump
        cfg = make_config(parity_p=1.0, x_total=0.05, dx=0.0001,
                          n_trajectories=1, seed=5)
        for idx in range(30):
            rec = run_trajectory(cfg, (1.0, 0.0), trajectory_rng(cfg.seed, 0, idx))
            assert count_flips(rec.parity_outcomes) == rec.jump_count

    def test_determinism(self):
        cfg = make_config(n_trajectories=1)
        rec1 = run_trajectory(cfg, (0.6, 0.8), trajectory_rng(cfg.seed, 0, 3))
        rec2 = run_trajectory(cfg, (0.6, 0.8), trajectory_rng(cfg.seed, 0, 3))
        assert rec1.parity_outcomes == rec2.parity_outcomes
        assert rec1.jump_count == rec2.jump_count
        assert np.array_equal(rec1.final_state.amplitudes, rec2.final_state.amplitudes)

    def test_single_matches_ensemble_row(self):
        cfg = make_config(n_trajectories=4, parity_p=0.6, x_total=0.15)
        fid, jumps = run_ensemble(cfg, (1.0, 0.0), 0)
        for idx in range(4):
            rec = run_trajectory(cfg, (1.0, 0.0), trajectory_rng(cfg.seed, 0, idx))
            assert rec.jump_count == jumps[idx]

    @pytest.mark.parametrize("beta, parity_p", [(1.0, 0.6), (0.9511, 1.0)])
    def test_matches_fock_oracle(self, beta, parity_p):
        # the one-row engine against the per-trajectory Fock loop, with and
        # without excitation-stage loss
        cfg = make_config(g=math.asin(beta), parity_p=parity_p, x_total=0.15)
        inp = (1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0))
        for idx in range(8):
            rec = run_trajectory(cfg, inp, trajectory_rng(cfg.seed, 0, idx))
            jumps, outcomes, amps = fock_trajectory(cfg, inp, trajectory_rng(cfg.seed, 0, idx))
            assert rec.jump_count == jumps
            assert rec.parity_outcomes == outcomes
            assert np.abs(rec.final_state.amplitudes - amps).max() < 1e-10

    def test_too_coarse_step_rejected(self):
        with pytest.raises(ValueError):
            make_config(dx=1.0, k0_kappa2=1.0)


class TestRecovery:
    def test_no_jump_identity(self, code):
        rec = TrajectoryRecord(jump_count=0, parity_outcomes=(1,),
                               final_state=code.state(0, +1), seed=0)
        out, warn = recover(rec, code)
        assert not warn
        # exact up to the e^{-alpha^2} non-orthogonality of the dyad sum
        assert pure_fidelity(out, code.state(0, +1)) == pytest.approx(1.0, abs=1e-6)

    def test_one_jump_restores_plus(self, code):
        # |+> = (|0L> + |1L>)/sqrt(2), one jump, then recovery
        a = annihilation(DIM)
        amps = [ALPHA, -ALPHA, 1j * ALPHA, -1j * ALPHA]
        plus = superposition_vector(np.array([1, 1, 1, 1]) / math.sqrt(2.0), amps, DIM)
        jumped = StateVector(a @ plus.amplitudes).normalized()
        rec = TrajectoryRecord(jump_count=1, parity_outcomes=(1, -1),
                               final_state=jumped, seed=0)
        out, warn = recover(rec, code)
        assert not warn
        assert pure_fidelity(out, plus) > 0.99

    def test_two_jumps_phase_correction(self, code):
        # two detected jumps: parity back to even, logical-one phase i^2
        a = annihilation(DIM)
        amps = [ALPHA, -ALPHA, 1j * ALPHA, -1j * ALPHA]
        plus = superposition_vector(np.array([1, 1, 1, 1]) / math.sqrt(2.0), amps, DIM)
        double = StateVector(a @ (a @ plus.amplitudes)).normalized()
        rec = TrajectoryRecord(jump_count=2, parity_outcomes=(1, -1, 1),
                               final_state=double, seed=0)
        out, _ = recover(rec, code)
        assert pure_fidelity(out, plus) > 0.99
        # without the phase correction the state is orthogonal-ish to |+>
        rec_blind = TrajectoryRecord(jump_count=2, parity_outcomes=(1,),
                                     final_state=double, seed=0)
        out_blind, _ = recover(rec_blind, code)
        assert pure_fidelity(out_blind, plus) < 0.6

    def test_inconsistent_record_flagged(self, code):
        # state in the even space but record claims odd
        rec = TrajectoryRecord(jump_count=0, parity_outcomes=(-1,),
                               final_state=code.state(0, +1), seed=0)
        out, warn = recover(rec, code)
        assert warn
        assert pure_fidelity(out, code.state(0, +1)) < 0.01


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

    def test_f0_partial_coupling_below_one(self):
        curve = average_fidelity(make_config(g=0.8 * math.pi / 2, n_trajectories=8,
                                             n_checkpoints=2))
        assert curve.f0 < 0.9

    def test_workers_equivalence(self):
        cfg = make_config(n_trajectories=32, n_checkpoints=3, parity_p=0.6)
        serial = average_fidelity(cfg, workers=1)
        threaded = average_fidelity(cfg, workers=4)
        assert np.array_equal(serial.f_bar, threaded.f_bar)
        assert serial.f0 == threaded.f0


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
