"""Federated runners, theorem step-size schedules, and exact reductions."""

import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fedvi import algorithms
from fedvi.algorithms import (ALGO_IDS, RunConfig, default_inner_steps,
                              derived_gamma, run_lda, run_lesgd,
                              run_lesgd_hetero, run_lippax, run_lsgd,
                              run_slippax, solve_inner_prox, step_size)
from fedvi.gaps import dispersion
from fedvi.operators import (affine_operator, eval_operator,
                             make_test_problem)
from fedvi.oracles import Draws, OracleSpec, draw_rows, sample_oracle
from fedvi.regularizers import (RegularizerSpec, ZERO_REG, MirrorState,
                                mirror_map, prox)
from fedvi.rng import PHASE_EXTRAPOLATE, PHASE_INNER, PHASE_UPDATE, RngStream
from gap_reference import exact_prox_point

SHAPE = {"M": 1, "K": 4, "R": 100, "sigma": 1.0, "D": 1.0}


class TestStepSize:
    def test_t1_example(self):
        plan = step_size("T1", {"L": 1.0}, SHAPE)
        b1 = 1 / math.sqrt(14 * 4)
        b2 = 1 / math.sqrt(6 * 4 * 100)
        b3 = 1 / (936 ** (1 / 3) * math.e ** (2 / 3) * 4 ** (2 / 3)
                  * 100 ** (1 / 3))
        assert plan.eta == min(b1, b2, b3)
        assert plan.active_branch == [b1, b2, b3].index(min(b1, b2, b3))
        assert plan.delta == 0.0

    def test_t1_sigma_zero_keeps_only_smoothness_branch(self):
        shape = dict(SHAPE, sigma=0.0)
        plan = step_size("T1", {"L": 2.0}, shape)
        assert plan.eta == 1 / (math.sqrt(14 * 4) * 2.0)
        assert plan.active_branch == 0
        assert plan.branches[1] == math.inf and plan.branches[2] == math.inf

    def test_t2_affine_branches(self):
        shape = {"M": 2, "K": 8, "R": 50, "sigma": 0.7, "D": 1.3}
        plan = step_size("T2", {"L": 1.5}, shape)
        expect = min(
            1 / 1.5,
            1.3 * math.sqrt(2) / (0.7 * math.sqrt(6 * 8 * 50)),
            1.3 ** (2 / 3) / (180 ** (1 / 3) * 8 ** (2 / 3) * 50 ** (1 / 3)
                              * 0.7 ** (2 / 3) * 1.5 ** (1 / 3)))
        assert plan.eta == pytest.approx(expect, rel=1e-14)

    def test_t3_branches(self):
        shape = {"M": 3, "K": 5, "R": 40, "sigma": 0.4, "D": 2.0}
        plan = step_size("T3", {"L": 1.2, "G": 4.0}, shape)
        e = math.e
        expect = min(
            1 / 1.2,
            2.0 * math.sqrt(3) / (0.4 * math.sqrt(5 * 40)),
            2.0 ** 0.4 / ((60 * e) ** 0.2 * 5 ** 0.6 * 40 ** 0.2
                          * 0.4 ** 0.4 * 1.2 ** 0.4),
            2.0 ** (2 / 3) / ((54 * e) ** (1 / 3) * 5 ** (2 / 3) * 40 ** (1 / 3)
                              * 1.2 ** (1 / 3) * 0.4 ** (2 / 3)),
            2.0 / (0.4 * math.sqrt(15 * 5 * 40)))
        assert plan.eta == pytest.approx(expect, rel=1e-14)

    def test_t5_delta_rules(self):
        shape = {"M": 1, "K": 2, "R": 10, "sigma": 1.0, "D": 1.0}
        plan = step_size("T5", {"L": 1.0, "G": 3.0, "d": 16}, shape)
        assert plan.delta == pytest.approx(plan.eta / 4.0, rel=1e-14)
        plan_alt = step_size("T5", {"L": 1.0, "G": 3.0, "d": 16}, shape,
                             delta_rule="fourth-root-d")
        assert plan_alt.delta == pytest.approx(plan_alt.eta / 2.0, rel=1e-14)

    def test_t7_branches(self):
        shape = {"M": 4, "K": 8, "R": 125, "sigma": 0.5, "D": 2.0}
        plan = step_size("T7", {"L": 1.0, "G": 10.0}, shape)
        expect = min(
            2.0 * 2 / (0.5 * math.sqrt(6 * 8 * 125)),
            2.0 ** (2 / 3) / (17 ** (1 / 3) * 8 ** (1 / 3) * 125 ** (1 / 3)
                              * 10.0 ** (2 / 3)),
            1 / math.sqrt(10))
        assert plan.eta == pytest.approx(expect, rel=1e-14)

    def test_t8_xi_zero_drops_heterogeneity_branches(self):
        shape = {"M": 2, "K": 4, "R": 25, "sigma": 0.0, "D": 1.0}
        plan = step_size("T8", {"L": 1.0, "xi": 0.0}, shape)
        assert plan.eta == 1 / (math.sqrt(4) * 1.0)
        assert all(b == math.inf for b in plan.branches[1:])

    def test_t8_branches(self):
        shape = {"M": 2, "K": 4, "R": 25, "sigma": 0.3, "D": 1.5}
        xi, L = 0.2, 1.1
        plan = step_size("T8", {"L": L, "xi": xi}, shape)
        expect = min(
            1 / (2 * L),
            1.5 * math.sqrt(2) / (0.3 * 10),
            1.5 ** (2 / 3) / (4 ** (2 / 3) * 25 ** (1 / 3) * 0.3 ** (2 / 3)
                              * L ** (1 / 3)),
            1.5 ** (2 / 3) / (xi ** (2 / 3) * 4 * 25 ** (1 / 3) * L ** (1 / 3)),
            1.5 / ((xi * 0.3) ** 0.5 * 4 ** 0.75 * 5),
            1.5 / (xi * 4 * 5))
        assert plan.eta == pytest.approx(expect, rel=1e-14)

    def test_missing_constants_named(self):
        with pytest.raises(ValueError, match="G"):
            step_size("T3", {"L": 1.0, "G": math.inf}, SHAPE)
        with pytest.raises(ValueError, match="beta"):
            step_size("T6", {"L": 1.0, "beta": math.inf}, SHAPE)
        with pytest.raises(ValueError, match="Lambda"):
            step_size("T4", {"L": 1.0, "G": 1.0}, SHAPE)
        with pytest.raises(ValueError, match="xi"):
            step_size("T8", {"L": 1.0}, SHAPE)
        with pytest.raises(ValueError, match="d"):
            step_size("T5", {"L": 1.0, "G": 1.0}, SHAPE)

    def test_tie_break_reports_lowest_branch(self):
        shape = {"M": 1, "K": 1, "R": 1, "sigma": 64.0, "D": 16.0}
        plan = step_size("T6", {"L": 1.0, "beta": 4.0}, shape)
        assert plan.branches[0] == plan.branches[1] == 0.25
        assert plan.active_branch == 0


def scalar_op() -> OracleSpec:
    return OracleSpec(base=affine_operator(np.array([[1.0]]), np.array([0.0])))


class TestRunLesgd:
    def test_scalar_hand_simulation(self):
        """V(z)=z, eta=0.5, z0=1: x1 = 0.5, z1 = 0.75, x2 = 0.375."""
        cfg = RunConfig(M=1, K=1, R=2, eta=0.5, z0=np.array([1.0]),
                        log_every=1)
        traj = run_lesgd(scalar_op(), cfg)
        assert traj.records[0].mean_iterate[0] == 0.5
        assert traj.records[1].mean_iterate[0] == 0.375  # = 0.75 * (1 - 0.5)
        assert traj.records[-1].output_avg[0] == pytest.approx(
            (0.5 + 0.375) / 2)

    def test_identical_clients_have_zero_drift(self):
        op = make_test_problem("affine", 3, seed=0)
        cfg = RunConfig(M=5, K=2, R=3, eta=0.1, log_steps=True)
        traj = run_lesgd(OracleSpec(base=op), cfg)
        assert all(r.drift_z == 0.0 for r in traj.records)

    def test_single_client_local_horizon_equivalence(self):
        """With M=1 the sync schedule is immaterial: K=T matches K=1."""
        op = make_test_problem("affine", 3, seed=1)
        oracle = OracleSpec(base=op, sigma=0.5)
        a = run_lesgd(oracle, RunConfig(M=1, K=6, R=1, eta=0.1, master_seed=3))
        b = run_lesgd(oracle, RunConfig(M=1, K=1, R=6, eta=0.1, master_seed=3))
        assert np.array_equal(a.records[-1].output_avg,
                              b.records[-1].output_avg)

    def test_synchronization_is_exact(self):
        """The step after a sync gets identical client rows, while the
        drift recorded at the sync step is the spread before the average."""
        oracle = OracleSpec(base=make_test_problem("affine", 4, seed=2),
                            sigma=1.0)
        cfg = RunConfig(M=3, K=3, R=4, eta=0.05, master_seed=9,
                        log_steps=True)
        given, returned = [], []

        def step(t, z, sync, draws):
            given.append(z.copy())
            z_next = z + draws[0].noise
            returned.append(z_next.copy())
            return z_next, z_next
        traj = algorithms._round_loop(cfg, oracle, step, "stub",
                                      ((0, PHASE_EXTRAPOLATE, 0.0),))
        assert [r.t for r in traj.records] == list(range(1, cfg.T + 1))
        for rec in traj.records:
            assert rec.drift_z == dispersion(returned[rec.t - 1]) > 0.0
        for t in range(1, cfg.T):
            rows_agree = bool((given[t] == given[t][0]).all())
            assert rows_agree == (t % cfg.K == 0)

    def test_deterministic_replay(self):
        op = make_test_problem("affine", 3, seed=4)
        oracle = OracleSpec(base=op, sigma=1.0)
        cfg = RunConfig(M=3, K=2, R=5, eta=0.1, master_seed=11, log_every=1)
        a, b = run_lesgd(oracle, cfg), run_lesgd(oracle, cfg)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.mean_iterate, rb.mean_iterate)
            assert np.array_equal(ra.output_avg, rb.output_avg)

    def test_output_recomputable_from_full_log(self):
        op = make_test_problem("affine", 3, seed=4)
        cfg = RunConfig(M=2, K=2, R=4, eta=0.1, log_steps=True)
        traj = run_lesgd(OracleSpec(base=op), cfg)
        recomputed = np.mean([r.mean_iterate for r in traj.records], axis=0)
        np.testing.assert_allclose(traj.records[-1].output_avg, recomputed,
                                   atol=1e-12)

    def test_finite_run_is_ok(self):
        op = make_test_problem("affine", 3, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run_lesgd(OracleSpec(base=op, sigma=1.0),
                             RunConfig(M=2, K=2, R=4, eta=0.1, log_every=1))
        assert traj.status == "ok" and traj.diverged_at is None

    def test_overflow_marks_the_first_non_finite_record(self):
        """V(z) = z with eta = 1e6 grows ~1e12 per step.

        From step 13 on the entries pass 1e154, so the Euclidean norm of
        the state overflows although every entry stays finite until step
        26; the first record with a non-finite norm marks the run.
        """
        cfg = RunConfig(M=2, K=1, R=40, eta=1e6, z0=np.array([1.0]),
                        log_every=1)
        with np.errstate(all="ignore"), \
                pytest.warns(RuntimeWarning) as caught:
            traj = run_lesgd(scalar_op(), cfg)
        finite = [bool(np.isfinite(r.output_avg).all()) for r in traj.records]
        assert traj.status == "diverged" and traj.diverged_at == 13
        assert finite == [True] * 26 + [False] * 14
        assert [str(w.message) for w in caught] == [
            "lesgd run (master_seed 0, M=2, K=1, R=40) diverged: iterate "
            "norm not finite at step 13"]

    def test_growth_past_the_limit_marks_the_run(self):
        """V(z) = z with eta = 3 multiplies the state by 7 per step.

        From z0 = 1 with reach 1 the limit is 1e6: 7^8 - 1 > 1e6 > 7^7 - 1,
        so step 8 is the first record past it, long before any overflow.
        Without a reach the same run stays ok.
        """
        cfg = RunConfig(M=1, K=1, R=40, eta=3.0, z0=np.array([1.0]),
                        log_every=1, reach=1.0)
        with pytest.warns(RuntimeWarning) as caught:
            traj = run_lesgd(scalar_op(), cfg)
        assert traj.diverged_at == 8
        assert [str(w.message) for w in caught] == [
            "lesgd run (master_seed 0, M=1, K=1, R=40) diverged: iterate "
            "norm beyond 1e+06 from z0 at step 8"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_lesgd(scalar_op(), replace(cfg, reach=math.inf)
                             ).status == "ok"

    def test_growth_limit_adds_the_noise_walk(self):
        cfg = RunConfig(M=1, K=4, R=25, eta=0.5, reach=2.0)
        assert cfg.growth_limit(3.0) == 1e6 * (2.0 + 0.5 * 3.0 * 10.0)
        assert RunConfig().growth_limit(1.0) == sys.float_info.max


class TestInnerProx:
    def test_zero_operator_fixed_point(self):
        zero = affine_operator(np.zeros((2, 2)), np.zeros(2))
        z = np.array([1.0, -2.0])
        out = solve_inner_prox(OracleSpec(base=zero), z, eta=0.5, gamma=0.1,
                               H=1)
        np.testing.assert_array_equal(out, z)

    def test_converges_to_exact_proximal_point(self):
        op = make_test_problem("affine", 5, {"L": 1.0, "mu": 0.3}, seed=3)
        eta = 1.0 / op.L
        gamma = derived_gamma(eta, op.L)
        z = np.random.default_rng(1).standard_normal(5)
        x_star = exact_prox_point(op, z, eta)
        out = solve_inner_prox(OracleSpec(base=op), z, eta, gamma, H=60)
        assert np.linalg.norm(out - x_star) <= 1e-8

    def test_per_step_contraction_factor(self):
        op = make_test_problem("quadratic-gradient", 6,
                               {"eig_range": [0.3, 1.0]}, seed=2)
        eta = 1.0 / op.L
        gamma = derived_gamma(eta, op.L)
        z = np.random.default_rng(2).standard_normal(6) * 2
        x_star = exact_prox_point(op, z, eta)
        bound = 1 - 1 / (eta * op.L + 1) ** 2
        x = z.copy()
        prev = np.linalg.norm(x - x_star)
        for _ in range(25):
            x = x - gamma * (eval_operator(op, x) + (x - z) / eta)
            cur = np.linalg.norm(x - x_star)
            assert cur ** 2 <= bound * prev ** 2 + 1e-9
            prev = cur

    def test_anchor_distance_bound_for_bounded_operator(self):
        """The exact proximal point stays within eta G of its anchor."""
        op = make_test_problem("bounded-nonlinear", 4, {"L": 1.0}, seed=5)
        eta = 0.9 / op.L
        rng = np.random.default_rng(3)
        for _ in range(25):
            z = rng.standard_normal(4) * 5
            x = z.copy()
            for _ in range(300):  # fixed-point iteration, contraction eta L < 1
                x = z - eta * eval_operator(op, x)
            assert np.linalg.norm(x + eta * eval_operator(op, x) - z) < 1e-10
            assert np.linalg.norm(x - z) <= eta * op.G + 1e-12

    @pytest.mark.parametrize("sigma,delta", [(0.0, 0.0), (0.6, 0.0),
                                             (0.6, 0.2)],
                             ids=["deterministic", "noisy", "smoothed"])
    @pytest.mark.parametrize("kind", ["affine", "bounded-nonlinear"])
    def test_stack_equals_per_client_calls_bitwise(self, kind, sigma, delta):
        oracle = OracleSpec(base=make_test_problem(kind, 9, seed=4),
                            sigma=sigma)
        stream = RngStream(8)
        rows = [draw_rows(oracle, [stream.at(m, 3, ell, PHASE_INNER)
                                   for m in range(6)], np.full(6, delta))
                for ell in range(1, 5)]
        Z = np.random.default_rng(5).standard_normal((6, 9))
        stacked = solve_inner_prox(oracle, Z, 0.4, 0.3, 4, draws=rows)
        single = np.stack([
            solve_inner_prox(oracle, Z[m], 0.4, 0.3, 4, draws=[
                Draws(*(None if r is None else r[m:m + 1] for r in q))
                for q in rows]) for m in range(6)])
        assert np.array_equal(stacked, single)

    def test_default_inner_steps_grows_logarithmically(self):
        assert default_inner_steps(1, 1) >= 3
        assert default_inner_steps(16, 800) == math.ceil(
            math.log(16 * 800, 4)) + 2


class TestLippaxFamily:
    def test_zero_operator_keeps_state(self):
        zero = affine_operator(np.zeros((2, 2)), np.zeros(2))
        cfg = RunConfig(M=2, K=1, R=3, eta=0.5, H=1, gamma=0.2,
                        z0=np.array([1.0, 2.0]), log_every=1)
        traj = run_lippax(OracleSpec(base=zero), cfg)
        for rec in traj.records:
            np.testing.assert_array_equal(rec.mean_iterate, [1.0, 2.0])

    def test_large_h_matches_exact_proximal_point_step(self):
        op = make_test_problem("affine", 4, seed=6)
        eta = 1.0 / op.L
        z0 = np.array([1.0, -1.0, 0.5, 2.0])
        cfg = RunConfig(M=1, K=1, R=1, eta=eta, H=60, z0=z0, log_every=1)
        traj = run_lippax(OracleSpec(base=op), cfg)
        x_star = exact_prox_point(op, z0, eta)
        np.testing.assert_allclose(traj.records[0].mean_iterate, x_star,
                                   atol=1e-8)

    def test_slippax_delta_zero_is_lippax_bitwise(self):
        op = make_test_problem("affine", 3, seed=7)
        oracle = OracleSpec(base=op, sigma=0.8)
        cfg = RunConfig(M=3, K=2, R=4, eta=0.2, H=4, master_seed=21,
                        log_every=1)
        a, b = run_lippax(oracle, cfg), run_slippax(oracle, cfg)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.mean_iterate, rb.mean_iterate)
        assert np.array_equal(a.records[-1].output_avg,
                              b.records[-1].output_avg)

    def test_slippax_delta_positive_differs(self):
        op = make_test_problem("affine", 3, seed=7)
        oracle = OracleSpec(base=op, sigma=0.8)
        base = RunConfig(M=2, K=2, R=2, eta=0.2, H=3, master_seed=21)
        smoothed = RunConfig(M=2, K=2, R=2, eta=0.2, H=3, delta=0.1,
                             master_seed=21)
        a, b = run_lippax(oracle, base), run_slippax(oracle, smoothed)
        assert not np.array_equal(a.records[-1].output_avg,
                                  b.records[-1].output_avg)

    def test_affine_smoothing_is_unbiased_across_seeds(self):
        """Smoothed and plain inner loops agree in expectation on affine
        problems; paired over 200 master seeds."""
        op = make_test_problem("affine", 2, seed=8)
        oracle = OracleSpec(base=op, sigma=0.3)
        diffs = []
        for seed in range(2000, 2200):
            cfg = dict(M=1, K=1, R=2, eta=0.2, H=2, master_seed=seed,
                       z0=np.array([1.0, -1.0]))
            a = run_lippax(oracle, RunConfig(**cfg))
            b = run_slippax(oracle, RunConfig(**cfg, delta=0.2))
            diffs.append(b.records[-1].output_avg - a.records[-1].output_avg)
        diffs = np.array(diffs)
        se = diffs.std(axis=0, ddof=1) / math.sqrt(len(diffs))
        assert np.all(np.abs(diffs.mean(axis=0)) <= 3 * se)


class TestRunLsgd:
    def test_one_step_convergence_at_eta_equals_inverse_beta(self):
        op = affine_operator(np.eye(2), np.zeros(2))  # beta = 1
        cfg = RunConfig(M=1, K=1, R=1, eta=1.0, z0=np.array([3.0, -2.0]),
                        log_every=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run_lsgd(OracleSpec(base=op), cfg)
        np.testing.assert_array_equal(traj.records[0].mean_iterate, [0.0, 0.0])

    def test_distance_monotone_for_small_eta(self):
        op = make_test_problem("quadratic-gradient", 4,
                               {"eig_range": [0.2, 1.0]}, seed=10)
        cfg = RunConfig(M=1, K=1, R=30, eta=1.0 / op.beta,
                        z0=np.ones(4) * 2, log_every=1)
        traj = run_lsgd(OracleSpec(base=op), cfg)
        dists = [np.linalg.norm(r.mean_iterate - op.solution)
                 for r in traj.records]
        assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))

    def test_skew_divergence_factor_is_exact(self):
        """Plain descent on a rotation grows by sqrt(1 + eta^2) per step."""
        op = make_test_problem("skew", 2)
        cfg = RunConfig(M=1, K=1, R=100, eta=0.5, z0=np.array([1.0, 0.0]),
                        log_every=1)
        with pytest.warns(RuntimeWarning, match="co-coercivity"):
            # skew is not co-coercive
            traj = run_lsgd(OracleSpec(base=op), cfg)
        factor = math.sqrt(1 + 0.5 ** 2)
        norms = [1.0] + [float(np.linalg.norm(r.mean_iterate))
                         for r in traj.records]
        for a, b in zip(norms, norms[1:]):
            assert abs(b / a - factor) < 1e-12 * factor

    def test_warning_on_non_cocoercive_operator(self):
        op = make_test_problem("skew", 2)
        with pytest.warns(RuntimeWarning, match="co-coercivity"):
            run_lsgd(OracleSpec(base=op), RunConfig(M=1, K=1, R=1, eta=0.1))


class TestRunLda:
    def test_zero_regularizer_equals_lesgd_bitwise(self):
        op = make_test_problem("affine", 4, seed=11)
        oracle = OracleSpec(base=op, sigma=0.7)
        cfg = RunConfig(M=3, K=2, R=5, eta=0.1, master_seed=13, log_every=1)
        a = run_lda(oracle, ZERO_REG, cfg)
        b = run_lesgd(oracle, cfg)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.mean_iterate, rb.mean_iterate)
            assert np.array_equal(ra.output_avg, rb.output_avg)
        assert np.array_equal(a.records[-1].output_avg,
                              b.records[-1].output_avg)

    def test_scalar_hand_simulation_with_l1(self):
        """Two rounds of the dual-space recursion with prox weight t*eta."""
        reg = RegularizerSpec(kind="l1", lam=1.0)
        eta, z0 = 0.4, 2.0
        cfg = RunConfig(M=1, K=1, R=2, eta=eta, z0=np.array([z0]),
                        log_every=1)
        traj = run_lda(scalar_op(), reg, cfg)
        # independent scalar recursion: V(z) = z, mirror = soft-threshold
        z = z0
        expected_v = []
        for t in (1, 2):
            u = prox(reg, np.array([z]), (t - 1) * eta)[0]
            x = z - eta * u
            v = prox(reg, np.array([x]), t * eta)[0]
            z = z - eta * v
            expected_v.append(v)
        got = [r.mean_iterate[0] for r in traj.records]
        np.testing.assert_allclose(got, expected_v, atol=1e-15)
        assert traj.records[-1].output_avg[0] == pytest.approx(
            np.mean(expected_v))


class TestRunLesgdHetero:
    def test_identical_clients_equal_lesgd_bitwise(self):
        op = make_test_problem("affine", 3, seed=12)
        oracle = OracleSpec(base=op, sigma=0.5)
        cfg = RunConfig(M=4, K=2, R=3, eta=0.1, master_seed=17, log_every=1)
        a = run_lesgd_hetero(oracle, np.zeros((4, 3)), cfg)
        b = run_lesgd(oracle, cfg)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.mean_iterate, rb.mean_iterate)
        assert np.array_equal(a.records[-1].output_avg,
                              b.records[-1].output_avg)

    def test_scalar_hand_simulation(self):
        """Four scalar updates and one averaging, against a reference loop."""
        op = affine_operator(np.array([[1.0]]), np.zeros(1))
        offsets = [0.5, -0.5]
        eta, z0 = 0.25, 1.0
        cfg = RunConfig(M=2, K=2, R=1, eta=eta, z0=np.array([z0]),
                        log_steps=True)
        traj = run_lesgd_hetero(OracleSpec(base=op), np.array([offsets]).T,
                                cfg)

        z = [z0, z0]
        xbars = []
        for t in (1, 2):
            x = [z[m] - eta * (z[m] + offsets[m]) for m in range(2)]
            if t % 2 == 0:
                x = [sum(x) / 2] * 2
            z = [z[m] - eta * (x[m] + offsets[m]) for m in range(2)]
            if t % 2 == 0:
                z = [sum(z) / 2] * 2
            xbars.append(sum(x) / 2)
        got = [r.mean_iterate[0] for r in traj.records]
        np.testing.assert_allclose(got, xbars, atol=1e-15)
        np.testing.assert_allclose(traj.records[-1].output_avg[0], np.mean(xbars),
                                   atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        a = OracleSpec(base=make_test_problem("affine", 2, seed=0))
        with pytest.raises(ValueError, match="offsets have shape"):
            run_lesgd_hetero(a, np.zeros((2, 3)),
                             RunConfig(M=2, K=1, R=1, eta=0.1))

    def test_wrong_client_count_rejected(self):
        a = OracleSpec(base=make_test_problem("affine", 2, seed=0))
        for shape in [(1, 2), (3, 2), (2,), (2, 2, 1)]:
            with pytest.raises(ValueError, match="offsets have shape"):
                run_lesgd_hetero(a, np.zeros(shape),
                                 RunConfig(M=2, K=1, R=1, eta=0.1))


class TestRunConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(M=0), dict(K=0), dict(R=0), dict(eta=0.0), dict(eta=-1.0),
        dict(gamma=0.0), dict(H=0), dict(delta=-0.1), dict(log_every=0),
        dict(reach=0.0), dict(reach=float("nan")),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**{**dict(M=1, K=1, R=1, eta=0.1), **kwargs})

    def test_total_steps(self):
        assert RunConfig(M=1, K=7, R=9, eta=0.1).T == 63

    def test_record_cadence(self):
        """log_every rounds, R // 20 rounds (at least 1) when unset, or
        every step with log_steps."""
        base = dict(M=1, K=3, R=45, eta=0.1)
        assert RunConfig(**base, log_every=4).record_cadence() == 12
        assert RunConfig(**base).record_cadence() == 6
        assert RunConfig(**dict(base, R=10)).record_cadence() == 3
        assert RunConfig(**base, log_steps=True).record_cadence() == 1

    def test_bad_z0_shape_rejected(self):
        cfg = RunConfig(M=1, K=1, R=1, eta=0.1, z0=np.zeros(3))
        with pytest.raises(ValueError, match="z0"):
            run_lesgd(scalar_op(), cfg)


class TestClientDriftBound:
    def test_monte_carlo_drift_under_lemma_bound(self):
        """Light version of the drift check: 40 replications, M=2."""
        op = make_test_problem("affine", 6, {"L": 1.0, "mu": 0.0}, seed=14)
        K, sigma = 8, 1.0
        eta = 1 / (math.sqrt(14 * K) * op.L)
        bound = 37 * math.e * eta ** 2 * sigma ** 2 * K
        oracle = OracleSpec(base=op, sigma=sigma)
        per_t = []
        for rep in range(40):
            cfg = RunConfig(M=2, K=K, R=1, eta=eta, master_seed=1000 + rep,
                            log_steps=True)
            traj = run_lesgd(oracle, cfg)
            per_t.append([4.0 * r.drift_z for r in traj.records])  # M=2
        mean_drift = np.mean(per_t, axis=0)
        assert np.all(mean_drift <= bound)


def reference_run(algo, oracle, cfg, reg=ZERO_REG, offsets=None):
    """Every step's (mean, output, drift_z), drawn query by query.

    Each query keys and draws its own rows in its own draw_rows call,
    the way the runners drew before a round's randomness was drawn
    ahead; the runners must match it bit for bit.
    """
    stream = RngStream(cfg.master_seed)
    eta = cfg.eta
    H = cfg.H or default_inner_steps(cfg.K, cfg.R)
    gamma = cfg.gamma or derived_gamma(eta, oracle.base.L)
    delta = cfg.delta if algo == "slippax" else 0.0

    def query(points, t, phase, inner=0, radius=0.0):
        rows = None
        if oracle.is_stochastic(radius):
            keys = [stream.at(m, t, inner, phase) for m in range(len(points))]
            rows = draw_rows(oracle, keys, np.full(len(points), radius))
        q = sample_oracle(oracle, points, draws=rows)
        return q if offsets is None else q + offsets

    z = np.tile(cfg.initial_point(oracle.dim), (cfg.M, 1))
    output = np.zeros(oracle.dim)
    out = []
    for t in range(1, cfg.T + 1):
        sync = t % cfg.K == 0
        if algo == "lsgd":
            z = z - eta * query(z, t, PHASE_EXTRAPOLATE)
            p = z
        elif algo in ("lippax", "slippax"):
            x = z.copy()
            for ell in range(1, H + 1):
                q = query(x, t, PHASE_INNER, ell, delta)
                x = x - gamma * (q + (x - z) / eta)
            z = z - eta * query(x, t, PHASE_UPDATE)
            p = x
        else:
            u = mirror_map(MirrorState(t - 1, eta), reg, z)
            x = z - eta * query(u, t, PHASE_EXTRAPOLATE)
            if sync:
                x[:] = x.mean(axis=0)
            p = mirror_map(MirrorState(t, eta), reg, x)
            z = z - eta * query(p, t, PHASE_UPDATE)
        drift = dispersion(z)
        if sync:
            z[:] = z.mean(axis=0)
        output += (p.mean(axis=0) - output) / t
        out.append((p.mean(axis=0), output.copy(), drift))
    return out


def _run(algo, oracle, cfg):
    """The runner for ``algo`` plus the regularizer/offsets it was given."""
    M, d = cfg.M, oracle.dim
    if algo == "lda":
        reg = RegularizerSpec(kind="l1", lam=0.3)
        return run_lda(oracle, reg, cfg), dict(reg=reg)
    if algo == "lesgd-hetero":
        offsets = np.random.default_rng(M).standard_normal((M, d))
        offsets -= offsets.mean(axis=0)
        return run_lesgd_hetero(oracle, offsets, cfg), dict(offsets=offsets)
    runner = {"lesgd": run_lesgd, "lippax": run_lippax,
              "slippax": run_slippax, "lsgd": run_lsgd}[algo]
    return runner(oracle, cfg), {}


def _assert_same_bits(traj, ref):
    assert len(traj.records) == len(ref)
    for rec, (mean, output, drift_z) in zip(traj.records, ref):
        assert np.array_equal(rec.mean_iterate, mean)
        assert np.array_equal(rec.output_avg, output)
        assert rec.drift_z == drift_z
    assert np.array_equal(traj.records[-1].output_avg, ref[-1][1])


def _trajectory_bits(traj):
    return [(r.mean_iterate.tobytes(), r.output_avg.tobytes(), r.drift_z)
            for r in traj.records]


class TestRoundDraws:
    """A round's randomness drawn ahead gives the per-query draws' bits."""

    @staticmethod
    def _case(kind, model, sigma, M, K, delta=0.3):
        oracle = OracleSpec(base=make_test_problem(kind, 5, seed=9),
                            noise_model=model, sigma=sigma)
        cfg = RunConfig(M=M, K=K, R=3, eta=0.15, H=3, delta=delta,
                        master_seed=31, log_steps=True,
                        z0=np.linspace(-1.0, 1.0, 5))
        return oracle, cfg

    @pytest.mark.parametrize("K", [1, 4])
    @pytest.mark.parametrize("M", [1, 3, 16])
    @pytest.mark.parametrize("model", ["gaussian-isotropic", "bounded-uniform"])
    @pytest.mark.parametrize("algo", ALGO_IDS)
    def test_runs_equal_per_query_reference_bitwise(self, algo, model, M, K):
        oracle, cfg = self._case("bounded-nonlinear", model, 0.8, M, K)
        traj, extra = _run(algo, oracle, cfg)
        _assert_same_bits(traj, reference_run(algo, oracle, cfg, **extra))

    @pytest.mark.parametrize("K", [1, 4])
    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize("kind", ["affine", "bounded-nonlinear"])
    @pytest.mark.parametrize("algo", ALGO_IDS)
    def test_deterministic_runs_equal_per_query_reference_bitwise(
            self, algo, kind, M, K):
        """Without noise: the sync and output means, and LESGD's identity
        mirror map, against the reference's .mean(axis=0) and mirror_map."""
        oracle, cfg = self._case(kind, "none", 0.0, M, K)
        traj, extra = _run(algo, oracle, cfg)
        _assert_same_bits(traj, reference_run(algo, oracle, cfg, **extra))

    @pytest.mark.parametrize("M", [1, 3, 16])
    @pytest.mark.parametrize("kind", ["affine", "bounded-nonlinear"])
    def test_smoothing_without_noise_equals_reference_bitwise(self, kind, M):
        oracle, cfg = self._case(kind, "gaussian-isotropic", 0.0, M, 4)
        traj = run_slippax(oracle, cfg)
        _assert_same_bits(traj, reference_run("slippax", oracle, cfg))

    @pytest.mark.parametrize("budget", [1, 150])
    @pytest.mark.parametrize("algo", ALGO_IDS)
    def test_block_split_keeps_the_bits(self, algo, budget, monkeypatch):
        """One-step blocks, and blocks of 2, 2, 1 steps for K = 5."""
        oracle, cfg = self._case("affine", "gaussian-isotropic", 0.8, 3, 5)
        whole = _trajectory_bits(_run(algo, oracle, cfg)[0])
        monkeypatch.setattr(algorithms, "DRAW_BLOCK_CELLS", budget)
        assert _trajectory_bits(_run(algo, oracle, cfg)[0]) == whole

    def test_blocks_stay_inside_one_round(self, monkeypatch):
        oracle, cfg = self._case("affine", "gaussian-isotropic", 0.8, 3, 5)
        blocks = []
        draw_steps = algorithms._draw_steps

        def recording(oracle, stream, steps, *args):
            blocks.append(list(steps))
            return draw_steps(oracle, stream, steps, *args)
        monkeypatch.setattr(algorithms, "_draw_steps", recording)
        monkeypatch.setattr(algorithms, "DRAW_BLOCK_CELLS", 150)
        run_lesgd(oracle, cfg)  # 60 cells a step: blocks of 2 steps
        assert blocks == [[1, 2], [3, 4], [5], [6, 7], [8, 9], [10],
                          [11, 12], [13, 14], [15]]

    @pytest.mark.parametrize("algo,sigma,delta,queries_per_step", [
        ("lesgd", 0.8, 0.0, 2), ("lda", 0.8, 0.0, 2),
        ("lesgd-hetero", 0.8, 0.0, 2), ("lsgd", 0.8, 0.0, 1),
        ("lippax", 0.8, 0.0, 4), ("slippax", 0.8, 0.3, 4),
        ("slippax", 0.0, 0.3, 4), ("lesgd", 0.0, 0.0, 2),
        ("lippax", 0.0, 0.0, 4)])
    def test_one_key_per_stochastic_query_row(self, monkeypatch, algo, sigma,
                                              delta, queries_per_step):
        """RngStream.at runs once per row that draws, sample_oracle once per
        query on the (M, d) stack."""
        oracle, cfg = self._case("affine", "gaussian-isotropic", sigma, 3, 4,
                                 delta)
        counts = {"at": 0, "queries": 0, "rows": 0}
        at, sample = RngStream.at, algorithms.sample_oracle

        def counting_at(self, *path):
            counts["at"] += 1
            return at(self, *path)

        def counting_sample(oracle, z, *args, **kwargs):
            counts["queries"] += 1
            counts["rows"] += len(z)
            return sample(oracle, z, *args, **kwargs)
        monkeypatch.setattr(RngStream, "at", counting_at)
        monkeypatch.setattr(algorithms, "sample_oracle", counting_sample)
        _run(algo, oracle, cfg)
        steps = cfg.T
        drawing = queries_per_step if sigma > 0 else 3 if delta > 0 else 0
        assert counts["queries"] == queries_per_step * steps
        assert counts["rows"] == queries_per_step * steps * cfg.M
        assert counts["at"] == drawing * steps * cfg.M
