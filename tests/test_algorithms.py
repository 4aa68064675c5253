"""Federated runners, theorem step-size schedules, and exact reductions."""

import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fedvi import algorithms
from fedvi.algorithms import (ALGO_IDS, DivergenceWarning, RunConfig,
                              RunStack, constants_of, default_inner_steps,
                              derived_gamma, dispersion, run_lda, run_lesgd,
                              run_lesgd_hetero, run_lippax, run_lsgd,
                              run_slippax, solve_inner_prox, step_size)
from fedvi.operators import (affine_operator, eval_operator,
                             make_test_problem, operator_bound_on_ball)
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


class TestConstantsOf:
    """constants_of is the one place a schedule's G and xi come from."""

    def test_affine_G_is_the_bound_on_the_10D_ball_around_z0(self):
        op = make_test_problem("affine", 4, {"b_scale": 2.0}, seed=5)
        z0 = np.array([1.0, -2.0, 0.5, 3.0])
        c = constants_of(op, z0, 0.7)
        assert c["G"] == operator_bound_on_ball(op, z0, 7.0)
        assert c["G"] != constants_of(op, np.zeros(4), 0.7)["G"]
        assert (c["L"], c["beta"], c["Lambda"], c["d"]) == (
            op.L, op.beta, op.Lambda, 4)
        assert c["xi"] is None

    def test_nonlinear_G_is_the_declared_bound(self):
        op = make_test_problem("bounded-nonlinear", 3, seed=1)
        assert constants_of(op, np.full(3, 50.0), 9.0)["G"] == op.G

    def test_xi_is_the_largest_offset_row_norm(self):
        op = make_test_problem("affine", 2, seed=3)
        offsets = np.array([[3.0, 4.0], [-1.0, 0.0], [-2.0, -4.0]])
        assert constants_of(op, np.zeros(2), 1.0, offsets)["xi"] == 5.0

    def test_overflowing_xi_is_inf_without_numpy_warnings(self):
        op = make_test_problem("affine", 2, seed=3)
        offsets = np.array([[1e200, 0.0], [-1e200, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xi = constants_of(op, np.zeros(2), 1.0, offsets)["xi"]
        assert xi == math.inf


def scalar_op() -> OracleSpec:
    return OracleSpec(base=affine_operator(np.array([[1.0]]), np.array([0.0])))


class TestRunLesgd:
    def test_scalar_hand_simulation(self):
        """V(z)=z, eta=0.5, z0=1: x1 = 0.5, z1 = 0.75, x2 = 0.375."""
        cfg = RunConfig(M=1, K=1, R=2, eta=0.5, z0=np.array([1.0]),
                        record_every=1)
        traj = run_lesgd(scalar_op(), cfg)
        assert traj.records[0].mean_iterate[0] == 0.5
        assert traj.records[1].mean_iterate[0] == 0.375  # = 0.75 * (1 - 0.5)
        assert traj.records[-1].output_avg[0] == pytest.approx(
            (0.5 + 0.375) / 2)

    def test_identical_clients_have_zero_drift(self):
        op = make_test_problem("affine", 3, seed=0)
        cfg = RunConfig(M=5, K=2, R=3, eta=0.1, record_every=1)
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
                        record_every=1)
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
        cfg = RunConfig(M=3, K=2, R=5, eta=0.1, master_seed=11, record_every=2)
        a, b = run_lesgd(oracle, cfg), run_lesgd(oracle, cfg)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.mean_iterate, rb.mean_iterate)
            assert np.array_equal(ra.output_avg, rb.output_avg)

    def test_output_recomputable_from_full_log(self):
        op = make_test_problem("affine", 3, seed=4)
        cfg = RunConfig(M=2, K=2, R=4, eta=0.1, record_every=1)
        traj = run_lesgd(OracleSpec(base=op), cfg)
        recomputed = np.mean([r.mean_iterate for r in traj.records], axis=0)
        np.testing.assert_allclose(traj.records[-1].output_avg, recomputed,
                                   atol=1e-12)

    def test_finite_run_is_ok(self):
        op = make_test_problem("affine", 3, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run_lesgd(OracleSpec(base=op, sigma=1.0),
                             RunConfig(M=2, K=2, R=4, eta=0.1, record_every=2))
        assert traj.diverged_at is None

    def test_overflow_marks_the_first_non_finite_record(self):
        """V(z) = z with eta = 1e6 grows ~1e12 per step.

        From step 13 on the entries pass 1e154, so the Euclidean norm of
        the state overflows although every entry stays finite until step
        26; the first record with a non-finite norm marks the run.
        """
        cfg = RunConfig(M=2, K=1, R=40, eta=1e6, z0=np.array([1.0]),
                        record_every=1)
        with np.errstate(all="ignore"), \
                pytest.warns(RuntimeWarning) as caught:
            traj = run_lesgd(scalar_op(), cfg)
        finite = [bool(np.isfinite(r.output_avg).all()) for r in traj.records]
        assert traj.diverged_at == 13
        assert finite == [True] * 26 + [False] * 14
        assert [str(w.message) for w in caught] == [
            "lesgd run (master_seed 0, M=2, K=1, R=40) diverged: iterate "
            "norm not finite at step 13"]

    def test_growth_past_the_limit_marks_the_run(self):
        """V(z) = z with eta = 3 multiplies the state by 7 per step.

        From z0 = 1 with reach 1 the limit is 1e6: 7^8 - 1 > 1e6 > 7^7 - 1,
        so step 8 is the first record past it, long before any overflow.
        Without a reach the same run stays ok.  The one warning is a
        DivergenceWarning, which a RuntimeWarning filter catches.
        """
        cfg = RunConfig(M=1, K=1, R=40, eta=3.0, z0=np.array([1.0]),
                        record_every=1, reach=1.0)
        with pytest.warns(RuntimeWarning) as caught:
            traj = run_lesgd(scalar_op(), cfg)
        assert traj.diverged_at == 8
        assert [str(w.message) for w in caught] == [
            "lesgd run (master_seed 0, M=1, K=1, R=40) diverged: iterate "
            "norm beyond 1e+06 from z0 at step 8"]
        assert [w.category for w in caught] == [DivergenceWarning]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_lesgd(scalar_op(), replace(cfg, reach=math.inf)
                             ).diverged_at is None

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
                        z0=np.array([1.0, 2.0]), record_every=1)
        traj = run_lippax(OracleSpec(base=zero), cfg)
        for rec in traj.records:
            np.testing.assert_array_equal(rec.mean_iterate, [1.0, 2.0])

    def test_large_h_matches_exact_proximal_point_step(self):
        op = make_test_problem("affine", 4, seed=6)
        eta = 1.0 / op.L
        z0 = np.array([1.0, -1.0, 0.5, 2.0])
        cfg = RunConfig(M=1, K=1, R=1, eta=eta, H=60,
                        gamma=derived_gamma(eta, op.L), z0=z0, record_every=1)
        traj = run_lippax(OracleSpec(base=op), cfg)
        x_star = exact_prox_point(op, z0, eta)
        np.testing.assert_allclose(traj.records[0].mean_iterate, x_star,
                                   atol=1e-8)

    def test_slippax_delta_zero_is_lippax_bitwise(self):
        op = make_test_problem("affine", 3, seed=7)
        oracle = OracleSpec(base=op, sigma=0.8)
        cfg = RunConfig(M=3, K=2, R=4, eta=0.2, H=4,
                        gamma=derived_gamma(0.2, op.L), master_seed=21,
                        record_every=2)
        a, b = run_lippax(oracle, cfg), run_slippax(oracle, cfg)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.mean_iterate, rb.mean_iterate)
        assert np.array_equal(a.records[-1].output_avg,
                              b.records[-1].output_avg)

    @pytest.mark.parametrize("missing", ["H", "gamma"])
    @pytest.mark.parametrize("runner", [run_lippax, run_slippax])
    def test_inner_loop_parameters_are_required(self, runner, missing):
        """H and gamma come from the caller; a run without either fails
        before its first step, naming the field."""
        op = make_test_problem("affine", 3, seed=7)
        given = {"H": 2, "gamma": 0.1}
        del given[missing]
        cfg = RunConfig(M=2, K=2, R=2, eta=0.2, **given)
        with pytest.raises(ValueError, match=rf"RunConfig\.{missing}\b"):
            runner(OracleSpec(base=op), cfg)

    def test_slippax_delta_positive_differs(self):
        op = make_test_problem("affine", 3, seed=7)
        oracle = OracleSpec(base=op, sigma=0.8)
        base = RunConfig(M=2, K=2, R=2, eta=0.2, H=3,
                         gamma=derived_gamma(0.2, op.L), master_seed=21)
        smoothed = replace(base, delta=0.1)
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
            cfg = dict(M=1, K=1, R=2, eta=0.2, H=2,
                       gamma=derived_gamma(0.2, op.L), master_seed=seed,
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
                        record_every=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run_lsgd(OracleSpec(base=op), cfg)
        np.testing.assert_array_equal(traj.records[0].mean_iterate, [0.0, 0.0])

    def test_distance_monotone_for_small_eta(self):
        op = make_test_problem("quadratic-gradient", 4,
                               {"eig_range": [0.2, 1.0]}, seed=10)
        cfg = RunConfig(M=1, K=1, R=30, eta=1.0 / op.beta,
                        z0=np.ones(4) * 2, record_every=1)
        traj = run_lsgd(OracleSpec(base=op), cfg)
        dists = [np.linalg.norm(r.mean_iterate - op.solution)
                 for r in traj.records]
        assert all(a >= b - 1e-12 for a, b in zip(dists, dists[1:]))

    def test_skew_divergence_factor_is_exact(self):
        """Plain descent on a rotation grows by sqrt(1 + eta^2) per step."""
        op = make_test_problem("skew", 2)
        cfg = RunConfig(M=1, K=1, R=100, eta=0.5, z0=np.array([1.0, 0.0]),
                        record_every=1)
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
        cfg = RunConfig(M=3, K=2, R=5, eta=0.1, master_seed=13, record_every=2)
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
                        record_every=1)
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
        cfg = RunConfig(M=4, K=2, R=3, eta=0.1, master_seed=17, record_every=2)
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
                        record_every=1)
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
        dict(gamma=0.0), dict(H=0), dict(delta=-0.1), dict(record_every=0),
        dict(reach=0.0), dict(reach=float("nan")),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**{**dict(M=1, K=1, R=1, eta=0.1), **kwargs})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", ["eta", "gamma", "delta"])
    def test_non_finite_step_sizes_rejected(self, name, value):
        """A NaN step size fails no ordering test, so it needs its own:
        a NaN-eta run would write only diverged records."""
        with pytest.raises(ValueError, match=f"{name} must be .*finite"):
            RunConfig(**{**dict(M=1, K=1, R=1, eta=0.1), name: value})

    def test_total_steps(self):
        assert RunConfig(M=1, K=7, R=9, eta=0.1).T == 63

    def test_record_every_counts_steps_and_keeps_the_last(self):
        """Every step by default; record_every=5 over 12 steps records
        t = 5, 10 and the last step, 12."""
        base = dict(M=1, K=3, R=4, eta=0.1)
        for extra, steps in (({}, list(range(1, 13))),
                             (dict(record_every=5), [5, 10, 12])):
            traj = run_lesgd(scalar_op(), RunConfig(**base, **extra))
            assert [r.t for r in traj.records] == steps

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
                            record_every=1)
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
    eta, H, gamma = cfg.eta, cfg.H, cfg.gamma
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


# The runner ids of the per-query references: every algorithm id, LDA
# with an l1 phi as ``lda``, plus ``lda-box``, LDA with a box phi, so
# that both prox kinds meet the runner's mirror map
RUN_IDS = ALGO_IDS + ("lda-box",)
LDA_REGS = {"lda": RegularizerSpec(kind="l1", lam=0.3),
            "lda-box": RegularizerSpec(kind="box-indicator", lo=-0.5, hi=0.5)}


def _run(algo, oracle, cfg):
    """The runner for ``algo`` (a RUN_IDS entry) plus the regularizer or
    offsets it was given."""
    M, d = cfg.M, oracle.dim
    if algo in LDA_REGS:
        reg = LDA_REGS[algo]
        return run_lda(oracle, reg, cfg), dict(reg=reg)
    if algo == "lesgd-hetero":
        offsets = np.random.default_rng(M).standard_normal((M, d))
        offsets -= offsets.mean(axis=0)
        return run_lesgd_hetero(oracle, offsets, cfg), dict(offsets=offsets)
    runner = {"lesgd": run_lesgd, "lippax": run_lippax,
              "slippax": run_slippax, "lsgd": run_lsgd}[algo]
    return runner(oracle, cfg), {}


def _bits(a):
    """An array's or float's bytes: unlike ==, they tell -0.0 from +0.0."""
    return np.asarray(a, dtype=float).tobytes()


def _assert_same_bits(traj, ref, record_every=1):
    """The runner's records equal the reference's steps at the recorded
    t (every record_every steps and t = T), byte for byte."""
    T = len(ref)
    steps = [t for t in range(1, T + 1) if t % record_every == 0 or t == T]
    assert [rec.t for rec in traj.records] == steps
    for rec, t in zip(traj.records, steps):
        mean, output, drift_z = ref[t - 1]
        assert _bits(rec.mean_iterate) == _bits(mean)
        assert _bits(rec.output_avg) == _bits(output)
        assert _bits(rec.drift_z) == _bits(drift_z)


def _trajectory_bits(traj):
    return [(r.mean_iterate.tobytes(), r.output_avg.tobytes(), r.drift_z)
            for r in traj.records]


def _count_draws(monkeypatch):
    """Counts of RngStream.at calls, sample_oracle calls and the rows
    those calls query, kept while the test runs."""
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
    return counts


class TestRoundDraws:
    """A run's randomness drawn ahead gives the per-query draws' bits."""

    @staticmethod
    def _case(kind, model, sigma, M, K, delta=0.3):
        oracle = OracleSpec(base=make_test_problem(kind, 5, seed=9),
                            noise_model=model, sigma=sigma)
        cfg = RunConfig(M=M, K=K, R=3, eta=0.15, H=3,
                        gamma=derived_gamma(0.15, oracle.base.L), delta=delta,
                        master_seed=31, record_every=1,
                        z0=np.linspace(-1.0, 1.0, 5))
        return oracle, cfg

    @pytest.mark.parametrize("K", [1, 4])
    @pytest.mark.parametrize("M", [1, 3, 16])
    @pytest.mark.parametrize("model", ["gaussian-isotropic", "bounded-uniform"])
    @pytest.mark.parametrize("algo", RUN_IDS)
    def test_runs_equal_per_query_reference_bitwise(self, algo, model, M, K):
        oracle, cfg = self._case("bounded-nonlinear", model, 0.8, M, K)
        traj, extra = _run(algo, oracle, cfg)
        _assert_same_bits(traj, reference_run(algo, oracle, cfg, **extra))

    @pytest.mark.parametrize("K", [1, 4])
    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize("kind", ["affine", "bounded-nonlinear"])
    @pytest.mark.parametrize("algo", RUN_IDS)
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

    @pytest.mark.parametrize("sigma", [0.0, 0.8])
    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize("algo", RUN_IDS)
    def test_recorded_steps_equal_reference_bitwise(self, algo, M, sigma):
        """record_every 5 over T = 12: the client mean of p, formed on
        record steps only at M = 1, and the output at t = 5, 10, 12."""
        oracle, cfg = self._case("bounded-nonlinear", "gaussian-isotropic",
                                 sigma, M, 4)
        cfg = replace(cfg, record_every=5)
        traj, extra = _run(algo, oracle, cfg)
        _assert_same_bits(traj, reference_run(algo, oracle, cfg, **extra), 5)

    @pytest.mark.filterwarnings("ignore:operator does not declare")
    @pytest.mark.parametrize("record_every", [1, 5])
    @pytest.mark.parametrize("M", [1, 3])
    @pytest.mark.parametrize("algo", RUN_IDS)
    def test_signed_zeros_equal_reference_bitwise(self, algo, M,
                                                  record_every):
        """From z0 = -0.0 on the skew operator every point is a zero whose
        sign the means decide: the records must keep the reference's."""
        oracle = OracleSpec(base=make_test_problem("skew", 4),
                            noise_model="none")
        cfg = RunConfig(M=M, K=4, R=3, eta=0.15, H=3,
                        gamma=derived_gamma(0.15, oracle.base.L),
                        z0=np.full(4, -0.0), record_every=record_every)
        traj, extra = _run(algo, oracle, cfg)
        _assert_same_bits(traj, reference_run(algo, oracle, cfg, **extra),
                          record_every)

    @pytest.mark.parametrize("budget", [1, 150])
    @pytest.mark.parametrize("algo", RUN_IDS)
    def test_block_split_keeps_the_bits(self, algo, budget, monkeypatch):
        """One-step blocks, and blocks of 2, 2, 1 steps for K = 5."""
        oracle, cfg = self._case("affine", "gaussian-isotropic", 0.8, 3, 5)
        whole = _trajectory_bits(_run(algo, oracle, cfg)[0])
        monkeypatch.setattr(algorithms, "DRAW_BLOCK_CELLS", budget)
        assert _trajectory_bits(_run(algo, oracle, cfg)[0]) == whole

    @pytest.mark.parametrize("algo,budget,sizes", [
        ("lesgd", 150, [2] * 7 + [1]),  # 60 cells a step
        ("lippax", 500, [4] * 3 + [3]),  # H = 3: 120 cells a step
        ("lesgd", 1, [1] * 15)])
    def test_blocks_are_whole_steps_across_rounds(self, monkeypatch, algo,
                                                  budget, sizes):
        """Blocks run over 1..T in consecutive whole steps, one step at
        least, within the budget unless one step exceeds it, and cross
        round boundaries (K = 5)."""
        oracle, cfg = self._case("affine", "gaussian-isotropic", 0.8, 3, 5)
        blocks = []
        draw_steps = algorithms._draw_steps

        def recording(oracle, streams, steps, queries, radii):
            blocks.append(list(steps))
            assert [M for _, M in streams] == [len(radii)] == [cfg.M]
            cells = 2 * len(queries) * len(radii) * oracle.dim * len(steps)
            assert cells <= budget or len(steps) == 1
            return draw_steps(oracle, streams, steps, queries, radii)
        monkeypatch.setattr(algorithms, "_draw_steps", recording)
        monkeypatch.setattr(algorithms, "DRAW_BLOCK_CELLS", budget)
        _run(algo, oracle, cfg)
        assert [t for block in blocks for t in block] == list(
            range(1, cfg.T + 1))
        assert [len(block) for block in blocks] == sizes
        rounds = [{(t - 1) // cfg.K for t in block} for block in blocks]
        assert any(len(r) > 1 for r in rounds) == (sizes[0] > 1)

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
        counts = _count_draws(monkeypatch)
        _run(algo, oracle, cfg)
        steps = cfg.T
        drawing = queries_per_step if sigma > 0 else 3 if delta > 0 else 0
        assert counts["queries"] == queries_per_step * steps
        assert counts["rows"] == queries_per_step * steps * cfg.M
        assert counts["at"] == drawing * steps * cfg.M


def _stack_runs(L, z0, record_every=1):
    """Runs of several M, seeds and step sizes for one stack: runs of one
    M side by side (1, 1 and 3, 3) and alone (2, then 1)."""
    return [RunConfig(M=M, K=4, R=3, eta=eta, H=3,
                      gamma=derived_gamma(eta, L), delta=delta,
                      master_seed=seed, record_every=record_every, z0=z0)
            for M, seed, eta, delta in [
                (1, 3, 0.15, 0.3), (1, 4, 0.1, 0.2), (3, 5, 0.15, 0.3),
                (3, 6, 0.12, 0.1), (2, 7, 0.15, 0.05), (1, 8, 0.08, 0.3)]]


def _stacked_and_alone(algo, oracle, runs):
    """The stack's trajectories, and each run's by a runner call alone;
    heterogeneous runs get offsets of their own M each."""
    if algo == "lesgd-hetero":
        offsets = []
        for run in runs:
            offs = np.random.default_rng(run.M).standard_normal(
                (run.M, oracle.dim))
            offsets.append(offs - offs.mean(axis=0))
        return (run_lesgd_hetero(oracle, np.concatenate(offsets),
                                 RunStack(tuple(runs))),
                [run_lesgd_hetero(oracle, offs, run)
                 for offs, run in zip(offsets, runs)])
    return (_run(algo, oracle, RunStack(tuple(runs)))[0],
            [_run(algo, oracle, run)[0] for run in runs])


def _assert_stack_is_alone(stacked, alone):
    assert len(stacked) == len(alone)
    for s, a in zip(stacked, alone):
        assert _trajectory_bits(s) == _trajectory_bits(a)
        assert s.diverged_at == a.diverged_at


class TestRunStacks:
    """A stack of runs gives each run the bits it has alone."""

    @pytest.mark.parametrize("record_every", [1, 5])
    @pytest.mark.parametrize("sigma", [0.0, 0.8])
    @pytest.mark.parametrize("algo", RUN_IDS)
    def test_stack_equals_runs_alone_bitwise(self, algo, sigma,
                                             record_every):
        oracle = OracleSpec(base=make_test_problem("bounded-nonlinear", 5,
                                                   seed=9), sigma=sigma)
        runs = _stack_runs(oracle.base.L, np.linspace(-1.0, 1.0, 5),
                           record_every)
        _assert_stack_is_alone(*_stacked_and_alone(algo, oracle, runs))

    @pytest.mark.filterwarnings("ignore:operator does not declare")
    @pytest.mark.parametrize("algo", RUN_IDS)
    def test_signed_zeros_stack_equals_runs_alone_bitwise(self, algo):
        """From z0 = -0.0 on the skew operator the means decide every
        zero's sign, in each run's sync and output alike."""
        oracle = OracleSpec(base=make_test_problem("skew", 4),
                            noise_model="none")
        runs = _stack_runs(oracle.base.L, np.full(4, -0.0))
        _assert_stack_is_alone(*_stacked_and_alone(algo, oracle, runs))

    def test_synced_states_equal_runs_alone_bitwise(self):
        """The states each step is given are each run's own after every
        sync, signed zeros included: a one-client run syncs to 0.0 + row,
        which no record shows."""
        oracle = OracleSpec(base=make_test_problem("affine", 3, seed=1),
                            noise_model="none")
        runs = _stack_runs(oracle.base.L, np.array([-0.0, 0.0, -0.0]))

        def given(cfg):
            states = []

            def step(t, z, sync, draws):
                states.append(z.copy())
                return z.copy(), z
            algorithms._round_loop(cfg, oracle, step, "stub",
                                   ((0, PHASE_EXTRAPOLATE, False),))
            return states
        ends = np.cumsum([run.M for run in runs])[:-1]
        alone = [given(run) for run in runs]
        for t, z in enumerate(given(RunStack(tuple(runs)))):
            assert [_bits(part) for part in np.split(z, ends)] == [
                _bits(states[t]) for states in alone]
        assert np.signbit(alone[0][0]).any()
        assert not np.signbit(alone[0][-1]).any()

    @pytest.mark.filterwarnings("ignore:operator does not declare")
    @pytest.mark.parametrize("algo,sigma,queries,drawing", [
        ("lesgd", 0.8, 2, 2), ("lsgd", 0.8, 1, 1),
        ("slippax", 0.8, 4, 4),  # H = 3 smoothed inner queries, extra step
        ("slippax", 0.0, 4, 3)])  # the smoothed inner queries alone
    def test_one_call_draws_each_row_once(self, monkeypatch, algo, sigma,
                                          queries, drawing):
        """A stack's step is one sample_oracle call per query on all of
        its rows, and one RngStream.at call per row that draws: runs of
        mixed M, each smoothing at its own delta > 0, take M K R keys a
        drawing query, summed over the runs."""
        oracle = OracleSpec(base=make_test_problem("affine", 5, seed=9),
                            sigma=sigma)
        stack = RunStack(tuple(_stack_runs(oracle.base.L, None)))
        counts = _count_draws(monkeypatch)
        _run(algo, oracle, stack)
        assert stack.M == 11
        assert counts == {"at": drawing * stack.M * stack.T,
                          "queries": queries * stack.T,
                          "rows": queries * stack.M * stack.T}

    def test_diverging_run_leaves_its_neighbours_alone(self):
        """The middle run's step is too large: it diverges and warns as it
        does alone, and the runs beside it keep their bits and stay ok."""
        oracle = OracleSpec(base=make_test_problem("affine", 3, seed=1),
                            sigma=0.5)
        runs = [RunConfig(M=M, K=2, R=20, eta=eta, master_seed=seed,
                          reach=1.0)
                for M, eta, seed in [(2, 0.1, 0), (1, 3.0, 1), (3, 0.1, 2)]]

        def call(cfg):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = run_lesgd(oracle, cfg)
            return out, [str(w.message) for w in caught
                         if w.category is DivergenceWarning]
        stacked, messages = call(RunStack(tuple(runs)))
        alone = [call(run) for run in runs]
        _assert_stack_is_alone(stacked, [traj for traj, _ in alone])
        assert [traj.diverged_at is None for traj in stacked] == [
            True, False, True]
        assert messages == [m for _, ms in alone for m in ms]
        assert len(messages) == 1 and "master_seed 1," in messages[0]

    def test_lsgd_warns_once_per_run(self):
        oracle = OracleSpec(base=make_test_problem("skew", 2), sigma=0.5)
        stack = RunStack(tuple(RunConfig(M=M, K=2, R=2, eta=0.1,
                                         master_seed=seed)
                               for M, seed in [(1, 0), (2, 1), (1, 2)]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_lsgd(oracle, stack)
        assert ["co-coercivity" in str(w.message) for w in caught] == [
            True] * 3

    def test_a_one_run_stack_returns_a_tuple(self):
        oracle = OracleSpec(base=make_test_problem("affine", 3, seed=1),
                            sigma=0.5)
        run = RunConfig(M=2, K=2, R=3, eta=0.1, master_seed=4)
        (traj,) = run_lesgd(oracle, RunStack((run,)))
        assert _trajectory_bits(traj) == _trajectory_bits(
            run_lesgd(oracle, run))

    @pytest.mark.parametrize("field,value", [
        ("K", 3), ("R", 4), ("H", 2), ("record_every", 2)])
    def test_runs_must_share_the_step_shape(self, field, value):
        first = RunConfig(M=2, K=2, R=3, H=3, eta=0.1)
        with pytest.raises(ValueError, match=f"share {field}"):
            RunStack((first, replace(first, **{field: value})))

    def test_rejects_an_empty_stack(self):
        with pytest.raises(ValueError, match="at least one run"):
            RunStack(())

    def test_slippax_runs_smooth_all_or_none(self):
        oracle = OracleSpec(base=make_test_problem("affine", 3, seed=1))
        run = RunConfig(M=1, K=1, R=2, eta=0.1, H=2, gamma=0.05, delta=0.2)
        with pytest.raises(ValueError, match="smooth"):
            run_slippax(oracle, RunStack((run, replace(run, delta=0.0))))

    def test_hetero_offsets_cover_the_stack_rows(self):
        oracle = OracleSpec(base=make_test_problem("affine", 3, seed=1))
        run = RunConfig(M=2, K=1, R=2, eta=0.1)
        with pytest.raises(ValueError, match=r"expected \(M, d\) = \(4, 3\)"):
            run_lesgd_hetero(oracle, np.zeros((2, 3)), RunStack((run, run)))


class TestClientMean:
    def test_one_row_is_the_reduce_bitwise_in_a_fresh_array(self):
        """A one-row mean is 0.0 + row: -0.0 becomes +0.0, NaN, +-inf and
        ordinary values keep their bits, and nothing aliases the stack."""
        row = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 1.5, -2.25e-300,
               5e-324, 1e308]
        a = np.array([row])
        got = algorithms._client_mean(a)
        want = np.add.reduce(a, axis=0) / 1
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert not np.signbit(got[0])
        assert not np.shares_memory(got, a)

    @pytest.mark.parametrize("M", [1, 2, 3, 16])
    def test_equals_numpy_mean_bitwise(self, M):
        a = np.random.default_rng(M).standard_normal((M, 7))
        assert np.array_equal(algorithms._client_mean(a), a.mean(axis=0))


class TestDispersion:
    def test_identical_points(self):
        # 0.1 is not a float whose mean over 3 rows is bit-exact
        for value in (1.0, 0.1):
            assert dispersion(np.full((3, 2), value)) == 0.0

    def test_two_clients_symmetric(self):
        assert dispersion(np.array([[1.0, 0.0], [-1.0, 0.0]])) == 1.0

    def test_three_scalar_clients(self):
        assert dispersion(np.array([[0.0], [1.0], [2.0]])) == pytest.approx(
            2.0 / 3.0)

    @pytest.mark.parametrize("M", [2, 3, 16])
    def test_equals_numpy_means_bitwise(self, M):
        p = np.random.default_rng(M).standard_normal((M, 7)) * 1e3
        assert dispersion(p) == float(
            ((p - p.mean(axis=0)) ** 2).sum(axis=1).mean())
