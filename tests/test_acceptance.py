"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the report lines.
Each criterion carries its stated tolerance and runtime budget.
"""

import math
import time

import numpy as np
import pytest

from fedvi.algorithms import (RunConfig, constants_of, derived_gamma, run_lda,
                              run_lesgd, step_size)
from fedvi.gaps import composite_gap, restricted_gap
from fedvi.harness import fit_rate, rows_to_csv, run_experiment
from fedvi.operators import (affine_operator, eval_operator,
                             make_test_problem, operator_bound_on_ball)
from fedvi.oracles import OracleSpec
from fedvi.regularizers import RegularizerSpec
from fedvi.algorithms import run_lsgd
from gap_reference import (check_eg_cocoercivity, exact_prox_point,
                           grid_oracle)
from run_reference import compare_reduction


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# --- shared acceptance configs (criteria 1, 2, 10) -----------------------

CONFIG_1 = {
    "problem": {"kind": "affine", "dim": 10, "seed": 11,
                "params": {"L": 1.0, "b_scale": 0.3, "mu": 0.0, "skew": 1.5}},
    "algorithm": {"id": "lesgd", "schedule": "T1"},
    "federation": {"M": 1, "K": 16, "R": 50},
    "noise": {"sigma": 0.0, "model": "none"},
    "gap": {"D": 5.0},
    "sweep": {"R": [50, 100, 200, 400, 800]},
    "seeds": [0],
}


def _configs_2():
    """Variance-branch step size eta = D sqrt(M) / (sigma sqrt(6KR)),
    forced per M level (the schedule min would pick the drift branch at
    these K, R, sigma for any usable D)."""
    D, sigma, K, R = 1.0, 5.0, 8, 200
    configs = {}
    for M in (1, 4, 16):
        eta = D * math.sqrt(M) / (sigma * math.sqrt(6 * K * R))
        configs[M] = {
            "problem": {"kind": "affine", "dim": 10, "seed": 11,
                        "params": {"L": 1.0, "b_scale": 0.0, "mu": 0.0,
                                   "skew": 1.5}},
            "algorithm": {"id": "lesgd", "eta": eta},
            "federation": {"M": M, "K": K, "R": R},
            "noise": {"sigma": sigma, "model": "gaussian-isotropic"},
            "gap": {"D": D},
            "seeds": list(range(20)),
            "log_every": R,
        }
    return configs


@pytest.fixture(scope="module")
def config1_rows():
    t0 = time.perf_counter()
    rows = run_experiment(CONFIG_1)
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def config2_rows():
    t0 = time.perf_counter()
    rows = {M: run_experiment(cfg) for M, cfg in _configs_2().items()}
    return rows, time.perf_counter() - t0


class TestAcceptance:
    def test_criterion_1_deterministic_lesgd_rate(self, config1_rows):
        """Certified gap vs R follows a power law with slope near -1."""
        rows, elapsed = config1_rows
        plan = step_size("T1", {"L": 1.0},
                         {"M": 1, "K": 16, "R": 50, "sigma": 0.0, "D": 5.0})
        assert plan.active_branch == 0  # eta = 1 / (sqrt(14 K) L)
        assert all(r.gap_certified for r in rows)
        fit = fit_rate(rows, [], "R")[()]
        ok = (-1.25 <= fit.slope <= -0.80) and fit.r2 >= 0.95 and elapsed < 60
        _report(1, ok, f"slope={fit.slope:.3f} in [-1.25,-0.80], "
                       f"r2={fit.r2:.4f} >= 0.95, {elapsed:.1f}s < 60s")

    def test_criterion_2_stochastic_scaling_in_M(self, config2_rows):
        """Mean final gap drops by about half per 4x clients."""
        by_m, elapsed = config2_rows
        means = {}
        for M, rows in by_m.items():
            finals = [r.gap_value for r in rows if r.round == r.R]
            assert len(finals) == 20
            means[M] = float(np.mean(finals))
        r41 = means[4] / means[1]
        r164 = means[16] / means[4]
        ok = (0.35 <= r41 <= 0.75) and (0.35 <= r164 <= 0.75) and elapsed < 300
        _report(2, ok, f"gap ratios M4/M1={r41:.3f}, M16/M4={r164:.3f} "
                       f"in [0.35,0.75], {elapsed:.0f}s < 300s")

    def test_criterion_3_lippax_inner_contraction(self):
        """Every inner step contracts toward the linear-solve prox point."""
        t0 = time.perf_counter()
        op = make_test_problem("quadratic-gradient", 6,
                               {"eig_range": [0.6, 1.0]}, seed=2)
        eta = 1.0 / op.L
        gamma = derived_gamma(eta, op.L)
        z = np.random.default_rng(0).standard_normal(6)
        x_star = exact_prox_point(op, z, eta)
        factor = math.sqrt(1 - 1 / (eta * op.L + 1) ** 2)
        x = z.copy()
        prev = np.linalg.norm(x - x_star)
        per_step_ok = True
        for _ in range(30):
            x = x - gamma * (eval_operator(op, x) + (x - z) / eta)
            cur = np.linalg.norm(x - x_star)
            per_step_ok &= cur <= factor * prev + 1e-9
            prev = cur
        final_ratio = prev / np.linalg.norm(z - x_star)
        elapsed = time.perf_counter() - t0
        ok = per_step_ok and final_ratio <= 1e-6 and elapsed < 1
        _report(3, ok, f"30 contraction steps ok={per_step_ok}, final "
                       f"ratio={final_ratio:.2e} <= 1e-6, {elapsed:.2f}s < 1s")

    def test_criterion_4_eg_cocoercivity(self):
        """No violations of the 2/eta co-coercivity of V(z - eta V(z))."""
        t0 = time.perf_counter()
        total_violations = 0
        worst = -math.inf
        for i in range(5):
            op = make_test_problem("affine", 8, {"L": 1.0}, seed=200 + i)
            report = check_eg_cocoercivity(op, 1.0 / op.L, n_pairs=10_000,
                                           seed=i, tol=1e-9)
            total_violations += report.violations
            worst = max(worst, report.max_violation)
        elapsed = time.perf_counter() - t0
        ok = total_violations == 0 and elapsed < 5
        _report(4, ok, f"50000 pairs, violations={total_violations}, "
                       f"max margin={worst:.2e}, {elapsed:.1f}s < 5s")

    def test_criterion_5_exact_reductions(self):
        """Three reduction pairs match trajectory-for-trajectory."""
        t0 = time.perf_counter()
        base = {
            "problem": {"kind": "affine", "dim": 6, "seed": 31,
                        "params": {"L": 1.0}},
            "algorithm": {"id": "lesgd", "eta": 0.05},
            "federation": {"M": 3, "K": 4, "R": 6},
            "noise": {"sigma": 0.7, "model": "gaussian-isotropic"},
            "gap": {"D": 1.0},
            "seeds": [3],
            "log_every": 1,
        }
        lda = {**base, "algorithm": {"id": "lda", "eta": 0.05},
               "regularizer": {"kind": "zero"}}
        lippax = {**base, "algorithm": {"id": "lippax", "eta": 0.05, "H": 4}}
        slippax = {**base, "algorithm": {"id": "slippax", "eta": 0.05,
                                         "H": 4, "delta": 0.0}}
        hetero = {**base, "algorithm": {"id": "lesgd-hetero", "eta": 0.05},
                  "problem": dict(base["problem"],
                                  hetero={"offset_scale": 0.0})}
        devs = [compare_reduction(base, lda)[1],
                compare_reduction(lippax, slippax)[1],
                compare_reduction(base, hetero)[1]]
        elapsed = time.perf_counter() - t0
        ok = all(d == 0.0 for d in devs) and elapsed < 10
        _report(5, ok, f"max deviations lda/slippax/hetero = {devs}, "
                       f"{elapsed:.1f}s < 10s")

    def test_criterion_6_client_drift_bound(self):
        """Monte Carlo two-client drift stays under 37 e eta^2 sigma^2 K."""
        t0 = time.perf_counter()
        K, sigma, L, M, reps = 16, 1.0, 1.0, 2, 200
        eta = 1.0 / (math.sqrt(14 * K) * L)
        bound = 37 * math.e * eta ** 2 * sigma ** 2 * K
        op = make_test_problem("affine", 10, {"L": L, "mu": 0.0,
                                              "skew": 1.5}, seed=11)
        oracle = OracleSpec(base=op, sigma=sigma)
        per_t = []
        for rep in range(reps):
            cfg = RunConfig(M=M, K=K, R=3, eta=eta, master_seed=5000 + rep,
                            log_steps=True)
            traj = run_lesgd(oracle, cfg)
            per_t.append([4.0 * r.drift_z for r in traj.records])  # M = 2
        mean_drift = np.mean(per_t, axis=0)
        frac_ok = float((mean_drift <= bound).mean())
        elapsed = time.perf_counter() - t0
        ok = frac_ok >= 0.99 and elapsed < 120
        _report(6, ok, f"{frac_ok:.1%} of per-step checks under bound "
                       f"{bound:.3f} (max drift {mean_drift.max():.4f}), "
                       f"{elapsed:.0f}s < 120s")

    def test_criterion_7_composite_lda_progress(self):
        """l1-regularized bilinear saddle: err_c falls 10x over 500 rounds."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        c, e = 0.1 * rng.standard_normal(4), 0.1 * rng.standard_normal(4)
        A = np.block([[np.zeros((4, 4)), q], [-q.T, np.zeros((4, 4))]])
        op = affine_operator(A, np.concatenate([c, e]),
                             kind="bilinear-saddle")
        D = 2.0 * float(np.linalg.norm(op.solution))
        center = np.zeros(8)
        G = operator_bound_on_ball(op, center, 10.0 * D)
        plan = step_size("T7", constants_of(op, G_override=G),
                         {"M": 1, "K": 8, "R": 500, "sigma": 0.0, "D": D})
        reg = RegularizerSpec(kind="l1", lam=0.05)
        cfg = RunConfig(M=1, K=8, R=500, eta=plan.eta, log_every=1,
                        master_seed=1)
        traj = run_lda(OracleSpec(base=op), reg, cfg)
        err_1 = composite_gap(op, reg, traj.records[0].output_avg, center, D)
        err_500 = composite_gap(op, reg, traj.records[-1].output_avg,
                                center, D)
        ratio = err_500.value / err_1.value
        elapsed = time.perf_counter() - t0
        ok = ratio <= 0.1 and elapsed < 60
        _report(7, ok, f"err_c {err_1.value:.4f} -> {err_500.value:.5f}, "
                       f"ratio={ratio:.3f} <= 0.1, {elapsed:.1f}s < 60s")

    def test_criterion_8_gap_evaluator_correctness(self):
        """Exact-concave solver vs a 1e6-point grid, skew vs closed form."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(8)
        worst_grid = 0.0
        for i in range(20):
            op = make_test_problem("affine", 2,
                                   {"L": 1.0, "mu": 0.05 * (i % 4)},
                                   seed=300 + i)
            x_o = rng.standard_normal(2)
            center = rng.standard_normal(2) * 0.3
            D = 1.0 + rng.random()
            est = restricted_gap(op, x_o, center, D)
            assert est.certified
            grid = grid_oracle(op, x_o, center, D, 1000, 1000)
            worst_grid = max(worst_grid, abs(est.value - grid))
        skew = make_test_problem("skew", 2)
        x_o = np.array([0.8, -0.4])
        D = 1.3
        est = restricted_gap(skew, x_o, np.zeros(2), D)
        closed_form = D * np.linalg.norm(skew.payload["A"].T @ x_o)
        skew_err = abs(est.value - closed_form)
        elapsed = time.perf_counter() - t0
        ok = worst_grid <= 1e-3 and skew_err <= 1e-6 and elapsed < 30
        _report(8, ok, f"max |exact - grid|={worst_grid:.2e} <= 1e-3, "
                       f"skew error={skew_err:.2e} <= 1e-6, "
                       f"{elapsed:.1f}s < 30s")

    def test_criterion_9_lsgd_divergence_witness(self):
        """Plain local SGD on a rotation grows by sqrt(1.25) each step."""
        t0 = time.perf_counter()
        op = make_test_problem("skew", 2)
        cfg = RunConfig(M=1, K=1, R=100, eta=0.5, z0=np.array([1.0, 0.0]),
                        log_every=1)
        traj = run_lsgd(OracleSpec(base=op), cfg)
        factor = math.sqrt(1.25)
        norms = [1.0] + [float(np.linalg.norm(r.mean_iterate))
                         for r in traj.records]
        rel_errs = [abs(b / a - factor) / factor
                    for a, b in zip(norms, norms[1:])]
        elapsed = time.perf_counter() - t0
        ok = max(rel_errs) <= 1e-12 and len(rel_errs) == 100 and elapsed < 1
        _report(9, ok, f"100 steps, max relative factor error "
                       f"{max(rel_errs):.2e} <= 1e-12, {elapsed:.2f}s < 1s")

    def test_criterion_10_determinism_across_workers(self, config1_rows,
                                                     config2_rows):
        """Acceptance configs 1 and 2 yield byte-identical CSVs with 1 or 8
        workers."""
        t0 = time.perf_counter()
        same = rows_to_csv(config1_rows[0]) == rows_to_csv(
            run_experiment(CONFIG_1, workers=8))
        for M, cfg in _configs_2().items():
            same &= rows_to_csv(config2_rows[0][M]) == rows_to_csv(
                run_experiment(cfg, workers=8))
        elapsed = time.perf_counter() - t0
        _report(10, same, f"CSV bytes identical for workers in {{1,8}} "
                          f"across both configs, {elapsed:.0f}s")
