"""Restricted and composite gap evaluators, drift stats, and the
extra-gradient co-coercivity check."""

import numpy as np
import pytest

from fedvi import gaps
from fedvi.gaps import (_multistart_ascent, check_eg_cocoercivity,
                        composite_gap, dispersion, exact_prox_point,
                        restricted_gap)
from fedvi.operators import affine_operator, eval_operator, make_test_problem
from fedvi.regularizers import RegularizerSpec, ZERO_REG, prox
from gap_reference import grid_oracle, reference_multistart


class TestBatchedAscent:
    @pytest.mark.parametrize("d", [3, 20])
    def test_restricted_matches_per_start_loop(self, d, monkeypatch):
        monkeypatch.setattr(gaps, "ASCENT_SEED", 3)
        op = make_test_problem("bounded-nonlinear", d, seed=6)
        rng = np.random.default_rng(d)
        x_o, center = rng.standard_normal(d), 0.3 * rng.standard_normal(d)
        est = restricted_gap(op, x_o, center, 2.0)
        value, z = reference_multistart(op, x_o, center, 2.0, seed=3)
        assert est.value == pytest.approx(value, rel=1e-9)
        np.testing.assert_allclose(est.maximizer, z, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("reg", [
        RegularizerSpec(kind="l1", lam=0.05),
        RegularizerSpec(kind="box-indicator", lo=[-0.6] * 8, hi=[0.6] * 8),
    ], ids=["l1", "box"])
    def test_composite_matches_per_start_loop(self, reg, monkeypatch):
        monkeypatch.setattr(gaps, "ASCENT_SEED", 1)
        op = make_test_problem("bilinear-saddle", 8, {"b_scale": 0.1}, seed=21)
        v_o = 0.2 * np.random.default_rng(5).standard_normal(8)
        # D = 1 cuts the box's corners, so both projections are active
        est = composite_gap(op, reg, v_o, np.zeros(8), 1.0)
        value, z = reference_multistart(op, v_o, np.zeros(8), 1.0, reg=reg,
                                        seed=1)
        assert est.value == pytest.approx(value, rel=1e-9)
        np.testing.assert_allclose(est.maximizer, z, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("d", [3, 20])
    def test_starts_do_not_depend_on_batch_size(self, d):
        op = make_test_problem("bounded-nonlinear", d, seed=6)
        x_o = np.random.default_rng(0).standard_normal(d)
        center = np.zeros(d)
        few, few_vals = _multistart_ascent(op, x_o, center, 2.0, 2, 120, 4)
        many, many_vals = _multistart_ascent(op, x_o, center, 2.0, 16, 120, 4)
        np.testing.assert_array_equal(few, many[:2])
        np.testing.assert_array_equal(few_vals, many_vals[:2])

class TestRestrictedGap:
    def test_zero_operator_gives_zero(self):
        op = affine_operator(np.zeros((2, 2)), np.zeros(2))
        est = restricted_gap(op, np.array([0.3, -0.7]), np.zeros(2), 1.0)
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert est.certified and est.method == "exact-concave"

    def test_identity_operator_at_origin(self):
        """sup <z, -z> over the unit ball is 0, at z* = 0."""
        op = affine_operator(np.eye(2), np.zeros(2))
        est = restricted_gap(op, np.zeros(2), np.zeros(2), 1.0)
        assert est.value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(est.maximizer, 0.0, atol=1e-9)

    def test_skew_closed_form(self):
        """For a rotation field the objective is linear: max = D ||J' x_o||."""
        op = make_test_problem("skew", 2)
        x_o = np.array([1.0, 0.0])
        est = restricted_gap(op, x_o, np.zeros(2), 1.0)
        J = op.payload["A"]
        assert est.value == pytest.approx(np.linalg.norm(J.T @ x_o), abs=1e-12)
        assert est.value == pytest.approx(grid_oracle(op, x_o, np.zeros(2), 1.0),
                                          abs=1e-3)

    def test_exact_concave_matches_grid_on_random_instances(self):
        rng = np.random.default_rng(0)
        for i in range(5):
            op = make_test_problem("affine", 2, {"L": 1.0, "mu": 0.05},
                                   seed=100 + i)
            x_o = rng.standard_normal(2)
            center = rng.standard_normal(2) * 0.5
            D = 1.5
            est = restricted_gap(op, x_o, center, D)
            assert est.certified
            assert est.value == pytest.approx(
                grid_oracle(op, x_o, center, D), abs=1e-3)

    def test_value_recomputes_at_maximizer(self):
        op = make_test_problem("affine", 6, seed=3)
        x_o = np.random.default_rng(1).standard_normal(6)
        est = restricted_gap(op, x_o, np.zeros(6), 2.0)
        recomputed = float(eval_operator(op, est.maximizer) @ (x_o - est.maximizer))
        assert abs(est.value - recomputed) <= 1e-10
        assert np.linalg.norm(est.maximizer) <= 2.0 * (1 + 1e-9)

    def test_translation_consistency(self):
        """Shifting operator, candidate, and center together is a no-op."""
        op = make_test_problem("affine", 4, seed=5)
        A, b = op.payload["A"], op.payload["b"]
        rng = np.random.default_rng(2)
        x_o, center, shift = rng.standard_normal((3, 4))
        base = restricted_gap(op, x_o, center, 1.5).value
        shifted_op = affine_operator(A, b - A @ shift)  # V'(z) = V(z - s)
        shifted = restricted_gap(shifted_op, x_o + shift, center + shift,
                                 1.5).value
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_multistart_lower_bound_monotone_in_starts(self):
        op = make_test_problem("bounded-nonlinear", 3, seed=6)
        x_o = np.array([0.5, -0.2, 0.8])
        values = [_multistart_ascent(op, x_o, np.zeros(3), 2.0, n, 120,
                                     4)[1].max() for n in (2, 4, 8, 16)]
        # the first n starts do not depend on how many run beside them
        assert all(a <= b for a, b in zip(values, values[1:]))
        est = restricted_gap(op, x_o, np.zeros(3), 2.0)
        assert not est.certified and est.method == "multistart-ascent"

    def test_rejects_bad_inputs(self):
        op = make_test_problem("affine", 2, seed=0)
        with pytest.raises(ValueError):
            restricted_gap(op, np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            restricted_gap(op, np.zeros(2), np.zeros(2), 1.0, method="magic")
        nonaffine = make_test_problem("bounded-nonlinear", 2, seed=0)
        with pytest.raises(ValueError, match="affine"):
            restricted_gap(nonaffine, np.zeros(2), np.zeros(2), 1.0,
                           method="exact-concave")


class TestCompositeGap:
    def test_zero_regularizer_reduces_exactly(self):
        op = make_test_problem("affine", 3, seed=8)
        v_o = np.array([0.2, -0.4, 0.9])
        a = composite_gap(op, ZERO_REG, v_o, np.zeros(3), 1.2)
        b = restricted_gap(op, v_o, np.zeros(3), 1.2)
        assert a.value == b.value and a.method == b.method

    def test_l1_with_zero_operator(self):
        """sup of phi(v_o) - phi(z) over the unit ball is phi(v_o)."""
        op = affine_operator(np.zeros((2, 2)), np.zeros(2))
        reg = RegularizerSpec(kind="l1", lam=1.0)
        est = composite_gap(op, reg, np.array([0.5, 0.0]), np.zeros(2), 1.0)
        assert est.value == pytest.approx(0.5, abs=1e-6)

    def test_gap_near_zero_at_composite_solution_l1(self):
        """V = grad of 0.5||z-a||^2 with l1: solution is soft(a, lam)."""
        a_vec = np.array([1.2, -0.3, 0.05, 0.0])
        op = affine_operator(np.eye(4), -a_vec, kind="quadratic-gradient")
        lam = 0.2
        reg = RegularizerSpec(kind="l1", lam=lam)
        v_star = prox(reg, a_vec, 1.0)
        est = composite_gap(op, reg, v_star, np.zeros(4), 2.0)
        assert abs(est.value) <= 1e-6

    def test_gap_near_zero_at_composite_solution_box(self):
        """Bilinear saddle with an interior solution and box indicator."""
        B = np.array([[1.0, 0.3], [-0.2, 0.8]])
        c, e = np.array([0.2, -0.1]), np.array([0.1, 0.3])
        A = np.block([[np.zeros((2, 2)), B], [-B.T, np.zeros((2, 2))]])
        op = affine_operator(A, np.concatenate([c, e]),
                             kind="bilinear-saddle")
        sol = op.solution
        assert np.abs(sol).max() < 1.0
        reg = RegularizerSpec(kind="box-indicator", lo=[-1.0] * 4,
                              hi=[1.0] * 4)
        est = composite_gap(op, reg, sol, np.zeros(4), 2.0)
        assert abs(est.value) <= 1e-6

    def test_infeasible_ball_rejected(self):
        op = make_test_problem("affine", 2, seed=0)
        reg = RegularizerSpec(kind="box-indicator", lo=[10.0, 10.0],
                              hi=[11.0, 11.0])
        with pytest.raises(ValueError, match="infinite"):
            composite_gap(op, reg, np.zeros(2), np.zeros(2), 1.0)


class TestExactProxPoint:
    def test_zero_operator(self):
        op = affine_operator(np.zeros((2, 2)), np.zeros(2))
        z = np.array([1.0, 2.0])
        np.testing.assert_array_equal(exact_prox_point(op, z, 0.5), z)

    def test_identity_halves(self):
        op = affine_operator(np.eye(2), np.zeros(2))
        np.testing.assert_allclose(
            exact_prox_point(op, np.array([2.0, 2.0]), 1.0), [1.0, 1.0])

    def test_residual_is_the_oracle(self):
        op = make_test_problem("affine", 5, seed=10)
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = rng.standard_normal(5) * 3
            x = exact_prox_point(op, z, 0.7)
            res = np.linalg.norm(x + 0.7 * eval_operator(op, x) - z)
            assert res <= 1e-10 * (1 + np.linalg.norm(z))

    def test_non_affine_rejected(self):
        op = make_test_problem("bounded-nonlinear", 3, seed=0)
        with pytest.raises(ValueError, match="affine"):
            exact_prox_point(op, np.zeros(3), 0.5)


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


class TestEgCocoercivity:
    def test_identity_at_eta_one_is_degenerate_equality(self):
        op = affine_operator(np.eye(3), np.zeros(3))
        report = check_eg_cocoercivity(op, 1.0, n_pairs=2000, seed=0)
        assert report.violations == 0

    def test_skew_at_eta_one(self):
        op = make_test_problem("skew", 2)
        report = check_eg_cocoercivity(op, 1.0, n_pairs=10_000, seed=1)
        assert report.violations == 0
        assert report.max_violation <= 1e-9 * 3  # scaled tolerance bound

    def test_random_monotone_at_half_step(self):
        op = make_test_problem("affine", 6, seed=11)
        report = check_eg_cocoercivity(op, 0.5 / op.L, n_pairs=10_000, seed=2)
        assert report.violations == 0

    def test_eta_above_limit_rejected(self):
        op = make_test_problem("affine", 3, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            check_eg_cocoercivity(op, 2.0 / op.L)

    def test_non_affine_rejected(self):
        op = make_test_problem("bounded-nonlinear", 3, seed=0)
        with pytest.raises(ValueError, match="affine"):
            check_eg_cocoercivity(op, 0.1)
