"""Operator evaluation, the problem zoo, and empirical property checks."""

import math

import numpy as np
import pytest

from fedvi.operators import (KINDS, PARAMS, OperatorSpec, affine_operator,
                             eval_operator, load_affine_text,
                             make_test_problem, op_jacobian, op_value_vjp,
                             operator_bound_on_ball, verify_properties)

# One bad value per case; each must be rejected naming its param.
BAD_PARAMS = [
    ("affine", 3, {"L": "2"}),
    ("affine", 3, {"mu": True}),
    ("affine", 3, {"mu": 2.0}),
    ("affine", 1, {"mu": 0}),
    ("affine", 3, {"b_scale": math.inf}),
    ("affine", 3, {"skew": math.nan}),
    ("skew", 2, {"L": -1}),
    ("bilinear-saddle", 4, {"L": 0}),
    ("bilinear-saddle", 4, {"dx": 4}),
    ("bilinear-saddle", 4, {"b_scale": 10 ** 400}),
    ("bounded-nonlinear", 3, {"L": -1}),
    ("bounded-nonlinear", 3, {"L": math.nan}),
    ("bounded-nonlinear", 3, {"bias_scale": None}),
    ("quadratic-gradient", 3, {"eig_range": ["a", 1]}),
    ("quadratic-gradient", 3, {"eig_range": [0.1, math.inf]}),
    ("quadratic-gradient", 3, {"eig_range": [1.0, 0.1]}),
    ("quadratic-gradient", 3, {"eig_range": [0.1]}),
]

ZOO = [
    make_test_problem("affine", 6, {"L": 1.0}, seed=0),
    make_test_problem("affine", 4, {"L": 2.0, "mu": 0.0, "skew": 2.0}, seed=1),
    make_test_problem("skew", 2, seed=2),
    make_test_problem("bilinear-saddle", 6, {"L": 1.5}, seed=3),
    make_test_problem("quadratic-gradient", 5, {"eig_range": [0.1, 1.0]}, seed=4),
    make_test_problem("bounded-nonlinear", 4, {"L": 1.0}, seed=5),
]


class TestEvalOperator:
    def test_identity_affine(self):
        op = affine_operator(np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(
            eval_operator(op, np.array([1.0, 2.0])), [1.0, 2.0])

    def test_skew_rule(self):
        op = make_test_problem("skew", 2)
        np.testing.assert_array_equal(
            eval_operator(op, np.array([3.0, 0.0])), [0.0, -3.0])

    def test_dimension_mismatch_rejected(self):
        op = make_test_problem("affine", 3)
        with pytest.raises(ValueError, match="dimension"):
            eval_operator(op, np.zeros(4))

    def test_batched_evaluation_matches_loop(self):
        op = make_test_problem("bounded-nonlinear", 3, seed=7)
        z = np.random.default_rng(0).standard_normal((20, 3))
        batched = eval_operator(op, z)
        looped = np.stack([eval_operator(op, zi) for zi in z])
        np.testing.assert_allclose(batched, looped, atol=1e-14)


class TestOpValueVjp:
    KINDS = [make_test_problem("affine", 5, seed=1),
             make_test_problem("bilinear-saddle", 6, seed=2),
             make_test_problem("bounded-nonlinear", 4, seed=3)]

    @pytest.mark.parametrize("op", KINDS, ids=lambda op: op.kind)
    def test_single_point_matches_jacobian(self, op):
        rng = np.random.default_rng(0)
        z, w = rng.standard_normal((2, op.dim))
        V, JtW = op_value_vjp(op, z, w)
        np.testing.assert_array_equal(V, eval_operator(op, z))
        np.testing.assert_allclose(JtW, op_jacobian(op, z).T @ w,
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("op", KINDS, ids=lambda op: op.kind)
    def test_batch_matches_jacobian_per_row(self, op):
        rng = np.random.default_rng(1)
        z, w = rng.standard_normal((2, 7, op.dim))
        looped = np.stack([op_jacobian(op, zi).T @ wi for zi, wi in zip(z, w)])
        V, JtW = op_value_vjp(op, z, w)
        np.testing.assert_array_equal(V, eval_operator(op, z))
        np.testing.assert_allclose(JtW, looped, rtol=1e-12, atol=0)

    def test_dimension_mismatch_rejected(self):
        op = make_test_problem("bounded-nonlinear", 3, seed=0)
        with pytest.raises(ValueError, match="dimension"):
            op_value_vjp(op, np.zeros(4), np.zeros(3))


class TestMakeTestProblem:
    def test_skew_has_zero_inner_product(self):
        op = make_test_problem("skew", 2)
        rng = np.random.default_rng(0)
        for _ in range(100):
            z = rng.standard_normal(2)
            assert abs(eval_operator(op, z) @ z) < 1e-12
        assert op.L == 1.0

    def test_bilinear_identity_coupling_solves_at_origin(self):
        B = np.eye(2)
        A = np.block([[np.zeros((2, 2)), B], [-B.T, np.zeros((2, 2))]])
        op = affine_operator(A, np.zeros(4), kind="bilinear-saddle")
        np.testing.assert_allclose(op.solution, np.zeros(4), atol=1e-12)

    def test_bilinear_known_solution(self):
        op = make_test_problem("bilinear-saddle", 6, {"L": 1.5}, seed=3)
        sol = op.solution
        assert sol is not None
        np.testing.assert_allclose(eval_operator(op, sol), 0.0, atol=1e-10)

    def test_quadratic_measured_constants(self):
        """Top Hessian eigenvalue is both L and the co-coercivity constant."""
        op = make_test_problem("quadratic-gradient", 5,
                               {"eig_range": [0.1, 1.0]}, seed=4)
        report = verify_properties(op, n_pairs=10_000, domain_radius=10.0,
                                   seed=1)
        assert 0.99 <= report.measured_L <= 1.01
        assert report.measured_L <= 1.02 * op.L
        assert report.measured_beta <= op.beta * (1 + 1e-6)
        assert np.isfinite(report.measured_beta)

    def test_beta_is_an_unknown_param(self):
        """op.beta is exact from the spectrum; no param requests it."""
        with pytest.raises(ValueError, match=r"unknown params for kind "
                           r"'quadratic-gradient': \['beta'\]"):
            make_test_problem("quadratic-gradient", 4,
                              {"eig_range": [0.1, 1.0], "beta": 5})

    @pytest.mark.parametrize("kind,dim,params", BAD_PARAMS,
                             ids=[f"{k}-{next(iter(p))}"
                                  for k, _, p in BAD_PARAMS])
    def test_bad_param_rejected_by_name(self, kind, dim, params):
        (name,) = params
        with pytest.raises(ValueError, match=f"^{name} must be "):
            make_test_problem(kind, dim, params)

    @pytest.mark.parametrize("kind", KINDS)
    def test_defaults_are_the_table(self, kind):
        """Every PARAMS default given explicitly, the derived ones at
        L = 1 and dim 4, builds the operator of no params, bit for bit."""
        derived = {"mu": 0.1, "dx": 2, "n_terms": 8}
        given = {name: derived[name] if default is None else default
                 for name, default in PARAMS[kind].items()}
        a = make_test_problem(kind, 4, seed=3)
        b = make_test_problem(kind, 4, given, seed=3)
        assert a.payload.keys() == b.payload.keys()
        for key in a.payload:
            np.testing.assert_array_equal(a.payload[key], b.payload[key])
        assert (a.L, a.G, a.beta, a.Lambda) == (b.L, b.G, b.beta, b.Lambda)

    def test_affine_lambda_is_exactly_zero(self):
        for op in ZOO[:5]:
            assert op.is_affine
            assert op.Lambda == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_test_problem("mystery", 3)

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown params"):
            make_test_problem("skew", 2, {"frequency": 3})

    def test_bounded_nonlinear_second_order_bound(self):
        """The declared Lambda dominates the Taylor remainder of V."""
        op = make_test_problem("bounded-nonlinear", 4, {"L": 1.0}, seed=5)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(300):
            x, y = rng.standard_normal((2, 4)) * 2
            rem = np.linalg.norm(eval_operator(op, x) - eval_operator(op, y)
                                 - op_jacobian(op, y) @ (x - y))
            worst = max(worst, rem / np.linalg.norm(x - y) ** 2)
        assert worst <= op.Lambda * (1 + 1e-9)

    def test_bounded_nonlinear_norm_bound(self):
        op = make_test_problem("bounded-nonlinear", 4, {"L": 1.0}, seed=5)
        rng = np.random.default_rng(4)
        z = rng.standard_normal((2000, 4)) * 50
        norms = np.linalg.norm(eval_operator(op, z), axis=1)
        assert norms.max() <= op.G


class TestVerifyProperties:
    @pytest.mark.parametrize("op", ZOO, ids=lambda o: o.kind)
    def test_zoo_monotone_and_smooth(self, op):
        report = verify_properties(op, n_pairs=10_000, domain_radius=10.0,
                                   seed=0)
        assert report.monotone_violations == 0
        assert report.measured_L <= op.L * (1 + 1e-6)
        assert report.pairs_tested == 10_000

    def test_skew_beta_is_infinite(self):
        """||V(z)-V(z')||^2 = ||z-z'||^2 while the inner product is 0."""
        op = make_test_problem("skew", 2)
        z, zp = np.array([1.0, 0.0]), np.zeros(2)
        dv = eval_operator(op, z) - eval_operator(op, zp)
        assert abs(dv @ (z - zp)) < 1e-15
        assert np.linalg.norm(dv) ** 2 == 1.0
        report = verify_properties(op, n_pairs=1000, domain_radius=5.0, seed=0)
        assert report.measured_beta == np.inf

    def test_affine_monotone_zero_violations(self):
        op = make_test_problem("affine", 8, {"L": 1.0, "mu": 0.0}, seed=9)
        report = verify_properties(op, n_pairs=10_000, domain_radius=10.0,
                                   seed=2)
        assert report.monotone_violations == 0

    def test_non_monotone_affine_rejected_at_construction(self):
        with pytest.raises(ValueError, match="monotone"):
            affine_operator(-np.eye(2), np.zeros(2))

    def test_kind_decides_affinity(self):
        """A spec built by hand is affine exactly when its kind is."""
        A, b = np.array([[1.0, 1.0], [-1.0, 1.0]]), np.array([0.5, 0.0])
        op = OperatorSpec(dim=2, kind="affine", payload={"A": A, "b": b},
                          L=float(np.linalg.norm(A, 2)))
        assert op.is_affine
        np.testing.assert_array_equal(eval_operator(op, np.ones(2)),
                                      [2.5, 0.0])
        with pytest.raises(ValueError, match="not affine"):
            affine_operator(A, b, kind="bounded-nonlinear")


class TestBoundOnBall:
    def test_declared_bound_wins(self):
        op = make_test_problem("bounded-nonlinear", 4, seed=5)
        assert operator_bound_on_ball(op, np.zeros(4), 100.0) == op.G

    def test_affine_bound_dominates_samples(self):
        op = make_test_problem("affine", 5, seed=0)
        radius = 8.0
        bound = operator_bound_on_ball(op, np.zeros(5), radius)
        rng = np.random.default_rng(7)
        u = rng.standard_normal((2000, 5))
        u = u / np.linalg.norm(u, axis=1, keepdims=True) * radius
        assert np.linalg.norm(eval_operator(op, u), axis=1).max() <= bound


class TestMatrixFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "mat.txt"
        path.write_text("2\n1.0 0.5\n-0.5 1.0\n0.25 -1.5\n")
        op = load_affine_text(path)
        assert op.dim == 2
        np.testing.assert_array_equal(op.payload["A"], [[1.0, 0.5], [-0.5, 1.0]])
        np.testing.assert_array_equal(op.payload["b"], [0.25, -1.5])
        np.testing.assert_allclose(
            eval_operator(op, np.array([1.0, 1.0])), [1.75, -1.0])

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1.0 0.5\n-0.5\n")
        with pytest.raises(ValueError, match="expected"):
            load_affine_text(path)
