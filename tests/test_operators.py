"""Operator evaluation, the problem zoo, and empirical property checks."""

import math

import numpy as np
import pytest

from fedvi import operators
from fedvi.operators import (KINDS, PARAMS, VERIFY_PAIRS, OperatorSpec,
                             affine_operator, eval_operator, load_affine_text,
                             make_test_problem, op_jacobian, op_value_vjp,
                             operator_bound_on_ball, verify_properties)
from fedvi.oracles import OracleSpec, sample_oracle

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


def _payload_value(op, z):
    """V(z) straight from the payload, the formulas of the zoo kinds."""
    if op.kind == "bounded-nonlinear":
        C, b0 = op.payload["C"], op.payload["b0"]
        return np.tanh(z @ C.T + b0) @ C
    return z @ op.payload["A"].T + op.payload["b"]


def _payload_vjp(op, z, w):
    """J(z)^T w straight from the payload."""
    if op.kind == "bounded-nonlinear":
        C, b0 = op.payload["C"], op.payload["b0"]
        return ((w @ C.T) / np.cosh(z @ C.T + b0) ** 2) @ C
    return w @ op.payload["A"]


class TestEvalParts:
    """Evaluations read each operator's parts once, with the payload
    formulas' bits on every input shape."""

    SHAPES = [(5,), (1, 5), (4, 5), (3, 1, 5)]

    @staticmethod
    def _point(shape, seed):
        return np.random.default_rng(seed).standard_normal(shape) * 3.0

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("kind", KINDS)
    def test_eval_and_vjp_equal_the_payload_formulas_bitwise(self, kind,
                                                             shape):
        op = make_test_problem(kind, 5, seed=4)
        z, w = self._point(shape, 1), self._point(shape, 2)
        want = _payload_value(op, z)
        for got in (eval_operator(op, z), op_value_vjp(op, z, w)[0]):
            assert got.shape == want.shape == shape
            assert got.tobytes() == want.tobytes()
        assert op_value_vjp(op, z, w)[1].tobytes() == \
            _payload_vjp(op, z, w).tobytes()

    @pytest.mark.parametrize("shape", SHAPES[:3], ids=str)
    @pytest.mark.parametrize("kind", KINDS)
    def test_exact_oracle_equals_the_payload_formula_bitwise(self, kind,
                                                             shape):
        """sample_oracle evaluates a point as it is, one row as a point,
        and a stack row by row as (1, d) products."""
        op = make_test_problem(kind, 5, seed=4)
        z = self._point(shape, 3)
        if len(shape) == 1:
            want = _payload_value(op, z)
        elif shape[0] == 1:
            want = _payload_value(op, z[0])[None]
        else:
            want = _payload_value(op, z[:, None, :]).reshape(shape)
        got = sample_oracle(OracleSpec(base=op, noise_model="none"), z)
        assert got.shape == shape
        assert got.tobytes() == want.tobytes()

    def test_parts_are_read_once(self):
        op = make_test_problem("bounded-nonlinear", 3, seed=0)
        assert op.eval_parts is op.eval_parts
        Ct, b0, C = op.eval_parts
        assert Ct.base is op.payload["C"] and C is op.payload["C"]
        assert b0 is op.payload["b0"]
        assert make_test_problem("skew", 2).eval_parts[2] is None


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
        report = verify_properties(op, domain_radius=10.0)
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
        report = verify_properties(op, domain_radius=10.0)
        assert report.monotone_violations == 0
        assert report.measured_L <= op.L * (1 + 1e-6)
        assert verify_properties(op, domain_radius=10.0) == report

    def test_skew_beta_is_infinite(self):
        """||V(z)-V(z')||^2 = ||z-z'||^2 while the inner product is 0."""
        op = make_test_problem("skew", 2)
        z, zp = np.array([1.0, 0.0]), np.zeros(2)
        dv = eval_operator(op, z) - eval_operator(op, zp)
        assert abs(dv @ (z - zp)) < 1e-15
        assert np.linalg.norm(dv) ** 2 == 1.0
        report = verify_properties(op, domain_radius=5.0)
        assert report.measured_beta == np.inf

    @pytest.mark.parametrize("radius", [1e4, 1e7, 1e151])
    def test_skew_rounding_on_a_large_ball_is_no_violation(self, radius):
        """A bilinear saddle's inner products are rounding noise of size
        eps |V| |x - y|, which grows with the ball."""
        op = make_test_problem("bilinear-saddle", 3, seed=1)
        report = verify_properties(op, domain_radius=radius)
        assert report.monotone_violations == 0

    def test_measured_G_is_the_largest_sampled_norm(self):
        op = make_test_problem("bounded-nonlinear", 4, seed=5)
        report = verify_properties(op, domain_radius=3.0)
        rng = np.random.default_rng(0)
        norms = [np.linalg.norm(eval_operator(
            op, operators._sample_ball(rng, VERIFY_PAIRS, 4, 3.0)), axis=1)
            for _ in range(2)]
        assert report.measured_G == max(n.max() for n in norms)

    @pytest.mark.parametrize("radius", [1e-3, 10.0, 1e151])
    def test_negated_identity_violates_every_pair(self, radius, monkeypatch):
        """V(z) = -z: every pair is a violation, however large the ball."""
        monkeypatch.setattr(operators, "eval_operator", lambda op, z: -z)
        op = make_test_problem("affine", 4, seed=0)
        report = verify_properties(op, domain_radius=radius)
        assert report.monotone_violations == VERIFY_PAIRS

    def test_affine_monotone_zero_violations(self):
        op = make_test_problem("affine", 8, {"L": 1.0, "mu": 0.0}, seed=9)
        report = verify_properties(op, domain_radius=10.0)
        assert report.monotone_violations == 0

    def test_non_monotone_affine_rejected_at_construction(self):
        with pytest.raises(ValueError, match="monotone"):
            affine_operator(-np.eye(2), np.zeros(2))

    @pytest.mark.parametrize("A,b", [
        ([[1.0, 0.0], [0.0, math.nan]], [0.0, 0.0]),
        ([[math.inf, 0.0], [0.0, 1.0]], [0.0, 0.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [math.inf, 0.0]),
        ([[1.0, 0.0], [0.0, 1.0]], [0.0, math.nan]),
        # finite entries whose symmetric sum overflows
        ([[1e308, 1e308], [1e308, 1e308]], [0.0, 0.0]),
    ], ids=["nan-A", "inf-A", "inf-b", "nan-b", "A-plus-AT-overflows"])
    def test_non_finite_input_rejected(self, A, b):
        with pytest.raises(ValueError, match="not finite"):
            affine_operator(np.array(A), np.array(b))

    @pytest.mark.parametrize("kind,params", [
        ("affine", {"L": 1e308}),
        ("quadratic-gradient", {"eig_range": [0, 1e308]})])
    def test_zoo_matrix_past_the_float_range_rejected(self, kind, params):
        with pytest.raises(ValueError, match="not finite"), \
                np.errstate(over="ignore"):
            make_test_problem(kind, 4, params)

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

    @pytest.mark.parametrize("d", [-1, 0])
    def test_dimension_below_one_rejected(self, tmp_path, d):
        path = tmp_path / "bad.txt"
        path.write_text(f"{d}\n")
        with pytest.raises(ValueError, match=f"dimension {d} is below 1"):
            load_affine_text(path)


class TestScaleFreeDeclarations:
    """Whether an affine operator is monotone or co-coercive is a property
    of its matrix up to scale, so no unit choice may change the verdict."""

    @pytest.mark.parametrize("L", [1e6, 1e8])
    @pytest.mark.parametrize("d", [3, 10, 40])
    def test_monotone_affine_accepted_at_any_scale(self, L, d):
        for seed in range(20):
            op = make_test_problem("affine", d, {"L": L, "mu": 0}, seed)
            assert op.L == pytest.approx(L, rel=1e-12)

    @pytest.mark.parametrize("d", [4, 10])
    def test_monotone_quadratic_accepted_at_any_scale(self, d):
        for seed in range(20):
            make_test_problem("quadratic-gradient", d,
                              {"eig_range": [0, 1e8]}, seed)

    def test_monotone_matrix_file_accepted_at_any_scale(self, tmp_path):
        for seed in range(10):
            op = make_test_problem("affine", 6, {"mu": 0}, seed)
            A = op.payload["A"] * 1e8
            path = tmp_path / f"m{seed}.txt"
            path.write_text("\n".join(["6", *(" ".join(map(repr, row)) for row
                                              in [*A.tolist(), [0.0] * 6])]))
            np.testing.assert_array_equal(load_affine_text(path).payload["A"],
                                          A)

    @pytest.mark.parametrize("L", [1.0, 1e8])
    def test_non_monotone_rejected_at_any_scale(self, L):
        """A least symmetric eigenvalue of -1e-3 L is no rounding."""
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        S = (Q * np.linspace(-1e-3, 1.0, 5)) @ Q.T
        A = L * (S + operators._random_skew(rng, 5))
        with pytest.raises(ValueError, match="not monotone"):
            affine_operator(A, np.zeros(5))

    @pytest.mark.parametrize("L", [1e-8, 1e-12, 1e-300])
    def test_small_skew_is_not_cocoercive(self, L):
        assert make_test_problem("skew", 4, {"L": L}).beta == math.inf

    def test_zero_matrix_is_cocoercive(self):
        assert affine_operator(np.zeros((3, 3)), np.ones(3)).beta == 0.0


class TestMonotonicityRelativeToL:
    """The monotonicity check measures the least symmetric eigenvalue
    against the declared L = ||A||, with no floor of 1."""

    SCALES = [1e-12, 1e-8, 1e-4, 1.0, 1e4, 1e8, 1e12]

    @staticmethod
    def _parts():
        rng = np.random.default_rng(0)
        Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        S = (Q * np.array([-1e-3, 0.2, 0.5, 1.0])) @ Q.T
        K = operators._random_skew(rng, 4)
        N = rng.standard_normal((4, 4))
        return S, K, N + N.T

    @pytest.mark.parametrize("scale", SCALES)
    def test_non_monotone_refused_at_any_scale(self, scale):
        """A least symmetric eigenvalue of -1e-3 ||A|| is no rounding."""
        S, K, _ = self._parts()
        with pytest.raises(ValueError, match="not monotone"):
            affine_operator(scale * (S + K), np.zeros(4))

    @pytest.mark.parametrize("scale", SCALES)
    def test_near_skew_accepted_at_any_scale(self, scale):
        """A skew matrix plus symmetric noise of 1e-15 is monotone up to
        rounding, though its symmetric part is that noise alone."""
        _, K, N = self._parts()
        op = affine_operator(scale * (K + 1e-15 * N), np.zeros(4))
        assert op.sym_eigh[0].min() < 0
