"""Restricted and composite gap evaluators, drift stats, and the
extra-gradient co-coercivity check."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvi import gaps
from fedvi.gaps import (_certificate, _multistart_ascent, _prox_ball,
                        composite_gap, dispersion, restricted_gap)
from fedvi.harness import ExperimentConfig, build_problem
from fedvi.operators import (KINDS, affine_operator, eval_operator,
                             make_test_problem, op_value_vjp)
from fedvi.regularizers import RegularizerSpec, ZERO_REG, prox, reg_value
from gap_reference import (check_eg_cocoercivity, composite_grid_oracle,
                           exact_prox_point, grid_oracle,
                           reference_exact_concave_max, reference_multistart)
from run_reference import run_single


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
        # affine operators stop at the certificate; nonlinear ones keep
        # the multistart ascent
        monkeypatch.setattr(gaps, "ASCENT_SEED", 1)
        op = make_test_problem("bounded-nonlinear", 8, seed=21)
        v_o = 0.2 * np.random.default_rng(5).standard_normal(8)
        # D = 1 cuts the box's corners, so both projections are active
        est = composite_gap(op, reg, v_o, np.zeros(8), 1.0)
        value, z = reference_multistart(op, v_o, np.zeros(8), 1.0, reg=reg,
                                        seed=1)
        assert est.value == pytest.approx(value, rel=1e-9)
        np.testing.assert_allclose(est.maximizer, z, rtol=1e-9, atol=1e-12)
        assert not est.certified and est.method == "multistart-ascent"

    @pytest.mark.parametrize("d,D,n_iters", [
        (3, 2.0, 120), (20, 2.0, 120), (20, 1.0, gaps.ASCENT_STEPS)])
    def test_starts_do_not_depend_on_batch_size(self, d, D, n_iters,
                                                monkeypatch):
        op = make_test_problem("bounded-nonlinear", d, seed=6)
        x_o = np.random.default_rng(0).standard_normal(d)
        center = np.zeros(d)
        rows = _count_ascent_rows(monkeypatch)
        few, few_vals = _multistart_ascent(op, x_o, center, D, 2, n_iters, 4)
        rows.clear()
        many, many_vals = _multistart_ascent(op, x_o, center, D, 16, n_iters,
                                             4)
        np.testing.assert_array_equal(few, many[:2])
        np.testing.assert_array_equal(few_vals, many_vals[:2])
        if n_iters == gaps.ASCENT_STEPS:
            # the starts stop one by one, all before the last step: the
            # stepped stack shrinks through several heights
            assert len(set(rows[1:])) >= 3 and len(rows) - 1 < n_iters


def _count_ascent_rows(monkeypatch) -> list[int]:
    """Record the rows of each gradient call of the ascent: the probe
    first, then one call per step of the starts still moving."""
    rows = []

    def counted(op, Z, W):
        rows.append(Z.shape[0])
        return op_value_vjp(op, Z, W)
    monkeypatch.setattr(gaps, "op_value_vjp", counted)
    return rows


@pytest.fixture(scope="module")
def lippax_outputs():
    """The gap inputs of the nonlinear-lippax benchmark shape: LIPPAX T3's
    last output on bounded-nonlinear d=20, ball of radius 1 at 0."""
    out = []
    for seed in (1, 2, 3):
        cfg = ExperimentConfig.from_dict({
            "problem": {"kind": "bounded-nonlinear", "dim": 20, "seed": seed},
            "algorithm": {"id": "lippax", "schedule": "T3"},
            "federation": {"M": 4, "K": 8, "R": 20},
            "noise": {"sigma": 1.0, "model": "gaussian-isotropic"},
            "gap": {"D": 1.0}, "seeds": [seed], "log_every": 20})
        x_o = run_single(cfg).records[-1].output_avg
        out.append((build_problem(cfg), x_o))
    return out


class TestAscentStop:
    def test_stops_within_150_steps_on_the_benchmark_shape(
            self, lippax_outputs, monkeypatch):
        rows = _count_ascent_rows(monkeypatch)
        for op, x_o in lippax_outputs:
            rows.clear()
            restricted_gap(op, x_o, np.zeros(20), 1.0)
            assert len(rows) - 1 <= 150

    @pytest.mark.parametrize("D", [1.0, 5.0])
    def test_stopped_value_matches_the_full_ascent(self, lippax_outputs, D):
        for op, x_o in lippax_outputs:
            est = restricted_gap(op, x_o, np.zeros(20), D)
            value, _ = reference_multistart(op, x_o, np.zeros(20), D)
            assert est.value == pytest.approx(value, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_gap_lies_below_the_monotone_merit(self, kind):
        """sup <V(z), x_o - z> <= <V(x_o), x_o - c> + D ||V(x_o)|| by
        monotonicity (Nesterov's dual-extrapolation merit): no ascent,
        stopped early or not, may report more."""
        rng = np.random.default_rng(KINDS.index(kind))
        for d in (4, 10, 20):
            op = make_test_problem(kind, d, seed=d)
            for D in (0.5, 1.0, 5.0):
                center = 0.5 * rng.standard_normal(d)
                x_o = rng.standard_normal(d)
                value = restricted_gap(op, x_o, center, D).value
                merit, _ = _certificate(op, ZERO_REG, x_o, center, D, z=x_o)
                assert value <= merit + 1e-12 * (1.0 + abs(value)), (d, D)

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

    @pytest.mark.parametrize("kind,mu,d,sides", [
        *[("affine", 0.1, d, {"interior", "boundary"}) for d in (1, 2, 10, 40)],
        *[("affine", 0.0, d, {"boundary"}) for d in (2, 10, 40)],
        ("skew", None, 1, {"interior"}),
        *[("skew", None, d, {"boundary"}) for d in (2, 10, 40)]])
    def test_exact_solve_matches_norm_reference_bitwise(self, kind, mu, d,
                                                        sides):
        """Interior and boundary maximizers and zero eigenvalues of the
        symmetric part: mu = 0 has one, a skew field only zeros (d = 1
        is the zero field, whose maximizer is the center)."""
        rng = np.random.default_rng(d)
        seen = set()
        for seed in range(6):
            op = make_test_problem(kind, d, {} if mu is None else {"mu": mu},
                                   seed=seed)
            x_o, center = rng.standard_normal((2, d))
            for D in (0.05, 1.0, 1e3):
                want, side = reference_exact_concave_max(op, x_o, center, D)
                got = gaps._exact_concave_max(op, x_o, center, D)
                assert np.array_equal(got, want), (seed, D, side)
                seen.add(side)
        assert seen == sides

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


def _random_box(rng, d):
    return RegularizerSpec(kind="box-indicator",
                           lo=list(-rng.uniform(0.2, 1.0, d)),
                           hi=list(rng.uniform(0.2, 1.0, d)))


def _random_reg(rng, d, kind):
    if kind == "l1":
        return RegularizerSpec(kind="l1", lam=rng.uniform(0.0, 0.5))
    return _random_box(rng, d)


def _in_dom(reg, y):
    return reg.kind == "l1" or bool(np.all((y >= reg.lo) & (y <= reg.hi)))


def _prox_ball_1(reg, u, step, center, D):
    return _prox_ball(reg, u[None, None], step, center, D)[0, 0]


KINDS_AND_STEPS = pytest.mark.parametrize("kind,step", [
    ("box-indicator", 0.0), ("box-indicator", 0.7), ("l1", 0.0), ("l1", 0.7)],
    ids=["box-step0", "box-step", "l1-step0", "l1-step"])


class TestProxBall:
    """_prox_ball: argmin (1/2)||y - u||^2 + step phi(y) over the ball and
    dom phi; step 0 is the nearest point of the two."""

    @KINDS_AND_STEPS
    @pytest.mark.parametrize("d", [2, 5, 8])
    def test_lies_in_both_sets(self, d, kind, step):
        rng = np.random.default_rng(d)
        for _ in range(50):
            reg = _random_reg(rng, d, kind)
            center = 0.5 * rng.standard_normal(d)
            if kind != "l1":
                center = np.clip(center, reg.lo, reg.hi)
            D = rng.uniform(0.1, 1.5)
            y = _prox_ball_1(reg, 3.0 * rng.standard_normal(d), step, center,
                             D)
            assert _in_dom(reg, y) and np.linalg.norm(y - center) <= D

    @pytest.mark.parametrize("step", [0.0, 0.7])
    def test_centre_outside_the_box(self, step):
        """The ball meets the box, but its centre lies outside it."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            reg = _random_box(rng, 3)
            center = np.array([1.5, -1.2, 0.1]) + 0.2 * rng.standard_normal(3)
            D = (np.linalg.norm(np.clip(center, reg.lo, reg.hi) - center)
                 + rng.uniform(0.0, 0.8))
            y = _prox_ball_1(reg, 3.0 * rng.standard_normal(3), step, center,
                             D)
            assert _in_dom(reg, y) and np.linalg.norm(y - center) <= D

    @KINDS_AND_STEPS
    def test_matches_brute_force_minimum_in_2d(self, kind, step):
        rng = np.random.default_rng(7)
        axis = np.linspace(-1.0, 1.0, 701)
        disk = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        disk = disk[np.linalg.norm(disk, axis=1) <= 1.0]
        for _ in range(30):
            reg = _random_reg(rng, 2, kind)
            center = 0.5 * rng.standard_normal(2)
            if kind != "l1":
                center = np.clip(center, reg.lo, reg.hi)
            D = rng.uniform(0.1, 1.0)
            u = 2.0 * rng.standard_normal(2)
            y = _prox_ball_1(reg, u, step, center, D)
            grid = center + D * disk
            if kind == "l1":
                phi = reg.lam * np.abs(grid).sum(axis=1)
            else:
                grid = grid[((grid >= reg.lo) & (grid <= reg.hi)).all(axis=1)]
                phi = np.zeros(len(grid))
            objective = 0.5 * ((grid - u) ** 2).sum(axis=1) + step * phi
            at_y = 0.5 * (y - u) @ (y - u) + step * reg_value(reg, y)
            assert at_y <= objective.min() + 1e-12
            # the prox of a convex function on a convex set:
            # <u - y, x - y> <= step (phi(x) - phi(y)) for every feasible x
            assert ((grid - y) @ (u - y)
                    - step * (phi - reg_value(reg, y))).max() <= 1e-12

    @KINDS_AND_STEPS
    def test_rows_do_not_depend_on_the_stack(self, kind, step):
        """The ascent steps any subset of its starts as one stack."""
        rng = np.random.default_rng(3)
        reg = _random_reg(rng, 8, kind)
        center = 0.3 * rng.standard_normal(8)
        if kind != "l1":
            center = np.clip(center, reg.lo, reg.hi)
        U = center + rng.standard_normal((20, 1, 8))
        stacked = _prox_ball(reg, U, step, center, 1.5)
        for u, y in zip(U, stacked):
            np.testing.assert_array_equal(
                _prox_ball(reg, u[None], step, center, 1.5), y[None])

    @pytest.mark.parametrize("reg", [
        RegularizerSpec(kind="box-indicator", lo=[-1.0] * 3, hi=[1.0] * 3),
        RegularizerSpec(kind="l1", lam=0.3)], ids=["box", "l1"])
    def test_feasible_point_is_kept(self, reg):
        p = np.array([0.2, -0.4, 0.1])
        np.testing.assert_array_equal(
            _prox_ball_1(reg, p, 0.0, np.zeros(3), 1.0), p)


AFFINE_KINDS = [("affine", {"mu": 0.0}), ("affine", {"mu": 0.05}),
                ("affine", {"mu": 0.3}), ("skew", {}),
                ("bilinear-saddle", {"b_scale": 0.3}),
                ("quadratic-gradient", {})]


def _composite_instance(seed, d=2, off_centre=True):
    """An affine monotone operator, an l1 or asymmetric box phi, and a
    ball, centred off 0 or at 0."""
    rng = np.random.default_rng(seed)
    kind, params = AFFINE_KINDS[seed % len(AFFINE_KINDS)]
    op = make_test_problem(kind, d, params, seed=seed)
    center, v_o = 0.3 * rng.standard_normal(d), rng.standard_normal(d)
    if not off_centre:
        center = np.zeros(d)
    D = rng.uniform(0.5, 2.0)
    if seed % 2:
        reg = RegularizerSpec(kind="l1", lam=rng.uniform(0.0, 0.5))
    else:
        reg = _random_box(rng, d)
        center = np.clip(center, reg.lo, reg.hi)
        v_o = np.clip(v_o, reg.lo, reg.hi)
    return op, reg, v_o, center, D


# Seeds of _composite_instance whose single start is still creeping
# after ASCENT_STEPS steps (d = 2, mu = 0, box): a zero eigenvalue of the
# symmetric part leaves a direction with no curvature, along which the
# 1/(2L) step advances by step * slope.  They certify within 5,000 steps
# (test_flat_direction_certifies_with_more_steps).  Every other seed in
# 0..10,000, at d = 2 and 8, centred or not, certifies.
FLAT_SEEDS = (552, 3504, 7590)
SEEDS = st.integers(0, 10_000).filter(lambda seed: seed not in FLAT_SEEDS)


class TestCertificate:
    @settings(max_examples=40, deadline=None)
    @given(SEEDS)
    def test_certified_value_matches_the_grid(self, seed):
        op, reg, v_o, center, D = _composite_instance(seed)
        est = composite_gap(op, reg, v_o, center, D)
        grid = composite_grid_oracle(op, reg, v_o, center, D)
        assert est.certified
        assert grid - 1e-7 * (1 + abs(grid)) <= est.value <= grid + 1e-3

    @settings(max_examples=200, deadline=None)
    @given(SEEDS, st.sampled_from([2, 8]), st.booleans())
    def test_every_affine_composite_gap_certifies(self, seed, d, off_centre):
        """Each ascent step is the exact prox of phi plus the ball, so the
        single start reaches the sup and its certificate closes within
        ASCENT_STEPS: l1 or an asymmetric box, centre 0 or off it."""
        est = composite_gap(*_composite_instance(seed, d, off_centre))
        assert est.certified and est.method == "certified-ascent"

    @pytest.mark.parametrize("seed", FLAT_SEEDS)
    def test_flat_direction_certifies_with_more_steps(self, seed,
                                                      monkeypatch):
        instance = _composite_instance(seed)
        assert not composite_gap(*instance).certified
        monkeypatch.setattr(gaps, "ASCENT_STEPS", 5000)
        est = composite_gap(*instance)
        grid = composite_grid_oracle(*instance)
        assert est.certified
        assert grid - 1e-7 * (1 + abs(grid)) <= est.value <= grid + 1e-3

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bound_covers_the_grid_maximum(self, seed):
        op, reg, v_o, center, D = _composite_instance(seed)
        grid = composite_grid_oracle(op, reg, v_o, center, D)
        rng = np.random.default_rng(seed)
        # any feasible linearization point gives a valid bound
        z = center + D * rng.uniform(0.0, 1.0) * np.array([0.6, -0.8])
        z = _prox_ball_1(reg, z, 0.0, center, D)
        bound, y = _certificate(op, reg, v_o, center, D, z)
        assert bound >= grid - 1e-12 * (1 + abs(grid))
        assert np.linalg.norm(y - center) <= D * (1 + 1e-12)

    def test_zero_regularizer_bound_is_the_duality_gap(self):
        """sup - g(z) <= <grad, center - z> + D ||grad|| for phi = 0."""
        op = make_test_problem("affine", 5, seed=4)
        rng = np.random.default_rng(4)
        x_o, z = rng.standard_normal((2, 5))
        A = op.payload["A"]
        grad = A.T @ (x_o - z) - eval_operator(op, z)
        bound, _ = _certificate(op, ZERO_REG, x_o, np.zeros(5), 3.0, z)
        want = (eval_operator(op, z) @ (x_o - z) + grad @ -z
                + 3.0 * np.linalg.norm(grad))
        assert bound == pytest.approx(want, rel=1e-14)

    def test_composite_lda_gaps_close_at_the_first_check(self, monkeypatch):
        op = make_test_problem("bilinear-saddle", 8, {"b_scale": 0.1},
                               seed=21)
        reg = RegularizerSpec(kind="l1", lam=0.05)
        v_o = 0.2 * np.random.default_rng(5).standard_normal(8)
        checks = []

        def counted(*args):
            checks.append(args)
            return _certificate(*args)
        monkeypatch.setattr(gaps, "_certificate", counted)
        est = composite_gap(op, reg, v_o, np.zeros(8), 2.0)
        assert est.certified and len(checks) == 1
        value, _ = reference_multistart(op, v_o, np.zeros(8), 2.0, reg=reg)
        assert est.value == pytest.approx(value, rel=1e-12)

    def test_unclosed_bound_stops_uncertified(self, monkeypatch):
        """With a single ascent step the bound of a curved objective
        stays open: the gap is a feasible lower bound, not certified."""
        monkeypatch.setattr(gaps, "ASCENT_STEPS", 1)
        op = make_test_problem("affine", 6, {"mu": 0.3}, seed=2)
        reg = RegularizerSpec(kind="l1", lam=0.1)
        v_o = np.random.default_rng(2).standard_normal(6)
        est = composite_gap(op, reg, v_o, np.zeros(6), 1.5)
        assert not est.certified and est.method == "certified-ascent"
        assert np.linalg.norm(est.maximizer) <= 1.5
        monkeypatch.setattr(gaps, "ASCENT_STEPS", 500)
        closed = composite_gap(op, reg, v_o, np.zeros(6), 1.5)
        assert closed.certified and est.value <= closed.value


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
