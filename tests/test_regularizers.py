"""Proximal maps, regularizer values, and the mirror map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedvi.regularizers import (MirrorState, RegularizerSpec, ZERO_REG,
                                mirror_map, prox, prox_kinks, reg_value)


def prox_1d_oracle(reg: RegularizerSpec, u: float, weight: float,
                   lo: float = -50.0, hi: float = 50.0) -> float:
    """Independent scalar prox by grid search plus ternary refinement."""
    def objective(v):
        if reg.kind == "l1":
            pen = reg.lam * abs(v)
        elif reg.kind == "box-indicator":
            pen = 0.0 if reg.lo[0] <= v <= reg.hi[0] else np.inf
        else:
            pen = 0.0
        return 0.5 * (v - u) ** 2 + weight * pen

    grid = np.linspace(lo, hi, 20001)
    v = grid[int(np.argmin([objective(g) for g in grid]))]
    a, b = v - 0.01, v + 0.01
    for _ in range(200):
        m1, m2 = a + (b - a) / 3, b - (b - a) / 3
        if objective(m1) < objective(m2):
            b = m2
        else:
            a = m1
    return 0.5 * (a + b)


L1 = RegularizerSpec(kind="l1", lam=1.0)
BOX = RegularizerSpec(kind="box-indicator", lo=[-1.0, -1.0], hi=[1.0, 1.0])


class TestProx:
    def test_zero_regularizer_is_identity(self):
        u = np.array([3.0, -1.0])
        np.testing.assert_array_equal(prox(ZERO_REG, u, 7.3), u)

    def test_l1_soft_threshold_matches_numeric_oracle(self):
        """Componentwise prox of 0.3 * ||.||_1 at (1.0, -0.1)."""
        u = np.array([1.0, -0.1])
        got = prox(L1, u, 0.3)
        expected = [prox_1d_oracle(L1, ui, 0.3) for ui in u]
        np.testing.assert_allclose(got, expected, atol=1e-9)
        np.testing.assert_allclose(got, [0.7, 0.0], atol=1e-12)

    def test_box_projection(self):
        got = prox(BOX, np.array([2.0, 0.5]), 1.0)
        np.testing.assert_array_equal(got, [1.0, 0.5])

    def test_box_boundary_maps_to_itself(self):
        u = np.array([1.0, -1.0])
        np.testing.assert_array_equal(prox(BOX, u, 2.0), u)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            prox(L1, np.zeros(2), -0.1)

    def test_array_weight_is_one_weight_per_row(self):
        u = np.array([[1.0, -0.1], [1.0, -0.1], [-2.0, 0.5]])
        w = np.array([[0.0], [0.3], [1.0]])
        rows = [prox(L1, row, float(x)) for row, x in zip(u, w[:, 0])]
        np.testing.assert_array_equal(prox(L1, u, w), rows)

    def test_l1_subgradient_optimality(self):
        """u - prox(u) must lie in weight * subdifferential of lam*||.||_1."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            u = rng.standard_normal(5) * 3
            w = rng.random() * 2
            v = prox(L1, u, w)
            residual = u - v
            for i in range(5):
                if v[i] > 0:
                    assert abs(residual[i] - w * L1.lam) < 1e-9
                elif v[i] < 0:
                    assert abs(residual[i] + w * L1.lam) < 1e-9
                else:
                    assert abs(residual[i]) <= w * L1.lam + 1e-9

    @pytest.mark.parametrize("reg,weight", [
        (ZERO_REG, 1.0), (L1, 0.5), (L1, 3.0), (BOX, 1.0),
    ])
    def test_nonexpansiveness(self, reg, weight):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((10_000, 2)) * 4
        v = rng.standard_normal((10_000, 2)) * 4
        pu, pv = prox(reg, u, weight), prox(reg, v, weight)
        d_in = np.linalg.norm(u - v, axis=1)
        d_out = np.linalg.norm(pu - pv, axis=1)
        assert np.all(d_out <= d_in + 1e-12)

    @staticmethod
    def _plain_prox(reg, u, weight):
        """prox as three plain expressions, with no fast path."""
        u = np.asarray(u, dtype=float)
        if reg.kind == "zero":
            return u.copy()
        if reg.kind == "l1":
            t = weight * reg.lam
            return np.sign(u) * np.maximum(np.abs(u) - t, 0.0)
        return np.clip(u, reg.lo, reg.hi)

    @staticmethod
    def _edges(t):
        """Signed zeros, +-t, negatives inside [-t, 0), infinities, NaNs
        of both signs, subnormals and ordinary values."""
        return [0.0, -0.0, t, -t, -0.5 * t, -t / 3, np.nextafter(-t, 0.0),
                np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1.0, -2.5]

    @pytest.mark.parametrize("weight", [
        0.0, 0.5, 2, np.float64(0.5), np.array([[0.0], [0.5], [3.0]])],
        ids=["zero", "float", "int", "float64", "array"])
    @pytest.mark.parametrize("reg", [
        ZERO_REG, RegularizerSpec(kind="l1", lam=0.3),
        RegularizerSpec(kind="box-indicator", lo=-0.15, hi=0.15),
        RegularizerSpec(kind="box-indicator", lo=-0.0, hi=0.0),
        # np.clip keeps u = -0.0 at lo = 0.0 (and 0.0 at hi = -0.0), where
        # np.minimum(np.maximum(u, lo), hi) returns the bound
        RegularizerSpec(kind="box-indicator", lo=0.0, hi=1.0),
        RegularizerSpec(kind="box-indicator", lo=-1.0, hi=-0.0)],
        ids=["zero", "l1", "box", "box-zero", "box-zero-lo", "box-zero-hi"])
    def test_same_bits_as_the_plain_expressions(self, reg, weight):
        """Byte for byte, on a one-point and a stacked u, and on list and
        integer inputs, which take the asarray path."""
        lam = reg.lam or 1.0
        ts = np.broadcast_to(weight, (3, 1))[:, 0] * lam
        stack = np.array([self._edges(t) for t in ts])
        for u in (stack[1], stack, list(stack[2]), [3, -1, 0],
                  np.arange(-2, 3)):
            if np.ndim(weight) and np.ndim(u) == 1:
                continue  # an array weight is one weight per stack row
            got, want = prox(reg, u, weight), self._plain_prox(reg, u, weight)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_l1_norm_nonincreasing_in_weight(self):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(8) * 2
        norms = [np.abs(prox(L1, u, w)).sum()
                 for w in np.linspace(0.0, 3.0, 40)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    @given(st.floats(-20, 20), st.floats(0, 5), st.floats(0.01, 4))
    @settings(max_examples=60, deadline=None)
    def test_l1_prox_agrees_with_oracle(self, u, weight, lam):
        reg = RegularizerSpec(kind="l1", lam=lam)
        got = prox(reg, np.array([u]), weight)[0]
        assert abs(got - prox_1d_oracle(reg, u, weight)) < 1e-6


class TestProxKinks:
    def test_l1_kinks_are_where_a_coordinate_meets_the_threshold(self):
        """c + t a = +-(t step lam): 1 - t = +-t/2 at t = 2/3 and 2."""
        kinks = prox_kinks(L1, np.array([1.0, -1.0]), np.array([-1.0, 1.0]),
                           0.5)
        np.testing.assert_allclose(np.sort(kinks), [2 / 3, 2 / 3, 2, 2])

    @pytest.mark.parametrize("reg", [L1, BOX], ids=["l1", "box"])
    def test_prox_is_linear_between_kinks(self, reg):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c, a = 2.0 * rng.standard_normal((2, 2))
            kinks = prox_kinks(reg, c, a, 0.7)
            ts = np.unique(np.concatenate(
                [[0.0], kinks[np.isfinite(kinks) & (kinks > 0)], [10.0]]))

            def path(t):
                return prox(reg, c + t * a, t * 0.7)

            for t0, t1 in zip(ts, ts[1:]):
                np.testing.assert_allclose(
                    path(0.5 * (t0 + t1)), 0.5 * (path(t0) + path(t1)),
                    rtol=0, atol=1e-12)


class TestRegValue:
    def test_zero(self):
        assert reg_value(ZERO_REG, np.array([5.0, -2.0])) == 0.0

    def test_l1(self):
        reg = RegularizerSpec(kind="l1", lam=2.0)
        assert reg_value(reg, np.array([1.0, -3.0])) == 8.0

    def test_box_infeasible_is_inf(self):
        reg = RegularizerSpec(kind="box-indicator", lo=[0.0, 0.0],
                              hi=[1.0, 1.0])
        assert reg_value(reg, np.array([2.0, 0.0])) == np.inf
        assert reg_value(reg, np.array([0.5, 0.0])) == 0.0

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            RegularizerSpec(kind="box-indicator", lo=[1.0], hi=[0.0])


class TestMirrorMap:
    def test_round_zero_is_identity_exactly(self):
        z = np.array([2.0, -3.5])
        out = mirror_map(MirrorState(t=0, eta=0.7), L1, z)
        assert np.array_equal(out, z)

    def test_zero_regularizer_is_identity_exactly(self):
        z = np.array([2.0, 2.0])
        out = mirror_map(MirrorState(t=17, eta=0.3), ZERO_REG, z)
        assert np.array_equal(out, z)

    def test_l1_weight_is_t_times_eta(self):
        """At round 5 with eta 0.1 the prox weight is 0.5."""
        z = np.array([1.0, -0.2])
        got = mirror_map(MirrorState(t=5, eta=0.1), L1, z)
        expected = [prox_1d_oracle(L1, zi, 0.5) for zi in z]
        np.testing.assert_allclose(got, expected, atol=1e-9)
        np.testing.assert_allclose(got, [0.5, 0.0], atol=1e-12)

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            MirrorState(t=-1, eta=0.1)
