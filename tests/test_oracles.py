"""Stochastic oracle calibration and path-keyed stream determinism."""

import math

import numpy as np
import pytest

from fedvi.operators import make_test_problem
from fedvi.oracles import OracleSpec, noiseless, sample_oracle
from fedvi.rng import RngStream


def _draws(oracle, z, n, seed=0, delta=0.0):
    stream = RngStream(seed)
    return np.stack([sample_oracle(oracle, z, stream.at(0, i), delta)
                     for i in range(n)])


class TestSampleOracle:
    def test_noiseless_is_exact(self):
        op = make_test_problem("affine", 3, seed=0)
        oracle = noiseless(op)
        z = np.array([0.3, -1.0, 2.0])
        np.testing.assert_array_equal(sample_oracle(oracle, z),
                                      op.payload["A"] @ z + op.payload["b"])

    def test_sigma_zero_gaussian_model_is_exact(self):
        op = make_test_problem("affine", 3, seed=0)
        oracle = OracleSpec(base=op, noise_model="gaussian-isotropic",
                            sigma=0.0)
        z = np.zeros(3)
        np.testing.assert_array_equal(sample_oracle(oracle, z),
                                      sample_oracle(noiseless(op), z))

    def test_missing_generator_rejected(self):
        op = make_test_problem("affine", 3, seed=0)
        oracle = OracleSpec(base=op, sigma=1.0)
        with pytest.raises(ValueError, match="generator"):
            sample_oracle(oracle, np.zeros(3))

    def test_dimension_mismatch_rejected(self):
        oracle = noiseless(make_test_problem("affine", 3, seed=0))
        with pytest.raises(ValueError, match="dimension"):
            sample_oracle(oracle, np.zeros(2))

    @pytest.mark.parametrize("model", ["gaussian-isotropic", "bounded-uniform"])
    def test_unbiased_mean(self, model):
        """Per-coordinate Monte Carlo mean stays within 5 sigma / sqrt(N)."""
        op = make_test_problem("affine", 4, seed=1)
        sigma = 1.0
        oracle = OracleSpec(base=op, noise_model=model, sigma=sigma)
        z = np.array([0.5, -0.5, 1.0, 0.0])
        n = 100_000
        draws = _draws(oracle, z, n)
        err = np.abs(draws.mean(axis=0) - sample_oracle(noiseless(op), z))
        assert np.all(err < 5 * sigma / math.sqrt(n))

    @pytest.mark.parametrize("model", ["gaussian-isotropic", "bounded-uniform"])
    def test_variance_calibration(self, model):
        """E||draw - V(z)||^2 is sigma^2, within sampling error."""
        op = make_test_problem("affine", 4, seed=1)
        sigma = 2.0
        oracle = OracleSpec(base=op, noise_model=model, sigma=sigma)
        z = np.zeros(4)
        n = 50_000
        noise = _draws(oracle, z, n) - sample_oracle(noiseless(op), z)
        second = float((noise ** 2).sum(axis=1).mean())
        assert second <= sigma ** 2 * (1 + 5 / math.sqrt(n))
        assert second >= sigma ** 2 * (1 - 5 / math.sqrt(n))

    def test_affine_smoothing_is_bias_free(self):
        """E[V(z + delta s)] = V(z) when V is affine."""
        op = make_test_problem("affine", 3, seed=2)
        oracle = OracleSpec(base=op, noise_model="none", sigma=0.0)
        z = np.array([1.0, -1.0, 0.5])
        n = 200_000
        draws = _draws(oracle, z, n, delta=0.1)
        exact = sample_oracle(noiseless(op), z)
        # noise of the smoothed draw is delta * A s: std <= delta * L per coord
        tol = 5 * 0.1 * op.L / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - exact) < tol)

    def test_invalid_model_rejected(self):
        op = make_test_problem("affine", 2, seed=0)
        with pytest.raises(ValueError):
            OracleSpec(base=op, noise_model="cauchy")
        with pytest.raises(ValueError):
            OracleSpec(base=op, sigma=-1.0)


class TestStackedQuery:
    """An (M, d) client stack is M single-point queries, bit for bit."""

    @pytest.mark.parametrize("kind", ["affine", "bounded-nonlinear"])
    @pytest.mark.parametrize("model", ["gaussian-isotropic", "bounded-uniform"])
    @pytest.mark.parametrize("delta", [0.0, 0.3])
    @pytest.mark.parametrize("M", [1, 4, 16])
    def test_stack_equals_single_points_bitwise(self, kind, model, delta, M):
        op = make_test_problem(kind, 7, seed=3)
        oracle = OracleSpec(base=op, noise_model=model, sigma=0.9)
        stream = RngStream(11)
        Z = np.random.default_rng(M).standard_normal((M, 7))
        stacked = sample_oracle(oracle, Z, [stream.at(m, 2, 1, 0)
                                            for m in range(M)], delta)
        single = np.stack([sample_oracle(oracle, Z[m], stream.at(m, 2, 1, 0),
                                         delta) for m in range(M)])
        assert stacked.shape == (M, 7)
        assert np.array_equal(stacked, single)

    @pytest.mark.parametrize("kind", ["affine", "bounded-nonlinear"])
    def test_exact_stack_equals_single_points_bitwise(self, kind):
        oracle = noiseless(make_test_problem(kind, 30, seed=1))
        Z = np.random.default_rng(0).standard_normal((9, 30))
        single = np.stack([sample_oracle(oracle, z) for z in Z])
        assert np.array_equal(sample_oracle(oracle, Z), single)

    def test_wrong_generator_count_rejected(self):
        oracle = OracleSpec(base=make_test_problem("affine", 3, seed=0),
                            sigma=1.0)
        stream = RngStream(0)
        Z = np.zeros((4, 3))
        with pytest.raises(ValueError, match="needs 4 generators, got 3"):
            sample_oracle(oracle, Z, [stream.at(m, 1) for m in range(3)])
        with pytest.raises(ValueError, match="needs 4 generators, got 5"):
            sample_oracle(oracle, Z, (stream.at(m, 1) for m in range(5)))
        with pytest.raises(ValueError, match="iterable of M generators"):
            sample_oracle(oracle, Z, stream.at(0, 1))
        with pytest.raises(ValueError, match="iterable of M generators"):
            sample_oracle(oracle, Z[0], [stream.at(0, 1)])

    def test_is_stochastic(self):
        op = make_test_problem("affine", 3, seed=0)
        assert not noiseless(op).is_stochastic()
        assert noiseless(op).is_stochastic(0.1)
        assert not OracleSpec(base=op, sigma=0.0).is_stochastic()
        assert OracleSpec(base=op, sigma=0.5).is_stochastic()
        assert not OracleSpec(base=op, noise_model="none",
                              sigma=0.5).is_stochastic()


class TestRngStream:
    def test_same_path_same_draws(self):
        stream = RngStream(1234)
        a = stream.at(3, 17, 2, 1).standard_normal(8)
        b = stream.at(3, 17, 2, 1).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_interleaving_independence(self):
        """Consuming paths in different orders yields identical values."""
        stream = RngStream(99)
        paths = [(m, t, ell, ph) for m in range(3) for t in range(4)
                 for ell in range(2) for ph in range(2)]
        forward = {p: stream.at(*p).standard_normal(5) for p in paths}
        backward = {p: stream.at(*p).standard_normal(5)
                    for p in reversed(paths)}
        for p in paths:
            np.testing.assert_array_equal(forward[p], backward[p])

    def test_distinct_paths_differ(self):
        stream = RngStream(7)
        a = stream.at(0, 1, 0, 0).standard_normal(4)
        b = stream.at(0, 1, 0, 1).standard_normal(4)
        c = stream.at(1, 1, 0, 0).standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_master_seed_changes_draws(self):
        a = RngStream(1).at(0, 0).standard_normal(4)
        b = RngStream(2).at(0, 0).standard_normal(4)
        assert not np.array_equal(a, b)
