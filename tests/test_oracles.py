"""Stochastic oracle calibration and path-keyed stream determinism."""

import itertools
import math
import sys
import threading

import numpy as np
import pytest

from fedvi.operators import make_test_problem
from fedvi.oracles import OracleSpec, draw_rows, sample_oracle
from fedvi.rng import (RngStream, _absorb, _mix, _mixes, fill_keys, normals,
                       uniforms)


def _draws(oracle, z, n, seed=0, delta=0.0):
    """n independent draws at z: one stacked query on n path keys."""
    stream = RngStream(seed)
    rows = draw_rows(oracle, [stream.at(0, i) for i in range(n)],
                     np.full(n, delta))
    return sample_oracle(oracle, np.tile(z, (n, 1)), draws=rows)


class TestSampleOracle:
    def test_noiseless_is_exact(self):
        op = make_test_problem("affine", 3, seed=0)
        oracle = OracleSpec(base=op)
        z = np.array([0.3, -1.0, 2.0])
        np.testing.assert_array_equal(sample_oracle(oracle, z),
                                      op.payload["A"] @ z + op.payload["b"])

    def test_sigma_zero_gaussian_model_is_exact(self):
        op = make_test_problem("affine", 3, seed=0)
        oracle = OracleSpec(base=op, noise_model="gaussian-isotropic",
                            sigma=0.0)
        z = np.zeros(3)
        np.testing.assert_array_equal(sample_oracle(oracle, z),
                                      sample_oracle(OracleSpec(base=op), z))

    def test_missing_generator_rejected(self):
        op = make_test_problem("affine", 3, seed=0)
        oracle = OracleSpec(base=op, sigma=1.0)
        with pytest.raises(ValueError, match="requires a path key"):
            sample_oracle(oracle, np.zeros(3))

    def test_dimension_mismatch_rejected(self):
        oracle = OracleSpec(base=make_test_problem("affine", 3, seed=0))
        with pytest.raises(ValueError, match="dimension"):
            sample_oracle(oracle, np.zeros(2))

    @pytest.mark.parametrize("form", [list, lambda z: z.astype(">f8"),
                                      lambda z: z.astype(np.float32),
                                      lambda z: np.round(z).astype(int)],
                             ids=["list", "big-endian", "float32", "int"])
    def test_other_inputs_are_their_float64_array(self, form):
        """A query that is not a native float64 array is converted first:
        its values are the converted array's, bit for bit."""
        oracle = OracleSpec(base=make_test_problem("affine", 3, seed=0))
        for z in (np.array([0.3, -1.0, 2.0]), np.array([[0.3, -1.0, 2.0],
                                                         [-0.0, 4.5, 1.0]])):
            given = form(z)
            want = sample_oracle(oracle, np.asarray(given, dtype=float))
            got = sample_oracle(oracle, given)
            assert got.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("model", ["gaussian-isotropic", "bounded-uniform"])
    def test_unbiased_mean(self, model):
        """Per-coordinate Monte Carlo mean stays within 5 sigma / sqrt(N)."""
        op = make_test_problem("affine", 4, seed=1)
        sigma = 1.0
        oracle = OracleSpec(base=op, noise_model=model, sigma=sigma)
        z = np.array([0.5, -0.5, 1.0, 0.0])
        n = 100_000
        draws = _draws(oracle, z, n)
        exact = sample_oracle(OracleSpec(base=op), z)
        err = np.abs(draws.mean(axis=0) - exact)
        assert np.all(err < 5 * sigma / math.sqrt(n))

    @pytest.mark.parametrize("model", ["gaussian-isotropic", "bounded-uniform"])
    def test_variance_calibration(self, model):
        """E||draw - V(z)||^2 is sigma^2, within sampling error."""
        op = make_test_problem("affine", 4, seed=1)
        sigma = 2.0
        oracle = OracleSpec(base=op, noise_model=model, sigma=sigma)
        z = np.zeros(4)
        n = 50_000
        noise = _draws(oracle, z, n) - sample_oracle(OracleSpec(base=op), z)
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
        exact = sample_oracle(OracleSpec(base=op), z)
        # noise of the smoothed draw is delta * A s: std <= delta * L per coord
        tol = 5 * 0.1 * op.L / math.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - exact) < tol)

    @pytest.mark.parametrize("model,delta", [
        ("gaussian-isotropic", 0.0), ("bounded-uniform", 0.0), ("none", 0.1)])
    def test_stacked_draws_equal_looped_draws_bitwise(self, model, delta):
        """The statistics tests' stacked draws are the single-point draws."""
        op = make_test_problem("affine", 4, seed=1)
        oracle = OracleSpec(base=op, noise_model=model,
                            sigma=0.0 if model == "none" else 2.0)
        z = np.array([0.5, -0.5, 1.0, 0.0])
        stream = RngStream(0)
        looped = np.stack([sample_oracle(oracle, z, draws=draw_rows(
            oracle, [stream.at(0, i)], np.array([delta]))) for i in range(50)])
        assert np.array_equal(_draws(oracle, z, 50, delta=delta), looped)

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
        keys = [RngStream(11).at(m, 2, 1, 0) for m in range(M)]
        Z = np.random.default_rng(M).standard_normal((M, 7))
        stacked = sample_oracle(oracle, Z, draws=draw_rows(
            oracle, keys, np.full(M, delta)))
        single = np.stack([sample_oracle(oracle, Z[m], draws=draw_rows(
            oracle, [keys[m]], np.array([delta]))) for m in range(M)])
        assert stacked.shape == (M, 7)
        assert np.array_equal(stacked, single)

    @pytest.mark.parametrize("kind", ["affine", "bounded-nonlinear"])
    def test_exact_stack_equals_single_points_bitwise(self, kind):
        """Nine rows, and one row as a (1, d) stack."""
        oracle = OracleSpec(base=make_test_problem(kind, 30, seed=1))
        Z = np.random.default_rng(0).standard_normal((9, 30))
        single = np.stack([sample_oracle(oracle, z) for z in Z])
        for stack in (Z, Z[:1]):
            assert np.array_equal(sample_oracle(oracle, stack),
                                  single[:len(stack)])

    def test_a_key_queries_one_point_only(self):
        """A stack takes pre-drawn rows, and a point one key."""
        oracle = OracleSpec(base=make_test_problem("affine", 3, seed=0),
                            sigma=1.0)
        stream = RngStream(0)
        with pytest.raises(ValueError, match="a stack takes pre-drawn rows"):
            sample_oracle(oracle, np.zeros((4, 3)), stream.at(0, 1))
        with pytest.raises(ValueError, match="a stack takes pre-drawn rows"):
            sample_oracle(oracle, np.zeros(3), [stream.at(0, 1)])

    @pytest.mark.parametrize("delta", [0.0, 0.3])
    def test_predrawn_rows_equal_keyed_query_bitwise(self, delta):
        """Smoothed rows are the point-keyed queries at the shifted points."""
        oracle = OracleSpec(base=make_test_problem("bounded-nonlinear", 5,
                                                   seed=2), sigma=0.7)
        keys = [RngStream(4).at(m, 3) for m in range(6)]
        Z = np.random.default_rng(1).standard_normal((6, 5))
        rows = draw_rows(oracle, keys, np.full(6, delta))
        assert (rows.shift is None) == (delta == 0)
        shifted = Z if rows.shift is None else Z + rows.shift
        assert np.array_equal(sample_oracle(oracle, Z, draws=rows), np.stack(
            [sample_oracle(oracle, z, key) for z, key in zip(shifted, keys)]))

    def test_radii_pick_the_smoothed_rows(self):
        """Only rows with a positive radius draw a direction, in key
        order, each the direction its key draws alone."""
        oracle = OracleSpec(base=make_test_problem("affine", 4, seed=0))
        keys = [RngStream(2).at(m, 1) for m in range(5)]
        radii = np.array([0.0, 0.5, 0.0, 0.2, 0.0])
        shift, noise = draw_rows(oracle, keys, radii)
        assert noise is None
        assert np.array_equal(shift, radii[[1, 3], None] * normals(
            [keys[1], keys[3]], 4, 0))
        assert draw_rows(oracle, keys) == (None, None)
        assert draw_rows(oracle, keys, np.zeros(5)) == (None, None)

    def test_predrawn_rows_checked(self):
        oracle = OracleSpec(base=make_test_problem("affine", 3, seed=0),
                            sigma=1.0)
        keys = [RngStream(0).at(m, 1) for m in range(4)]
        rows = draw_rows(oracle, keys)
        with pytest.raises(ValueError, match="replace keys"):
            sample_oracle(oracle, np.zeros((4, 3)), keys, draws=rows)
        with pytest.raises(ValueError, match="4 pre-drawn rows for a query "
                                             "of shape \\(2, 3\\)"):
            sample_oracle(oracle, np.zeros((2, 3)), draws=rows)

    def test_is_stochastic(self):
        op = make_test_problem("affine", 3, seed=0)
        assert not OracleSpec(base=op).is_stochastic()
        assert OracleSpec(base=op).is_stochastic(0.1)
        assert not OracleSpec(base=op, sigma=0.0).is_stochastic()
        assert OracleSpec(base=op, sigma=0.5).is_stochastic()
        assert not OracleSpec(base=op, noise_model="none",
                              sigma=0.5).is_stochastic()


class TestRngStream:
    def test_same_path_same_draws(self):
        stream = RngStream(1234)
        a = normals([stream.at(3, 17, 2, 1)], 8, 1)
        b = normals([stream.at(3, 17, 2, 1)], 8, 1)
        np.testing.assert_array_equal(a, b)

    def test_interleaving_independence(self):
        """Consuming paths in different orders yields identical values."""
        stream = RngStream(99)
        paths = [(m, t, ell, ph) for m in range(3) for t in range(4)
                 for ell in range(2) for ph in range(2)]
        forward = {p: normals([stream.at(*p)], 5, 1) for p in paths}
        backward = {p: normals([stream.at(*p)], 5, 1)
                    for p in reversed(paths)}
        for p in paths:
            np.testing.assert_array_equal(forward[p], backward[p])

    def test_distinct_paths_differ(self):
        stream = RngStream(7)
        a = normals([stream.at(0, 1, 0, 0)], 4, 1)
        b = normals([stream.at(0, 1, 0, 1)], 4, 1)
        c = normals([stream.at(1, 1, 0, 0)], 4, 1)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_master_seed_changes_draws(self):
        a = normals([RngStream(1).at(0, 0)], 4, 1)
        b = normals([RngStream(2).at(0, 0)], 4, 1)
        assert not np.array_equal(a, b)

    def test_known_answers(self):
        """Pins the stream: a change to any draw must be deliberate."""
        # the first SplitMix64 output for seed 0, the published reference
        assert RngStream(0)._prefix == 0xE220A8397B1DCDAF
        key = RngStream(1234).at(3, 17, 2, 1)
        assert key == 7298014668120427397
        np.testing.assert_array_equal(uniforms([key], 4, 1), [[
            0.6093680933235056, 0.7162184196993638, 0.213376394944646,
            0.9111198354153273]])
        np.testing.assert_allclose(normals([key], 4, 0), [[
            -0.5532042629724585, -0.5996166615877916, 0.32250115515272243,
            -0.7142613004007768]], rtol=1e-14)

    def test_filled_memo_keys_equal_the_plain_chain(self):
        """Random multi-stream fills over random slot lists (LIPPAX's
        among them): each memo holds its last block's (m, t, inner,
        phase) paths alone, and every key, in the block or on a miss
        (wide and negative parts too), equals the uncached chain in any
        call order, with streams sharing the calls kept apart."""
        rng = np.random.default_rng(5)
        wide = [2 ** 64 - 1, 2 ** 64, 2 ** 64 + 3, 2 ** 70 + 1, -1, -2,
                -(2 ** 64) - 5]

        def part(n):  # mostly small, so paths fall in the block; at times
            return (int(rng.integers(n)) if rng.random() < 0.8  # masked
                    else wide[rng.integers(len(wide))])
        # seeds 11 and 2**64 + 11 are one stream modulo 2**64
        streams = [RngStream(11), RngStream(2 ** 64 + 11), RngStream(-4)]
        for trial in range(30):
            Ms = [int(M) for M in rng.integers(1, 4, size=3)]
            first = int(rng.integers(4))
            steps = range(first, first + int(rng.integers(1, 4)))
            if trial % 3 == 2:  # LIPPAX's inner loop, then its update
                H = int(rng.integers(1, 4))
                slots = [(ell, 2) for ell in range(1, H + 1)] + [(0, 1)]
            else:
                slots = [tuple(slot) for slot in
                         rng.integers(4, size=(int(rng.integers(1, 4)), 2))
                         .tolist()]
            fill_keys(list(zip(streams, Ms)), steps, slots)
            for stream, M in zip(streams, Ms):
                assert set(stream._memo) == {
                    (m, t, inner, phase) for m in range(M) for t in steps
                    for inner, phase in slots}
                for path in stream._memo:
                    assert stream.at(*path) == _absorb(stream._prefix, *path)
            calls = [(int(rng.integers(3)), part(4), part(first + 4),
                      part(4), part(4)) for _ in range(400)]
            if trial % 2:  # runs of one step, revisited across streams
                calls.sort(key=lambda c: c[2])
            for s, client, step, inner, phase in calls:
                assert streams[s].at(client, step, inner, phase) == _absorb(
                    streams[s]._prefix, client, step, inner, phase)
        assert streams[0].at(3, 17, 2, 1) == streams[1].at(3, 17, 2, 1)
        assert streams[0].at(3, 17, 2, 1) != streams[2].at(3, 17, 2, 1)

    def test_array_mix_matches_mix(self):
        """The array SplitMix64 step has _mix's bits on edge stems, steps
        up to 2**32 and inners 0..H, alone and chained as a fill chains."""
        H = 5
        stems = [0, 1, 2 ** 63, 2 ** 64 - 1, 0x9E3779B97F4A7C15]
        steps = [0, 1, 2, 2 ** 31, 2 ** 32 - 1, 2 ** 32]
        got = _mixes(np.array(stems, dtype=np.uint64)[:, None],
                     np.array(steps, dtype=np.uint64))
        assert got.tolist() == [[_mix(h, t) for t in steps] for h in stems]
        chained = _mixes(got[..., None], np.arange(H + 1, dtype=np.uint64))
        assert chained.tolist() == [[[_absorb(h, t, ell)
                                      for ell in range(H + 1)]
                                     for t in steps] for h in stems]

    def test_memoised_keys_hold_under_threads(self):
        """Threads that share one stream and keep changing its step, with a
        switch forced every microsecond, still get the plain chain's keys."""
        stream = RngStream(21)
        wrong, done = [], []

        def worker(seed):
            paths = np.random.default_rng(seed).integers(4, size=(8000, 4))
            for path in paths.tolist():
                if stream.at(*path) != _absorb(stream._prefix, *path):
                    wrong.append(path)
            done.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,))
                       for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == list(range(6)) and wrong == []

    def test_uniforms_match_a_scalar_reference(self):
        mask, golden = 2 ** 64 - 1, 0x9E3779B97F4A7C15

        def splitmix(z):
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        keys = [0, 1, 2 ** 63, mask, RngStream(5).at(2, 9)]
        for tag in (0, 1, 7):
            want = [[((splitmix((k + ((tag << 32) + j + 1) * golden) & mask)
                       >> 11) | 1) / 2.0 ** 53 for j in range(6)]
                    for k in keys]
            np.testing.assert_array_equal(uniforms(keys, 6, tag), want)

    def test_normals_match_a_scalar_box_muller(self):
        keys = [RngStream(6).at(m, 3) for m in range(7)]
        u = uniforms(keys, 6, 0)
        want = [[math.sqrt(-2 * math.log(row[2 * i])) * trig(
                 2 * math.pi * row[2 * i + 1])
                 for i in range(3) for trig in (math.cos, math.sin)]
                for row in u]
        np.testing.assert_allclose(normals(keys, 6, 0), want, rtol=1e-13,
                                   atol=1e-15)

    def test_uniforms_stay_inside_the_open_interval(self):
        u = uniforms([RngStream(3).at(m, 1) for m in range(5000)], 8, 1)
        assert u.min() > 0.0 and u.max() < 1.0

    @pytest.mark.parametrize("n", [1, 3, 4, 10, 33])
    @pytest.mark.parametrize("M", [1, 4, 16, 257])
    def test_rows_are_independent_bitwise(self, M, n):
        """Row m of an M-key draw is the one-key draw of keys[m]."""
        stream = RngStream(21)
        keys = [stream.at(m, 4, 1, 2) for m in range(M)]
        for draw in (normals, uniforms):
            stacked = draw(keys, n, 1)
            assert stacked.shape == (M, n)
            single = np.concatenate([draw([k], n, 1) for k in keys])
            assert np.array_equal(stacked, single)

    def test_normals_prefix_is_the_shorter_draw(self):
        keys = [RngStream(4).at(m, 1) for m in range(6)]
        long = normals(keys, 9, 0)
        for n in (1, 2, 5, 8):
            assert np.array_equal(long[:, :n], normals(keys, n, 0))

    def test_tags_give_uncorrelated_draws(self):
        """Smoothing (tag 0) and noise (tag 1) draws of a key are unrelated."""
        stream = RngStream(17)
        keys = [stream.at(m, 3, 0, 1) for m in range(20_000)]
        s, e = normals(keys, 3, 0), normals(keys, 3, 1)
        assert not np.any(s == e)
        bound = 5 / math.sqrt(len(keys))
        for i in range(3):
            for j in range(3):
                assert abs(np.corrcoef(s[:, i], e[:, j])[0, 1]) < bound
        u, v = uniforms(keys, 3, 0), uniforms(keys, 3, 1)
        assert abs(np.corrcoef(u.ravel(), v.ravel())[0, 1]) < bound

    @pytest.mark.parametrize("draw", [normals, uniforms])
    def test_moments(self, draw):
        keys = [RngStream(8).at(m, 2) for m in range(20_000)]
        x = draw(keys, 4, 1)
        mean, var = (0.0, 1.0) if draw is normals else (0.5, 1.0 / 12)
        n = x.size
        assert abs(x.mean() - mean) < 5 * math.sqrt(var / n)
        assert abs(x.var() / var - 1) < 5 * math.sqrt(2.0 / n)
