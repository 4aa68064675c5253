"""Per-call timings of fedvi's public functions at one workload's shapes.

Each function is timed on its own with ``timeit`` (median of repeats).
Kinds a workload does not use are timed on a same-dimension stand-in
built by ``make_test_problem`` from the benchmark seed: an affine
operator, a bounded-nonlinear operator, and an l1 regularizer.
"""

from __future__ import annotations

import statistics
import timeit

import numpy as np

from fedvi import gaps, harness, operators, oracles, regularizers
from fedvi.rng import RngStream


def per_call(fn, number: int, repeat: int = 5) -> float:
    """Median seconds per call over ``repeat`` batches of ``number`` calls."""
    return statistics.median(timeit.repeat(fn, number=number,
                                           repeat=repeat)) / number


def micro_timings(config: dict, seed: int) -> dict[str, float]:
    cfg = harness.ExperimentConfig.from_dict(config)
    op = harness.build_problem(cfg)
    d = op.dim
    M = max(cfg.sweep.get("M", [cfg.federation["M"]]))
    affine = (op if op.is_affine
              else operators.make_test_problem("affine", d, seed=seed))
    nonlinear = (op if op.kind == "bounded-nonlinear" else
                 operators.make_test_problem("bounded-nonlinear", d, seed=seed))
    reg = (cfg.regularizer if cfg.regularizer.kind != "zero"
           else regularizers.RegularizerSpec(kind="l1", lam=0.05))
    sigma = cfg.noise["sigma"]
    oracle = oracles.OracleSpec(
        base=op, sigma=sigma,
        noise_model=cfg.noise["model"] if sigma > 0 else "none")
    stream = RngStream(seed)
    gen = stream.at(0, 1)
    rng = np.random.default_rng(seed)
    z = 0.5 * rng.standard_normal(d)
    Z = rng.standard_normal((M, d))
    center, D = np.zeros(d), cfg.gap["D"]
    mirror = regularizers.MirrorState(5, 0.1)

    per_us = {
        "rng.at_us": (lambda: stream.at(3, 7, 0, 1), 500),
        "oracles.sample_us": (lambda: oracles.sample_oracle(oracle, z, gen), 2000),
        "operators.eval_affine_us": (
            lambda: operators.eval_operator(affine, z), 2000),
        "operators.eval_nonlinear_us": (
            lambda: operators.eval_operator(nonlinear, z), 2000),
        "operators.jacobian_us": (
            lambda: operators.op_jacobian(nonlinear, z), 2000),
        "regularizers.prox_us": (lambda: regularizers.prox(reg, z, 0.01), 2000),
        "regularizers.mirror_map_us": (
            lambda: regularizers.mirror_map(mirror, reg, Z), 2000),
    }
    per_ms = {
        "harness.config_ms": (
            lambda: harness.ExperimentConfig.from_dict(config), 200),
        "operators.build_ms": (lambda: harness.build_problem(cfg), 20),
        "gaps.restricted_exact_ms": (lambda: gaps.restricted_gap(
            affine, z, center, D, method="exact-concave"), 20),
        "gaps.restricted_multistart_ms": (lambda: gaps.restricted_gap(
            nonlinear, z, center, D), 1),
        "gaps.composite_ms": (lambda: gaps.composite_gap(
            affine, reg, z, center, D), 1),
    }
    out = {name: per_call(fn, n) * 1e6 for name, (fn, n) in per_us.items()}
    out.update({name: per_call(fn, n, repeat=3) * 1e3
                for name, (fn, n) in per_ms.items()})
    return out
