"""The benchmark's tracer on configs whose runs are one stack.

perfbench/tracing.py checks each runner call's oracle queries and RNG
paths against the algorithm, reading the call's M, K, R and H from its
last argument.  A stack is one runner call with M its total rows, so a
stacked config must still show no mismatch, with one RNG path per query
row that draws, and the same CSV as an untraced pass.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from fedvi.harness import ExperimentConfig, rows_to_csv, run_experiment
from tracing import Tracer, analyse
from workloads import WORKLOADS


def _criterion_2() -> dict:
    """Acceptance criterion 2's shape (affine d = 10, sigma 5, K = 8,
    R = 200) over M = 1, 4, 16 with three seeds: one ragged stack of
    runs of one M side by side."""
    D, sigma, K, R = 1.0, 5.0, 8, 200
    return {
        "problem": {"kind": "affine", "dim": 10, "seed": 11,
                    "params": {"L": 1.0, "b_scale": 0.0, "mu": 0.0,
                               "skew": 1.5}},
        "algorithm": {"id": "lesgd",
                      "eta": D * 2.0 / (sigma * math.sqrt(6 * K * R))},
        "federation": {"M": 4, "K": K, "R": R},
        "noise": {"sigma": sigma, "model": "gaussian-isotropic"},
        "gap": {"D": D},
        "sweep": {"M": [1, 4, 16]},
        "seeds": [0, 1, 2],
        "log_every": R,
    }


def _lippax() -> dict:
    tree = WORKLOADS["nonlinear-lippax"].config(1)
    tree["seeds"] = [1, 2, 3]
    return tree


@pytest.mark.parametrize("tree", [_criterion_2(), _lippax()],
                         ids=["criterion-2-shape", "lippax"])
def test_a_stack_is_one_traced_runner_call(tree):
    cfg = ExperimentConfig.from_dict(tree)
    plain = rows_to_csv(run_experiment(cfg))
    tracer = Tracer()
    with tracer, tracer.pass_span(0):
        rows = run_experiment(cfg)
    spans, tallies = tracer.collect()
    counts, _, mismatches = analyse(spans, tallies)
    assert mismatches == []
    (runner,) = [s for s in spans if s["name"].startswith("algorithms.")]
    assert runner["M"] == sum(spec["M"] for spec in cfg.expand_runs())
    assert counts["rng.at_calls"] == counts["oracles.queries"] > 0
    assert rows_to_csv(rows) == plain
