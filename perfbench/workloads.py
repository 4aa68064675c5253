"""Benchmark workloads: fedvi experiment configs generated from a seed.

fedvi only ever sees the dicts built here.  The benchmark seed feeds
``problem.seed`` and the config's ``seeds`` list, so one seed always
gives the same inputs.  Each workload is sized so one pass (one
``run_experiment`` call plus ``rows_to_csv``) takes about a second on a
2-core x86 box, which leaves room for a median over many passes per run.
This module imports nothing from fedvi, so set-up timing starts clean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    config: Callable[[int], dict]


def _stochastic_lesgd(seed: int) -> dict:
    # configs/lesgd_variance_sweep.json at R=50 and one seed per pass:
    # per-client RNG and oracle draws dominate (2*M*K*R of each per run).
    return {
        "problem": {"kind": "affine", "dim": 10, "seed": seed,
                    "params": {"L": 1.0, "b_scale": 0.0, "mu": 0.0,
                               "skew": 1.5}},
        "algorithm": {"id": "lesgd", "schedule": "T1"},
        "federation": {"M": 1, "K": 8, "R": 50},
        "noise": {"sigma": 5.0, "model": "gaussian-isotropic"},
        "gap": {"D": 1.0},
        "sweep": {"M": [1, 4, 16]},
        "seeds": [seed],
        "log_every": 10,
    }


def _nonlinear_lippax(seed: int) -> dict:
    # One multistart restricted_gap evaluation (at the last round) is the
    # largest layer; the stochastic inner prox loop draws on M*K*R*(H+1)
    # RNG paths.
    return {
        "problem": {"kind": "bounded-nonlinear", "dim": 20, "seed": seed},
        "algorithm": {"id": "lippax", "schedule": "T3"},
        "federation": {"M": 4, "K": 8, "R": 20},
        "noise": {"sigma": 1.0, "model": "gaussian-isotropic"},
        "gap": {"D": 1.0},
        "seeds": [seed],
        "log_every": 20,
    }


def _composite_lda(seed: int) -> dict:
    # configs/lda_l1_bilinear.json logging every 50 rounds instead of 5:
    # two composite_gap evaluations (proximal ascent), no RNG draws.
    return {
        "problem": {"kind": "bilinear-saddle", "dim": 8, "seed": seed,
                    "params": {"L": 1.0, "b_scale": 0.1}},
        "algorithm": {"id": "lda", "schedule": "T7"},
        "regularizer": {"kind": "l1", "lam": 0.05},
        "federation": {"M": 2, "K": 8, "R": 100},
        "noise": {"sigma": 0.0, "model": "none"},
        "gap": {"D": 2.0},
        "seeds": [seed],
        "log_every": 50,
    }


def _sweep_2workers(seed: int) -> dict:
    # The configs/lesgd_rate_sweep.json problem at fixed R: four
    # equal-cost deterministic runs for the run_experiment worker pool.
    # Short passes give many samples, which the thread pool's
    # pass-to-pass noise needs.
    return {
        "problem": {"kind": "affine", "dim": 10, "seed": seed,
                    "params": {"L": 1.0, "b_scale": 0.3, "mu": 0.0,
                               "skew": 1.5}},
        "algorithm": {"id": "lesgd", "schedule": "T1"},
        "federation": {"M": 1, "K": 16, "R": 100},
        "noise": {"sigma": 0.0, "model": "none"},
        "gap": {"D": 5.0},
        "seeds": [seed + i for i in range(4)],
    }


WORKLOADS = {w.name: w for w in (
    Workload("stochastic-lesgd", 1, _stochastic_lesgd),
    Workload("nonlinear-lippax", 1, _nonlinear_lippax),
    Workload("composite-lda", 1, _composite_lda),
    Workload("sweep-2workers", 2, _sweep_2workers),
)}
