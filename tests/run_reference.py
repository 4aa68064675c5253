"""Whole-run helpers for the tests: one configured run as a raw
trajectory, and the exact-reduction comparison of two such runs (LDA
with phi = 0 against LESGD, SLIPPAX with delta = 0 against LIPPAX, zero
client offsets against homogeneous LESGD)."""

from dataclasses import replace

import numpy as np

from fedvi.algorithms import Trajectory
from fedvi.harness import ExperimentConfig, _run_once
from fedvi.regularizers import ZERO_REG


def _strip_reduction_axis(cfg: ExperimentConfig) -> ExperimentConfig:
    """cfg with everything a reduction pair may differ on reset."""
    algorithm = {k: v for k, v in cfg.algorithm.items()
                 if k not in ("id", "delta")}
    problem = {k: v for k, v in cfg.problem.items() if k != "hetero"}
    return replace(cfg, problem=problem, algorithm=algorithm,
                   regularizer=ZERO_REG)


def compare_reduction(config_a: dict, config_b: dict
                      ) -> tuple[bool, float]:
    """Run two configs that differ only along a reduction axis and compare
    every logged iterate; returns (exactly equal, max coordinate deviation).
    The last record is the run's final output."""
    cfg_a = ExperimentConfig.from_dict(config_a)
    cfg_b = ExperimentConfig.from_dict(config_b)
    if _strip_reduction_axis(cfg_a) != _strip_reduction_axis(cfg_b):
        raise ValueError("configs differ outside the reduction axis")
    traj_a, traj_b = run_single(cfg_a), run_single(cfg_b)
    dev = 0.0
    if len(traj_a.records) != len(traj_b.records):
        raise ValueError("trajectories logged different round sets")
    for ra, rb in zip(traj_a.records, traj_b.records):
        dev = max(dev, float(np.abs(ra.mean_iterate - rb.mean_iterate).max()),
                  float(np.abs(ra.output_avg - rb.output_avg).max()))
    return dev == 0.0, dev


def run_single(cfg: ExperimentConfig) -> Trajectory:
    """Run the configured algorithm once (no sweep, first seed), returning
    the raw trajectory rather than CSV rows."""
    if cfg.sweep:
        raise ValueError("run_single expects a config without sweep axes")
    return _run_once(cfg, cfg.expand_runs()[0])[0]
