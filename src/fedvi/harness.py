"""Experiment configuration, sweeps, CSV emission, and rate regression.

A config is a JSON tree with problem / algorithm / federation / noise /
gap blocks plus optional sweep lists.  Output is deterministic: the
per-run seed is derived from the run's own parameters (seed entry and
sweep values), so reordering sweep lists or changing the worker count
never changes any run's rows, and rows are written in enumeration
order.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import struct
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .algorithms import (ALGO_IDS, THEOREM_IDS, RunConfig, Trajectory,
                         constants_of, run_lda, run_lesgd, run_lesgd_hetero,
                         run_lippax, run_lsgd, run_slippax, step_size)
from .gaps import GAP_METHODS, composite_gap, restricted_gap
from .operators import (OperatorSpec, load_affine_text, make_test_problem,
                        operator_bound_on_ball, verify_properties)
from .oracles import NOISE_MODELS, OracleSpec, sample_oracle
from .regularizers import REG_KINDS, RegularizerSpec, ZERO_REG
from .rng import RngStream

RUN_CAP_DEFAULT = 4096

CSV_COLUMNS = ("algo", "theorem_id", "d", "M", "K", "R", "sigma", "eta",
               "gamma", "delta", "H", "seed", "round", "gap_value",
               "gap_certified", "drift_z", "dist_to_solution", "wall_ms")


class ConfigError(ValueError):
    """Config rejection; carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class ResultRow:
    algo: str
    theorem_id: str | None
    d: int
    M: int
    K: int
    R: int
    sigma: float
    eta: float
    gamma: float | None
    delta: float | None
    H: int | None
    seed: int
    round: int
    gap_value: float
    gap_certified: bool
    drift_z: float
    dist_to_solution: float | None
    wall_ms: float | None


@dataclass
class RateFit:
    """Log-log least-squares fit of gap against one experiment axis."""

    x_name: str
    pairs: list[tuple[float, float]]
    slope: float
    intercept: float
    r2: float
    n_excluded: int = 0


def _get(tree: dict, path: str, default=None, required=False):
    node: Any = tree
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            if required:
                raise ConfigError(path, "missing required field")
            return default
        node = node[part]
    return node


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _is_number(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


@dataclass
class ExperimentConfig:
    """Validated experiment description; build with from_dict / from_file."""

    problem: dict
    algorithm: dict
    federation: dict
    noise: dict
    gap: dict
    regularizer: RegularizerSpec
    sweep: dict
    seeds: list[int]
    log_every: int | None
    z0: list[float] | None
    output: str | None
    timing: bool
    max_runs: int
    raw: dict = field(repr=False, default_factory=dict)

    @staticmethod
    def from_dict(tree: dict) -> "ExperimentConfig":
        problem = _get(tree, "problem", required=True)
        _expect(isinstance(problem, dict), "problem", "must be an object")
        kind = _get(tree, "problem.kind", required=True)
        if "file" in problem:
            _expect(isinstance(problem["file"], str), "problem.file",
                    "must be a path")
        else:
            _expect(isinstance(_get(tree, "problem.dim"), int),
                    "problem.dim", "must be an integer")
        algorithm = _get(tree, "algorithm", required=True)
        algo_id = _get(tree, "algorithm.id", required=True)
        _expect(algo_id in ALGO_IDS, "algorithm.id",
                f"must be one of {ALGO_IDS}")
        schedule = _get(tree, "algorithm.schedule")
        if schedule is not None:
            _expect(schedule in THEOREM_IDS, "algorithm.schedule",
                    f"must be one of {THEOREM_IDS}")
        else:
            _expect(_get(tree, "algorithm.eta") is not None, "algorithm.eta",
                    "required when no theorem schedule is given")
        for name in ("eta", "gamma"):
            v = _get(tree, f"algorithm.{name}")
            _expect(v is None or (_is_number(v) and v > 0),
                    f"algorithm.{name}", "must be a positive number")
        federation = _get(tree, "federation", required=True)
        for name in ("M", "K", "R"):
            v = federation.get(name)
            _expect(isinstance(v, int) and v >= 1, f"federation.{name}",
                    "must be an integer >= 1")
        noise = _get(tree, "noise", {"sigma": 0.0, "model": "none"})
        sigma = noise.get("sigma", 0.0)
        _expect(_is_number(sigma) and sigma >= 0, "noise.sigma",
                "must be a nonnegative number")
        _expect(noise.get("model", "gaussian-isotropic") in NOISE_MODELS,
                "noise.model", f"must be one of {NOISE_MODELS}")
        gap = _get(tree, "gap", {})
        D = _get(tree, "gap.D", 1.0)
        _expect(_is_number(D) and D > 0, "gap.D", "must be a positive number")
        _expect(gap.get("method", "auto") in GAP_METHODS, "gap.method",
                f"must be one of {GAP_METHODS}")
        z0 = _get(tree, "z0")
        if z0 is not None:
            _expect(isinstance(z0, list) and all(map(_is_number, z0)), "z0",
                    "must be a list of numbers")
            # a matrix-file problem's dimension is known only once loaded
            _expect("file" in problem or len(z0) == problem["dim"], "z0",
                    f"must have problem.dim = {problem.get('dim')} entries")
        reg_tree = _get(tree, "regularizer")
        if reg_tree is None:
            reg = ZERO_REG
        else:
            _expect(reg_tree.get("kind") in REG_KINDS, "regularizer.kind",
                    f"must be one of {REG_KINDS}")
            try:
                reg = RegularizerSpec(kind=reg_tree["kind"],
                                      lam=reg_tree.get("lam", 0.0),
                                      lo=reg_tree.get("lo"),
                                      hi=reg_tree.get("hi"))
            except ValueError as exc:
                raise ConfigError("regularizer", str(exc)) from exc
        sweep = _get(tree, "sweep", {})
        for key in sweep:
            _expect(key in ("M", "K", "R", "sigma"), f"sweep.{key}",
                    "sweepable axes are M, K, R, sigma")
            _expect(isinstance(sweep[key], list) and sweep[key],
                    f"sweep.{key}", "must be a nonempty list")
        seeds = _get(tree, "seeds", [0])
        _expect(isinstance(seeds, list) and seeds and
                all(isinstance(s, int) for s in seeds),
                "seeds", "must be a nonempty list of integers")
        cfg = ExperimentConfig(
            problem=problem, algorithm=algorithm, federation=federation,
            noise={"sigma": float(noise.get("sigma", 0.0)),
                   "model": noise.get("model", "gaussian-isotropic")},
            gap={"D": float(D),
                 "center": gap.get("center", "z0"),
                 "method": gap.get("method", "auto")},
            regularizer=reg,
            sweep=sweep, seeds=list(seeds),
            log_every=_get(tree, "log_every"),
            z0=z0,
            output=_get(tree, "output"),
            timing=bool(_get(tree, "timing", False)),
            max_runs=int(_get(tree, "max_runs", RUN_CAP_DEFAULT)),
            raw=tree)
        n_runs = len(cfg.expand_runs())
        _expect(n_runs <= cfg.max_runs, "sweep",
                f"sweep cross-product yields {n_runs} runs, over the cap "
                f"of {cfg.max_runs}")
        return cfg

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        with open(path) as fh:
            try:
                tree = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError("<file>", f"not valid JSON: {exc}") from exc
        return ExperimentConfig.from_dict(tree)

    def expand_runs(self) -> list[dict]:
        """Cross product of sweep axes and seeds, in enumeration order."""
        axes = []
        for name in ("M", "K", "R", "sigma"):
            if name in self.sweep:
                axes.append([(name, v) for v in self.sweep[name]])
        base = {"M": self.federation["M"], "K": self.federation["K"],
                "R": self.federation["R"], "sigma": self.noise["sigma"]}
        runs = []
        for combo in itertools.product(*axes) if axes else [()]:
            point = dict(base)
            point.update(dict(combo))
            for seed in self.seeds:
                spec = dict(point)
                spec["seed"] = seed
                runs.append(spec)
        return runs


def _run_master_seed(seed: int, M: int, K: int, R: int, sigma: float) -> int:
    """Seed derived from the run's own parameters, not its sweep position."""
    sigma_bits = struct.unpack("<Q", struct.pack("<d", float(sigma)))[0]
    seq = np.random.SeedSequence((seed, M, K, R, sigma_bits))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def build_problem(cfg: ExperimentConfig) -> OperatorSpec:
    if "file" in cfg.problem:
        try:
            op = load_affine_text(cfg.problem["file"])
        except (OSError, ValueError) as exc:
            raise ConfigError("problem.file", str(exc)) from exc
        # from_dict cannot check z0 before the file gives the dimension
        _expect(cfg.z0 is None or len(cfg.z0) == op.dim, "z0",
                f"must have {op.dim} entries, the dimension of problem.file")
        return op
    try:
        return make_test_problem(cfg.problem["kind"], cfg.problem["dim"],
                                 cfg.problem.get("params"),
                                 cfg.problem.get("seed", 0))
    except ValueError as exc:
        raise ConfigError("problem", str(exc)) from exc


def _hetero_offsets(op: OperatorSpec, cfg: ExperimentConfig,
                    M: int) -> tuple[np.ndarray, float]:
    """Per-client offsets (summing to zero): client m queries V + offsets[m]."""
    scale = float(_get(cfg.problem, "hetero.offset_scale", 1.0))
    rng = np.random.default_rng((cfg.problem.get("seed", 0), 0x4E7E))
    offsets = rng.standard_normal((M, op.dim)) * scale
    offsets -= offsets.mean(axis=0)
    declared_xi = _get(cfg.problem, "hetero.xi")
    xi = (float(declared_xi) if declared_xi is not None
          else float(np.linalg.norm(offsets, axis=1).max()))
    return offsets, xi


def _resolve_plan(cfg: ExperimentConfig, op: OperatorSpec, M: int, K: int,
                  R: int, sigma: float, xi: float | None):
    """Step sizes from the theorem schedule, with explicit overrides."""
    algo = cfg.algorithm
    schedule = algo.get("schedule")
    eta = algo.get("eta")
    gamma = algo.get("gamma")
    delta = algo.get("delta")
    H = algo.get("H")
    if schedule is not None:
        D = cfg.gap["D"]
        G_eff = op.G
        if not np.isfinite(G_eff) and schedule in ("T3", "T4", "T5", "T7"):
            center = np.zeros(op.dim) if cfg.z0 is None else np.asarray(cfg.z0)
            G_eff = operator_bound_on_ball(op, center, 10.0 * D)
        consts = constants_of(op, xi=xi, G_override=G_eff)
        try:
            plan = step_size(schedule, consts,
                             {"M": M, "K": K, "R": R, "sigma": sigma, "D": D},
                             delta_rule=algo.get("delta_rule", "sqrt-d"))
        except ValueError as exc:
            raise ConfigError("algorithm.schedule", str(exc)) from exc
        eta = eta if eta is not None else plan.eta
        gamma = gamma if gamma is not None else plan.gamma
        delta = delta if delta is not None else plan.delta
    return eta, gamma, (delta or 0.0), H


def _run_once(cfg: ExperimentConfig, spec: dict
              ) -> tuple[Trajectory, OperatorSpec, float]:
    """Build and run one (sweep point, seed) run of the configured algorithm.

    Returns the trajectory, the operator its gaps are measured on (also
    for heterogeneous clients, whose offsets sum to zero), and the
    runner's wall time in seconds.
    """
    M, K, R = spec["M"], spec["K"], spec["R"]
    sigma, seed = spec["sigma"], spec["seed"]
    op = build_problem(cfg)
    algo_id = cfg.algorithm["id"]

    offsets = xi = None
    if algo_id == "lesgd-hetero":
        offsets, xi = _hetero_offsets(op, cfg, M)
    eta, gamma, delta, H = _resolve_plan(cfg, op, M, K, R, sigma, xi)

    run_cfg = RunConfig(M=M, K=K, R=R, eta=eta, gamma=gamma, delta=delta,
                        H=H, log_every=cfg.log_every,
                        master_seed=_run_master_seed(seed, M, K, R, sigma),
                        z0=None if cfg.z0 is None else np.asarray(cfg.z0, float))
    noise_model = cfg.noise["model"] if sigma > 0 else "none"
    oracle = OracleSpec(base=op, noise_model=noise_model, sigma=sigma)

    t0 = time.perf_counter()
    if algo_id == "lesgd-hetero":
        traj = run_lesgd_hetero(oracle, offsets, run_cfg)
    elif algo_id == "lda":
        traj = run_lda(oracle, cfg.regularizer, run_cfg)
    else:
        runner = {"lesgd": run_lesgd, "lippax": run_lippax,
                  "slippax": run_slippax, "lsgd": run_lsgd}[algo_id]
        traj = runner(oracle, run_cfg)
    return traj, op, time.perf_counter() - t0


def _execute_run(cfg: ExperimentConfig, spec: dict) -> list[ResultRow]:
    traj, gap_op, wall_s = _run_once(cfg, spec)
    for message in traj.warnings:
        warnings.warn(message, RuntimeWarning)
    run_cfg = traj.config
    wall_ms = wall_s * 1e3 if cfg.timing else None

    center = (np.asarray(cfg.gap["center"], float)
              if not isinstance(cfg.gap["center"], str)
              else run_cfg.initial_point(gap_op.dim))
    solution = gap_op.solution
    algo_id = cfg.algorithm["id"]
    use_composite = cfg.regularizer.kind != "zero" and algo_id == "lda"
    rows = []
    for rec in traj.records:
        if use_composite:
            est = composite_gap(gap_op, cfg.regularizer, rec.output_avg,
                                center, cfg.gap["D"])
        else:
            est = restricted_gap(gap_op, rec.output_avg, center, cfg.gap["D"],
                                 method=cfg.gap["method"])
        dist = (float(np.linalg.norm(rec.output_avg - solution))
                if solution is not None else None)
        rows.append(ResultRow(
            algo=algo_id, theorem_id=cfg.algorithm.get("schedule"),
            d=gap_op.dim, M=run_cfg.M, K=run_cfg.K, R=run_cfg.R,
            sigma=spec["sigma"], eta=run_cfg.eta, gamma=run_cfg.gamma,
            delta=run_cfg.delta, H=run_cfg.H, seed=spec["seed"],
            round=rec.t // run_cfg.K, gap_value=est.value,
            gap_certified=est.certified, drift_z=rec.drift_z,
            dist_to_solution=dist, wall_ms=wall_ms))
    return rows


def run_experiment(config: ExperimentConfig | dict, workers: int = 1,
                   out_path: str | None = None) -> list[ResultRow]:
    """Execute all (sweep point x seed) runs; write CSV when a path is set."""
    cfg = (config if isinstance(config, ExperimentConfig)
           else ExperimentConfig.from_dict(config))
    specs = cfg.expand_runs()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_run = list(pool.map(lambda s: _execute_run(cfg, s), specs))
    else:
        per_run = [_execute_run(cfg, s) for s in specs]
    rows = [row for chunk in per_run for row in chunk]
    path = out_path or cfg.output
    if path:
        write_csv(rows, path)
    return rows


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def rows_to_csv(rows: Sequence[ResultRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(getattr(row, col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def write_csv(rows: Sequence[ResultRow], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(rows_to_csv(rows))


def _row_get(row, name: str):
    if isinstance(row, dict):
        return row[name]
    return getattr(row, name)


def fit_rate(rows: Sequence, group_by: Sequence[str],
             x_name: str) -> dict[tuple, RateFit]:
    """Least squares on (log x, log gap) over final-round rows, per group."""
    final: dict[tuple, list[tuple[float, float]]] = {}
    excluded: dict[tuple, int] = {}
    for row in rows:
        if int(_row_get(row, "round")) != int(_row_get(row, "R")):
            continue
        key = tuple(_row_get(row, g) for g in group_by)
        x = float(_row_get(row, x_name))
        gap = float(_row_get(row, "gap_value"))
        if gap <= 0:
            excluded[key] = excluded.get(key, 0) + 1
            continue
        final.setdefault(key, []).append((x, gap))
    fits = {}
    for key, pairs in final.items():
        xs = sorted({p[0] for p in pairs})
        if len(xs) < 4:
            raise ValueError(
                f"group {key}: need >= 4 distinct {x_name} values, got {len(xs)}")
        lx = np.log([p[0] for p in pairs])
        ly = np.log([p[1] for p in pairs])
        slope, intercept = np.polyfit(lx, ly, 1)
        pred = slope * lx + intercept
        ss_res = float(((ly - pred) ** 2).sum())
        ss_tot = float(((ly - ly.mean()) ** 2).sum())
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        fits[key] = RateFit(x_name=x_name, pairs=sorted(pairs),
                            slope=float(slope), intercept=float(intercept),
                            r2=r2, n_excluded=excluded.get(key, 0))
    return fits


def _strip_reduction_axis(config: dict) -> dict:
    """Everything a reduction pair is allowed to differ on, removed."""
    out = {k: v for k, v in config.items() if k != "regularizer"}
    algo = dict(out.get("algorithm", {}))
    algo.pop("id", None)
    algo.pop("delta", None)
    out["algorithm"] = algo
    prob = dict(out.get("problem", {}))
    prob.pop("hetero", None)
    out["problem"] = prob
    return out


def compare_reduction(config_a: dict, config_b: dict
                      ) -> tuple[bool, float]:
    """Run two configs that differ only along a reduction axis and compare
    every logged iterate; returns (exactly equal, max coordinate deviation)."""
    if _strip_reduction_axis(config_a) != _strip_reduction_axis(config_b):
        raise ValueError("configs differ outside the reduction axis")
    traj_a = run_single(ExperimentConfig.from_dict(config_a))
    traj_b = run_single(ExperimentConfig.from_dict(config_b))
    dev = 0.0
    if len(traj_a.records) != len(traj_b.records):
        raise ValueError("trajectories logged different round sets")
    for ra, rb in zip(traj_a.records, traj_b.records):
        dev = max(dev, float(np.abs(ra.mean_iterate - rb.mean_iterate).max()),
                  float(np.abs(ra.output_avg - rb.output_avg).max()))
    dev = max(dev, float(np.abs(traj_a.final_output - traj_b.final_output).max()))
    return dev == 0.0, dev


def run_single(cfg: ExperimentConfig) -> Trajectory:
    """Run the configured algorithm once (no sweep, first seed), returning
    the raw trajectory rather than CSV rows."""
    if cfg.sweep:
        raise ValueError("run_single expects a config without sweep axes")
    return _run_once(cfg, cfg.expand_runs()[0])[0]


def verify_problem(cfg: ExperimentConfig, n_pairs: int = 10_000,
                   seed: int = 0) -> list[str]:
    """Property/invariant suite for the configured problem; returns failures."""
    op = build_problem(cfg)
    failures = []
    radius = 10.0 * cfg.gap["D"]
    report = verify_properties(op, n_pairs=n_pairs, domain_radius=radius,
                               seed=seed)
    if report.monotone_violations > 0:
        failures.append(f"monotonicity: {report.monotone_violations} "
                        f"violating pairs out of {report.pairs_tested}")
    if report.measured_L > op.L * (1 + 1e-6):
        failures.append(f"smoothness: measured L {report.measured_L:g} "
                        f"exceeds declared {op.L:g}")
    if np.isfinite(op.G) and report.measured_G > op.G:
        failures.append(f"bound: measured G {report.measured_G:g} exceeds "
                        f"declared {op.G:g}")
    if np.isfinite(op.beta) and report.measured_beta > op.beta * (1 + 1e-6):
        failures.append(f"co-coercivity: measured beta {report.measured_beta:g}"
                        f" exceeds declared {op.beta:g}")
    sigma = cfg.noise["sigma"]
    if sigma > 0:
        oracle = OracleSpec(base=op, noise_model=cfg.noise["model"],
                            sigma=sigma)
        stream = RngStream(seed)
        z = np.zeros(op.dim)
        n = 20_000
        draws = np.stack([
            sample_oracle(oracle, z, stream.at(0, i)) for i in range(n)])
        err = np.abs(draws.mean(axis=0) - sample_oracle(
            OracleSpec(base=op, noise_model="none"), z))
        if np.any(err > 5 * sigma / math.sqrt(n)):
            failures.append(f"oracle bias: max coordinate error {err.max():g}")
        second = float((np.linalg.norm(
            draws - sample_oracle(OracleSpec(base=op, noise_model="none"), z),
            axis=1) ** 2).mean())
        if second > sigma ** 2 * (1 + 5 / math.sqrt(n)):
            failures.append(f"oracle variance {second:g} exceeds sigma^2")
    return failures
