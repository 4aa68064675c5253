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
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from .algorithms import (ALGO_IDS, DELTA_RULES, THEOREM_IDS, RunConfig,
                         Trajectory, constants_of, derived_gamma, run_lda,
                         run_lesgd, run_lesgd_hetero, run_lippax, run_lsgd,
                         run_slippax, step_size)
from .gaps import composite_gap
from .operators import (KINDS, OperatorSpec, load_affine_text,
                        make_test_problem, operator_bound_on_ball,
                        verify_properties)
from .oracles import NOISE_MODELS, OracleSpec, sample_oracle
from .regularizers import REG_KINDS, RegularizerSpec, ZERO_REG
from .rng import RngStream


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
    gap_value: float | None
    gap_certified: bool | None
    drift_z: float | None
    dist_to_solution: float | None
    status: str


CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


@dataclass
class RateFit:
    """Log-log least-squares fit of gap against one experiment axis."""

    x_name: str
    pairs: list[tuple[float, float]]
    slope: float
    intercept: float
    r2: float
    n_excluded: int = 0


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


def _is_number(v) -> bool:
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _positive(v) -> bool:
    return _is_number(v) and v > 0


def _nonnegative(v) -> bool:
    return _is_number(v) and v >= 0


def _count(v) -> bool:
    return _is_int(v) and v >= 1


def _or_null(check):
    """The check, for a field where null means 'use the default'."""
    return lambda v: v is None or check(v)


def _list_of(check):
    """A nonempty list whose items all pass the check."""
    return lambda v: isinstance(v, list) and bool(v) and all(map(check, v))


_is_point = _list_of(_is_number)
_COUNT = "must be an integer >= 1"
_POSITIVE = "must be a positive number"
_NONNEGATIVE = "must be a nonnegative number"
_BOUND = (None, lambda v: _is_number(v) or _is_point(v),
          "must be a finite number or a list of them")
REQUIRED = object()  # the default of a field every config must give

# Every field a config may hold, each declared once.  A block is a dict
# of its fields; a plain field is (default, check, message).  A given
# field, null included, must pass its check; an absent one takes its
# default.  Any other key is a typo and rejected.
SCHEMA = {
    "problem": {
        "kind": (REQUIRED, KINDS.__contains__, f"must be one of {KINDS}"),
        "dim": (None, _count, _COUNT),
        "file": (None, lambda v: isinstance(v, str), "must be a path"),
        "seed": (0, lambda v: _is_int(v) and v >= 0,
                 "must be an integer >= 0"),
        "params": (None, lambda v: isinstance(v, dict), "must be an object"),
        "hetero": {"offset_scale": (1.0, _nonnegative, _NONNEGATIVE),
                   "xi": (None, _nonnegative, _NONNEGATIVE)},
    },
    "algorithm": {
        "id": (REQUIRED, ALGO_IDS.__contains__, f"must be one of {ALGO_IDS}"),
        "schedule": (None, _or_null(THEOREM_IDS.__contains__),
                     f"must be one of {THEOREM_IDS}"),
        "eta": (None, _or_null(_positive), _POSITIVE),
        "gamma": (None, _or_null(_positive), _POSITIVE),
        "delta": (None, _or_null(_nonnegative), _NONNEGATIVE),
        "H": (None, _or_null(_count), _COUNT),
        "delta_rule": ("sqrt-d", DELTA_RULES.__contains__,
                       f"must be one of {DELTA_RULES}"),
    },
    "federation": {name: (REQUIRED, _count, _COUNT) for name in "MKR"},
    "noise": {
        "sigma": (0.0, _nonnegative, _NONNEGATIVE),
        "model": ("gaussian-isotropic", NOISE_MODELS.__contains__,
                  f"must be one of {NOISE_MODELS}"),
    },
    "gap": {
        "D": (1.0, _positive, _POSITIVE),
        "center": ("z0", lambda v: v == "z0" or _is_point(v),
                   'must be "z0" or a list of finite numbers'),
    },
    "regularizer": {
        "kind": ("zero", REG_KINDS.__contains__,
                 f"must be one of {REG_KINDS}"),
        "lam": (0.0, _nonnegative, _NONNEGATIVE),
        "lo": _BOUND,
        "hi": _BOUND,
    },
    # each sweep axis replaces its base value in the runs it spans
    "sweep": {
        **{name: (None, _list_of(_count), "must be a nonempty list of "
                  "integers >= 1") for name in "MKR"},
        "sigma": (None, _list_of(_nonnegative),
                  "must be a nonempty list of nonnegative numbers"),
    },
    "seeds": ([0], _list_of(lambda v: _is_int(v) and v >= 0),
              "must be a nonempty list of integers >= 0"),
    "log_every": (None, _or_null(_count), _COUNT),
    "z0": (None, _or_null(_is_point), "must be a list of finite numbers"),
    "output": (None, _or_null(lambda v: isinstance(v, str)), "must be a path"),
    "max_runs": (4096, _count, _COUNT),
}

# Fields only these ids read; on another id the CSV would show unused values
READERS = {
    "algorithm.H": ("lippax", "slippax"),
    "algorithm.gamma": ("lippax", "slippax"),
    "algorithm.delta": ("slippax",),
    "regularizer": ("lda",),
    "problem.hetero": ("lesgd-hetero",),
}


def _fill(schema: dict, node, path: str) -> dict:
    """node checked against a SCHEMA block, every default filled in.

    A missing required field of an empty or absent block is reported
    at the block.
    """
    _expect(isinstance(node, dict), path or "<config>", "must be an object")
    for key in node:
        _expect(key in schema, f"{path}.{key}" if path else str(key),
                f"unknown field; expected one of {tuple(schema)}")
    out = {}
    for key, spec in schema.items():
        where = f"{path}.{key}" if path else key
        if isinstance(spec, dict):
            out[key] = _fill(spec, node.get(key, {}), where)
            continue
        default, check, message = spec
        if key in node:
            _expect(check(node[key]), where, message)
            out[key] = node[key]
        else:
            _expect(default is not REQUIRED, where if node else path,
                    f"missing required field {where}")
            out[key] = default
    return out


@dataclass
class ExperimentConfig:
    """Validated experiment description; build with from_dict / from_file.

    Every block holds all of its SCHEMA fields, defaults filled in,
    except ``sweep``, which holds the swept axes only.
    """

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
    max_runs: int

    @staticmethod
    def from_dict(tree: dict) -> "ExperimentConfig":
        c = _fill(SCHEMA, tree, "")
        problem, algorithm = c["problem"], c["algorithm"]
        reg = c["regularizer"]
        _expect(problem["dim"] is not None or problem["file"] is not None,
                "problem.dim", "required when no problem.file is given")
        _expect(problem["file"] is None or problem["kind"] == "affine",
                "problem.kind", 'must be "affine" with a problem.file')
        _expect(problem["file"] is None or problem["params"] is None,
                "problem.params", "not read with a problem.file")
        # step sizes come from the schedule or from the config, never both
        scheduled = algorithm["schedule"] is not None
        _expect(algorithm["eta"] is not None or scheduled, "algorithm.eta",
                "required when no theorem schedule is given")
        for name in ("eta", "gamma", "delta"):
            _expect(not scheduled or algorithm[name] is None,
                    f"algorithm.{name}", "already set by algorithm.schedule")
        for path, ids in READERS.items():
            block, _, key = path.rpartition(".")  # problem/algorithm: required
            _expect((tree[block] if block else tree).get(key) is None or
                    algorithm["id"] in ids, path,
                    f"read only by algorithm.id {' or '.join(ids)}")
        _expect("regularizer" not in tree or "kind" in tree["regularizer"],
                "regularizer.kind", "required when the block is given")
        for name in ("lo", "hi"):
            _expect(reg["kind"] != "box-indicator" or reg[name] is not None,
                    f"regularizer.{name}", "required for a box-indicator")
        try:
            regularizer = RegularizerSpec(**reg)
        except ValueError as exc:
            raise ConfigError("regularizer", str(exc)) from exc
        c["noise"]["sigma"] = float(c["noise"]["sigma"])
        c["gap"]["D"] = float(c["gap"]["D"])
        sweep = {k: v for k, v in c["sweep"].items() if v is not None}
        if "sigma" in sweep:
            sweep["sigma"] = [float(v) for v in sweep["sigma"]]
        # sigma alone decides whether a run draws noise
        _expect(c["noise"]["model"] != "none" or not any(
            [c["noise"]["sigma"], *sweep.get("sigma", [])]), "noise.model",
            '"none" needs noise.sigma and every sweep.sigma to be 0')
        cfg = ExperimentConfig(**dict(c, regularizer=regularizer, sweep=sweep,
                                      seeds=list(c["seeds"])))
        if problem["file"] is None:
            cfg.check_dimension(problem["dim"])
        n_runs = len(cfg.expand_runs())
        _expect(n_runs <= cfg.max_runs, "sweep",
                f"sweep cross-product yields {n_runs} runs, over the cap "
                f"of {cfg.max_runs}")
        return cfg

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                tree = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, or not JSON
            raise ConfigError("<file>", f"cannot load {path}: {exc}") from exc
        return ExperimentConfig.from_dict(tree)

    def check_dimension(self, dim: int) -> None:
        """Every point the config gives has dim entries."""
        for path, point in (("z0", self.z0),
                            ("gap.center", self.gap["center"]),
                            ("regularizer.lo", self.regularizer.lo),
                            ("regularizer.hi", self.regularizer.hi)):
            _expect(not isinstance(point, list) or len(point) == dim, path,
                    f"must have {dim} entries, the problem's dimension")

    def gap_center(self, dim: int) -> np.ndarray:
        """Center of the gap ball: gap.center, or the initial point."""
        center = self.gap["center"]
        if center == "z0":
            center = [0.0] * dim if self.z0 is None else self.z0
        return np.asarray(center, float)

    def expand_runs(self) -> list[dict]:
        """Cross product of sweep axes and seeds, in enumeration order."""
        base = dict(self.federation, sigma=self.noise["sigma"])
        axes = [[(name, v) for v in self.sweep[name]]
                for name in ("M", "K", "R", "sigma") if name in self.sweep]
        return [dict(base, **dict(combo), seed=seed)
                for combo in itertools.product(*axes) for seed in self.seeds]


def _run_master_seed(seed: int, M: int, K: int, R: int, sigma: float) -> int:
    """Seed derived from the run's own parameters, not its sweep position."""
    sigma_bits = struct.unpack("<Q", struct.pack("<d", float(sigma)))[0]
    seq = np.random.SeedSequence((seed, M, K, R, sigma_bits))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def build_problem(cfg: ExperimentConfig) -> OperatorSpec:
    """The configured operator, checked against the config's points."""
    problem = cfg.problem
    if problem["file"] is not None:
        try:
            op = load_affine_text(problem["file"])
        except (OSError, ValueError) as exc:
            raise ConfigError("problem.file", str(exc)) from exc
        # from_dict cannot check points before the file gives the dimension
        _expect(problem["dim"] in (None, op.dim), "problem.dim",
                f"must be {op.dim}, the dimension of problem.file")
        cfg.check_dimension(op.dim)
    else:
        try:
            op = make_test_problem(problem["kind"], problem["dim"],
                                   problem["params"], problem["seed"])
        except (TypeError, ValueError) as exc:
            raise ConfigError("problem", str(exc)) from exc
    reg = cfg.regularizer  # zero unless the algorithm is lda
    if reg.kind == "box-indicator":
        center = cfg.gap_center(op.dim)
        _expect(np.linalg.norm(np.clip(center, reg.lo, reg.hi) - center)
                <= cfg.gap["D"], "gap.D",
                "the gap ball must meet the box of the regularizer")
    return op


def _hetero_offsets(op: OperatorSpec, cfg: ExperimentConfig,
                    M: int) -> tuple[np.ndarray, float]:
    """Per-client offsets (summing to zero): client m queries V + offsets[m]."""
    hetero = cfg.problem["hetero"]
    rng = np.random.default_rng((cfg.problem["seed"], 0x4E7E))
    offsets = rng.standard_normal((M, op.dim)) * float(hetero["offset_scale"])
    offsets -= offsets.mean(axis=0)
    xi = (float(hetero["xi"]) if hetero["xi"] is not None
          else float(np.linalg.norm(offsets, axis=1).max()))
    return offsets, xi


def _resolve_plan(cfg: ExperimentConfig, op: OperatorSpec, spec: dict,
                  xi: float | None):
    """(eta, gamma, delta) as configured, or as the schedule gives them."""
    algo, D = cfg.algorithm, cfg.gap["D"]
    if algo["schedule"] is None:
        gamma = algo["gamma"]
        if gamma is None and algo["id"] in READERS["algorithm.gamma"]:
            try:
                gamma = derived_gamma(algo["eta"], op.L)
            except OverflowError as exc:
                raise ConfigError("algorithm.eta", "too small: the derived "
                                  "inner step gamma overflows") from exc
            _expect(gamma > 0, "algorithm.eta",
                    "too large: the derived inner step gamma is 0")
        return algo["eta"], gamma, algo["delta"] or 0.0
    center = np.zeros(op.dim) if cfg.z0 is None else np.asarray(cfg.z0)
    G = operator_bound_on_ball(op, center, 10.0 * D)
    try:
        plan = step_size(algo["schedule"], constants_of(op, xi, G),
                         dict(spec, D=D), delta_rule=algo["delta_rule"])
    except (ArithmeticError, ValueError) as exc:
        raise ConfigError("algorithm.schedule",
                          f"no step size for this run: {exc}") from exc
    return plan.eta, None, plan.delta  # the runner derives gamma from eta


def _run_once(cfg: ExperimentConfig, spec: dict
              ) -> tuple[Trajectory, OperatorSpec]:
    """Build and run one (sweep point, seed) run of the configured algorithm.

    Returns the trajectory and the operator its gaps are measured on
    (also for heterogeneous clients, whose offsets sum to zero).
    """
    M, sigma = spec["M"], spec["sigma"]
    op = build_problem(cfg)
    algo_id = cfg.algorithm["id"]

    offsets = xi = None
    if algo_id == "lesgd-hetero":
        offsets, xi = _hetero_offsets(op, cfg, M)
    eta, gamma, delta = _resolve_plan(cfg, op, spec, xi)

    run_cfg = RunConfig(M=M, K=spec["K"], R=spec["R"], eta=eta, gamma=gamma,
                        delta=delta, H=cfg.algorithm["H"],
                        log_every=cfg.log_every,
                        master_seed=_run_master_seed(**spec),
                        z0=None if cfg.z0 is None else np.asarray(cfg.z0, float))
    oracle = OracleSpec(base=op, noise_model=cfg.noise["model"], sigma=sigma)

    if algo_id == "lesgd-hetero":
        traj = run_lesgd_hetero(oracle, offsets, run_cfg)
    elif algo_id == "lda":
        traj = run_lda(oracle, cfg.regularizer, run_cfg)
    else:
        runner = {"lesgd": run_lesgd, "lippax": run_lippax,
                  "slippax": run_slippax, "lsgd": run_lsgd}[algo_id]
        traj = runner(oracle, run_cfg)
    return traj, op


def _execute_run(cfg: ExperimentConfig, spec: dict) -> list[ResultRow]:
    traj, gap_op = _run_once(cfg, spec)
    for message in traj.warnings:
        warnings.warn(message, RuntimeWarning)
    run_cfg = traj.config

    center = cfg.gap_center(gap_op.dim)
    solution = gap_op.solution
    algo_id = cfg.algorithm["id"]
    rows = []
    for rec in traj.records:
        # from the first diverged record on, no gap, drift or distance
        # is written
        diverged = traj.diverged_at is not None and rec.t >= traj.diverged_at
        gap = certified = drift = dist = None
        if not diverged:
            # with the zero regularizer this is the restricted gap
            est = composite_gap(gap_op, cfg.regularizer, rec.output_avg,
                                center, cfg.gap["D"])
            gap, certified, drift = est.value, est.certified, rec.drift_z
            if solution is not None:
                dist = float(np.linalg.norm(rec.output_avg - solution))
        rows.append(ResultRow(
            algo=algo_id, theorem_id=cfg.algorithm["schedule"],
            d=gap_op.dim, M=run_cfg.M, K=run_cfg.K, R=run_cfg.R,
            sigma=spec["sigma"], eta=run_cfg.eta, gamma=run_cfg.gamma,
            delta=run_cfg.delta, H=run_cfg.H, seed=spec["seed"],
            round=rec.t // run_cfg.K, gap_value=gap,
            gap_certified=certified, drift_z=drift,
            dist_to_solution=dist,
            status="diverged" if diverged else "ok"))
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
    try:
        return row[name] if isinstance(row, dict) else getattr(row, name)
    except (KeyError, AttributeError):
        raise ValueError(f"rows have no {name!r} column") from None


def fit_rate(rows: Sequence, group_by: Sequence[str],
             x_name: str) -> dict[tuple, RateFit]:
    """Least squares on (log x, log gap) over final-round rows, per group.

    Rows whose gap is not positive, NaN or empty (a diverged run) are
    excluded and counted.
    """
    final: dict[tuple, list[tuple[float, float]]] = {}
    excluded: dict[tuple, int] = {}
    for row in rows:
        if int(_row_get(row, "round")) != int(_row_get(row, "R")):
            continue
        key = tuple(_row_get(row, g) for g in group_by)
        x = float(_row_get(row, x_name))
        gap = _row_get(row, "gap_value")
        # an empty gap is a diverged run's
        gap = math.nan if gap in (None, "") else float(gap)
        if not gap > 0:
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
    every logged iterate; returns (exactly equal, max coordinate deviation)."""
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
    dev = max(dev, float(np.abs(traj_a.final_output - traj_b.final_output).max()))
    return dev == 0.0, dev


def run_single(cfg: ExperimentConfig) -> Trajectory:
    """Run the configured algorithm once (no sweep, first seed), returning
    the raw trajectory rather than CSV rows."""
    if cfg.sweep:
        raise ValueError("run_single expects a config without sweep axes")
    return _run_once(cfg, cfg.expand_runs()[0])[0]


def verify_problem(cfg: ExperimentConfig) -> list[str]:
    """Property/invariant suite for the configured problem; returns failures."""
    op = build_problem(cfg)
    failures = []
    radius = 10.0 * cfg.gap["D"]
    report = verify_properties(op, n_pairs=10_000, domain_radius=radius,
                               seed=0)
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
    oracle = OracleSpec(base=op, noise_model=cfg.noise["model"], sigma=sigma)
    if oracle.is_stochastic():
        stream = RngStream(0)
        z = np.zeros(op.dim)
        n = 20_000
        # n independent draws at z: one stacked query on n path keys
        draws = sample_oracle(oracle, np.tile(z, (n, 1)),
                              [stream.at(0, i) for i in range(n)])
        exact = sample_oracle(OracleSpec(base=op, noise_model="none"), z)
        err = np.abs(draws.mean(axis=0) - exact)
        if np.any(err > 5 * sigma / math.sqrt(n)):
            failures.append(f"oracle bias: max coordinate error {err.max():g}")
        second = float((np.linalg.norm(draws - exact, axis=1) ** 2).mean())
        if second > sigma ** 2 * (1 + 5 / math.sqrt(n)):
            failures.append(f"oracle variance {second:g} exceeds sigma^2")
    return failures
