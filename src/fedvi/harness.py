"""Experiment configuration, sweeps, CSV emission, and rate regression.

A config is a JSON tree with problem / algorithm / federation / noise /
gap blocks plus optional sweep lists.  Output is deterministic: the
per-run seed is derived from the run's own parameters (seed entry and
sweep values), so reordering sweep lists never changes any run's rows.
Runs execute serially on the calling thread, and rows are written in
enumeration order.  A run that draws nothing (sigma 0, delta 0) does
not read its seed, and its first t steps do not depend on R, so
run_experiment simulates each distinct such trajectory once, at its
longest R, and every run on it reads its own records from it; each
diverging run still warns once, as it does alone.  The group's records
are evaluated once too: a record's gap and distance cells, computed for
the first run that writes it, are read by every later run of the group.
The distinct trajectories that share sigma, K, R, H and the record
cadence (and whether they smooth) are simulated as one stack of client
rows, one runner call of at most STACK_ROWS rows, each with its own M,
seed and step sizes; every CSV byte is the one each run writes alone.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import struct
import warnings
from dataclasses import dataclass, fields, replace
from typing import Iterator, Sequence

import numpy as np

from .algorithms import (ALGO_IDS, DELTA_RULES, THEOREM_IDS,
                         DivergenceWarning, RunConfig, RunStack, Trajectory,
                         constants_of, default_inner_steps, derived_gamma,
                         read_run, run_lda, run_lesgd, run_lesgd_hetero,
                         run_lippax, run_lsgd, run_slippax, step_size)
from .gaps import composite_gap
from .operators import (KINDS, OperatorSpec, _is_number, load_affine_text,
                        make_test_problem, verify_properties)
from .oracles import NOISE_MODELS, OracleSpec, draw_rows, sample_oracle
from .regularizers import REG_KINDS, RegularizerSpec
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

    pairs: list[tuple[float, float]]
    slope: float
    r2: float
    n_excluded: int = 0


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(path, message)


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
MAX_RUNS = 4096  # cap on a config's sweep points times seeds
# Client rows one runner call may stack (_stacks).  A step's arrays, and
# a pre-drawn block of one step, grow with a stack's rows, so this bounds
# a runner call's working memory whatever MAX_RUNS allows; a run with
# more clients is a stack of its own.  On acceptance criterion 2's
# fixture (d = 10, K = 8, R = 200, 20 seeds at each of M = 1, 4, 16) on
# a 2-core x86 host, caps of 64, 256 and 1024 rows took 4.6, 3.5 and
# 4.1 s (medians of 3; 6.4 s unstacked) at the same peak RSS.
STACK_ROWS = 256
# Largest gap.D, and largest distance from z0 to gap.center: squared
# distances overflow just above 1e154, and this leaves the gap
# evaluators room for the operator's constants.
MAX_GAP_RADIUS = 1e150

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
        "hetero": {"offset_scale": (1.0, _nonnegative, _NONNEGATIVE)},
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
        "D": (1.0, lambda v: _positive(v) and v <= MAX_GAP_RADIUS,
              f"must be a positive number at most {MAX_GAP_RADIUS:g}"),
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
        _expect(problem["file"] is None or "seed" not in tree["problem"] or
                algorithm["id"] == "lesgd-hetero", "problem.seed",
                "read with a problem.file only by algorithm.id lesgd-hetero")
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
        _expect("delta_rule" not in tree["algorithm"] or (
            algorithm["id"] == "slippax" and algorithm["schedule"] == "T5"),
            "algorithm.delta_rule",
            "read only by algorithm.id slippax under algorithm.schedule T5")
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
        # a run's seed derives from these values: a repeat reruns its runs
        for path, values in [("seeds", c["seeds"]),
                             *((f"sweep.{k}", v) for k, v in sweep.items())]:
            seen = set()
            for v in values:
                _expect(v not in seen, path, f"repeats {v!r}; each value "
                        "must be distinct")
                seen.add(v)
        # sigma alone decides whether a run draws noise
        _expect(c["noise"]["model"] != "none" or not any(
            [c["noise"]["sigma"], *sweep.get("sigma", [])]), "noise.model",
            '"none" needs noise.sigma and every sweep.sigma to be 0')
        cfg = ExperimentConfig(**dict(c, regularizer=regularizer, sweep=sweep,
                                      seeds=list(c["seeds"])))
        if problem["file"] is None:
            cfg.check_points(problem["dim"])
        n_runs = math.prod(map(len, sweep.values())) * len(cfg.seeds)
        _expect(n_runs <= MAX_RUNS, "sweep",
                f"sweep cross-product yields {n_runs} runs, over the cap "
                f"of {MAX_RUNS}")
        return cfg

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                tree = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, or not JSON
            raise ConfigError("<file>", f"cannot load {path}: {exc}") from exc
        return ExperimentConfig.from_dict(tree)

    def check_points(self, dim: int) -> None:
        """Every point the config gives has dim entries, and gap.center
        lies within MAX_GAP_RADIUS of z0."""
        for path, point in (("z0", self.z0),
                            ("gap.center", self.gap["center"]),
                            ("regularizer.lo", self.regularizer.lo),
                            ("regularizer.hi", self.regularizer.hi)):
            _expect(not isinstance(point, list) or len(point) == dim, path,
                    f"must have {dim} entries, the problem's dimension")
        with np.errstate(over="ignore"):  # an overflow is an inf distance
            offset = np.linalg.norm(self.gap_center(dim)
                                    - self.initial_point(dim))
        _expect(offset <= MAX_GAP_RADIUS, "gap.center",
                f"must lie within {MAX_GAP_RADIUS:g} of z0")

    def initial_point(self, dim: int) -> np.ndarray:
        """z0, or zeros of the problem's dimension."""
        return np.zeros(dim) if self.z0 is None else np.asarray(self.z0, float)

    def gap_center(self, dim: int) -> np.ndarray:
        """Center of the gap ball: gap.center, or the initial point."""
        center = self.gap["center"]
        if center == "z0":
            return self.initial_point(dim)
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
        cfg.check_points(op.dim)
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
                    M: int) -> np.ndarray:
    """Per-client offsets (summing to zero): client m queries V + offsets[m].
    A scale that leaves an offset not finite is rejected."""
    scale = cfg.problem["hetero"]["offset_scale"]
    rng = np.random.default_rng((cfg.problem["seed"], 0x4E7E))
    with np.errstate(over="ignore", invalid="ignore"):
        offsets = rng.standard_normal((M, op.dim)) * float(scale)
        offsets -= offsets.mean(axis=0)
    _expect(np.isfinite(offsets).all(), "problem.hetero.offset_scale",
            f"{scale!r} leaves a client offset that is not finite")
    return offsets


def _run_config(cfg: ExperimentConfig, op: OperatorSpec, spec: dict,
                offsets: np.ndarray | None) -> RunConfig:
    """The run's full parameter set, as the runner uses it and the CSV
    reports it: eta and delta as configured or scheduled; for LIPPAX and
    SLIPPAX only, gamma as configured or derived from eta, and H as
    configured or ``default_inner_steps(K, R)``; delta 0.0 for every id
    but SLIPPAX, the one that smooths; and a record every ``log_every``
    rounds (unset: R // 20, at least 1)."""
    algo, D = cfg.algorithm, cfg.gap["D"]
    eta, delta, gamma, H = algo["eta"], algo["delta"], algo["gamma"], algo["H"]
    z0 = cfg.initial_point(op.dim)
    blame = "algorithm.eta"  # the field a bad derived gamma is reported at
    if algo["schedule"] is not None:
        try:
            plan = step_size(algo["schedule"],
                             constants_of(op, z0, D, offsets),
                             dict(spec, D=D), delta_rule=algo["delta_rule"])
        except (ArithmeticError, ValueError) as exc:
            raise ConfigError("algorithm.schedule",
                              f"no step size for this run: {exc}") from exc
        eta, delta, blame = plan.eta, plan.delta, "algorithm.schedule"
    if algo["id"] in READERS["algorithm.gamma"]:
        H = H or default_inner_steps(spec["K"], spec["R"])
        try:
            gamma = gamma or derived_gamma(eta, op.L)
        except OverflowError as exc:
            raise ConfigError(blame, f"eta {eta:g} is too small: the derived "
                              "inner step gamma overflows") from exc
        _expect(gamma > 0, blame,
                f"eta {eta:g} is too large: the derived inner step gamma is 0")
    reach = D + float(np.linalg.norm(cfg.gap_center(op.dim) - z0))
    rounds = cfg.log_every or max(1, spec["R"] // 20)
    return RunConfig(M=spec["M"], K=spec["K"], R=spec["R"], eta=eta,
                     gamma=gamma, H=H,
                     delta=(delta or 0.0) if algo["id"] == "slippax" else 0.0,
                     record_every=rounds * spec["K"],
                     master_seed=_run_master_seed(**spec), z0=z0, reach=reach)


def _oracle(cfg: ExperimentConfig, op: OperatorSpec,
            spec: dict) -> OracleSpec:
    """The run's oracle: the configured noise on op."""
    return OracleSpec(base=op, noise_model=cfg.noise["model"],
                      sigma=spec["sigma"])


def _shared_plan(plans: Sequence[RunConfig]) -> RunConfig:
    """The run that every plan of a draw-free group can read its run from
    (:func:`read_run`): the longest plan, recording at the gcd of the
    plans' record_every and of the shorter plans' T."""
    longest = max(plans, key=lambda plan: plan.T)
    every = math.gcd(*(plan.record_every for plan in plans),
                     *(plan.T for plan in plans if plan.T < longest.T))
    return replace(longest, record_every=every)


def _simulate(cfg: ExperimentConfig, oracle: OracleSpec,
              offsets: Sequence[np.ndarray | None],
              stack: RunStack) -> tuple[Trajectory, ...]:
    """One runner call on a stack, one trajectory per run.  A run's own
    DivergenceWarning would name it at the stack's cadence and length,
    not as a plan reads it, so it is dropped; each plan's reading warns
    for itself."""
    algo_id = cfg.algorithm["id"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DivergenceWarning)
        if algo_id == "lesgd-hetero":
            return run_lesgd_hetero(oracle, np.concatenate(offsets), stack)
        if algo_id == "lda":
            return run_lda(oracle, cfg.regularizer, stack)
        runner = {"lesgd": run_lesgd, "lippax": run_lippax,
                  "slippax": run_slippax, "lsgd": run_lsgd}[algo_id]
        return runner(oracle, stack)


def _stacks(sigmas: Sequence[float],
            sims: Sequence[RunConfig]) -> list[list[int]]:
    """The simulations, by index, as stacks: in order, each joins the
    last stack of its kind (the same sigma, K, R, H and record_every,
    and whether it smooths) while that stack's rows stay within
    STACK_ROWS, and else starts one."""
    stacks: list[list[int]] = []
    last: dict = {}
    for g, (sigma, sim) in enumerate(zip(sigmas, sims)):
        kind = (sigma, sim.K, sim.R, sim.H, sim.record_every, sim.delta > 0)
        stack = last.get(kind)
        if stack is None or (sum(sims[h].M for h in stack) + sim.M
                             > STACK_ROWS):
            stack = last[kind] = []
            stacks.append(stack)
        stack.append(g)
    return stacks


def _runs(cfg: ExperimentConfig) -> Iterator[
        tuple[dict, OperatorSpec, RunConfig, Trajectory, dict]]:
    """Every (sweep point, seed) run of the configured algorithm, in
    enumeration order, as its spec, the operator its gaps are measured
    on (also for heterogeneous clients, whose offsets sum to zero), its
    parameters, its trajectory and its group's gap cells.

    A run that draws nothing (sigma 0, delta 0) takes steps that depend
    on the config and its (M, K, eta, gamma, H, delta) alone, so the
    runs with one such key are one group, simulated once, at
    :func:`_shared_plan`; a run that draws is a group of its own.  The
    groups' simulations are then stacked (:func:`_stacks`), and each
    stack is one runner call (:func:`_simulate`).  Every run is planned
    from the first run's operator before any runner call.  build_problem
    runs once per runner call, right before it, at the stack's first
    run: the first stack simulates on the planning operator, and each
    later one on one it builds.  Every run of a group reads the group's
    operator, trajectory and gap cells, which are dropped once its last
    run has read them.

    The gap cells map a step t to the (GapEstimate, dist_to_solution)
    of the group's record at t, filled by :func:`_execute_run`.  A gap's
    inputs (the config's operator, regularizer, centre and D) are the
    same for every run, so each record is evaluated once per group.
    """
    specs = cfg.expand_runs()
    op = build_problem(cfg)
    offsets = [_hetero_offsets(op, cfg, spec["M"])
               if cfg.algorithm["id"] == "lesgd-hetero" else None
               for spec in specs]
    plans = [_run_config(cfg, op, spec, offs)
             for spec, offs in zip(specs, offsets)]
    keys = [i if _oracle(cfg, op, spec).is_stochastic(plan.delta)
            else (plan.M, plan.K, plan.eta, plan.gamma, plan.H, plan.delta)
            for i, (spec, plan) in enumerate(zip(specs, plans))]
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    members = list(groups.values())
    group_of = {i: g for g, runs in enumerate(members) for i in runs}
    sims = [_shared_plan([plans[i] for i in runs]) for runs in members]
    stack_of = {g: stack for stack in _stacks(
        [specs[runs[0]]["sigma"] for runs in members], sims) for g in stack}
    shared: dict = {}
    for i, (spec, plan) in enumerate(zip(specs, plans)):
        g = group_of[i]
        if g not in shared:
            op = build_problem(cfg) if i else op
            stack = stack_of[g]
            trajs = _simulate(cfg, _oracle(cfg, op, spec),
                              [offsets[members[h][0]] for h in stack],
                              RunStack(tuple(sims[h] for h in stack)))
            shared.update((h, (op, traj, {})) for h, traj in zip(stack, trajs))
        group_op, group, cells = shared[g]
        traj = read_run(group, plan, cfg.algorithm["id"])
        if i == members[g][-1]:
            del shared[g]
        yield spec, group_op, plan, traj, cells


def _execute_run(cfg: ExperimentConfig, spec: dict, gap_op: OperatorSpec,
                 run_cfg: RunConfig, traj: Trajectory,
                 cells: dict) -> list[ResultRow]:
    """One run's rows: a gap, drift and distance per ok record; a
    record's gap and distance are computed only when its group's cells
    (:func:`_runs`) do not hold them yet."""
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
            if rec.t not in cells:
                # with the zero regularizer this is the restricted gap; an
                # overflow here is the run's own, which _round_loop reports
                with np.errstate(over="ignore", invalid="ignore"):
                    est = composite_gap(gap_op, cfg.regularizer,
                                        rec.output_avg, center, cfg.gap["D"])
                cells[rec.t] = est, (
                    None if solution is None
                    else float(np.linalg.norm(rec.output_avg - solution)))
            est, dist = cells[rec.t]
            gap, certified, drift = est.value, est.certified, rec.drift_z
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


def run_experiment(config: ExperimentConfig | dict,
                   workers: int = 1) -> list[ResultRow]:
    """Execute all (sweep point x seed) runs in enumeration order on the
    calling thread; write the CSV when the config's `output` is set.
    Runs that draw nothing and share their steps are simulated once
    (:func:`_runs`), each record of the shared trajectory is evaluated
    once, and each run writes the rows of its own records.
    `workers` changes nothing: `perfbench/` and the tests pass it, and
    ROADMAP item 8 deletes it."""
    cfg = (config if isinstance(config, ExperimentConfig)
           else ExperimentConfig.from_dict(config))
    path = cfg.output
    created = bool(path) and not os.path.exists(path)
    if path:
        # reject an unwritable path before the sweep, not after it; append
        # mode leaves an existing file as it is until the rows are written
        try:
            open(path, "a").close()
        except OSError as exc:
            raise ConfigError("output", f"cannot write {path}: "
                              f"{exc.strerror}") from None
    try:
        rows = [row for run in _runs(cfg) for row in _execute_run(cfg, *run)]
    except BaseException:
        if created:  # the probe's empty file, not a result
            os.remove(path)
        raise
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(rows_to_csv(rows))
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


def _row_get(row, name: str):
    try:
        return row[name] if isinstance(row, dict) else getattr(row, name)
    except (KeyError, AttributeError):
        raise ValueError(f"rows have no {name!r} column") from None


def fit_rate(rows: Sequence, group_by: Sequence[str],
             x_name: str) -> dict[tuple, RateFit]:
    """Least squares on (log x, log gap) over final-round rows, per group.

    Rows whose x or gap is not a positive finite number, or whose gap is
    empty (a diverged run), have no finite logarithm; they are excluded
    and counted.  A group with fewer than 4 distinct usable x values,
    every final row excluded included, raises a ValueError naming it
    and its excluded count; so do rows with no final round, as ().
    """
    final: dict[tuple, list[tuple[float, float]]] = {}
    excluded: dict[tuple, int] = {}
    for row in rows:
        if int(_row_get(row, "round")) != int(_row_get(row, "R")):
            continue
        key = tuple(_row_get(row, g) for g in group_by)
        pairs = final.setdefault(key, [])
        x = float(_row_get(row, x_name))
        gap = _row_get(row, "gap_value")
        # an empty gap is a diverged run's
        gap = math.nan if gap in (None, "") else float(gap)
        if not (0 < x < math.inf and 0 < gap < math.inf):
            excluded[key] = excluded.get(key, 0) + 1
            continue
        pairs.append((x, gap))
    fits = {}
    for key, pairs in (final or {(): []}).items():
        xs = sorted({p[0] for p in pairs})
        if len(xs) < 4:
            raise ValueError(
                f"group {key}: need >= 4 distinct {x_name} values, got "
                f"{len(xs)} ({excluded.get(key, 0)} excluded)")
        lx = np.log([p[0] for p in pairs])
        ly = np.log([p[1] for p in pairs])
        slope, intercept = np.polyfit(lx, ly, 1)
        pred = slope * lx + intercept
        ss_res = float(((ly - pred) ** 2).sum())
        ss_tot = float(((ly - ly.mean()) ** 2).sum())
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        fits[key] = RateFit(pairs=sorted(pairs), slope=float(slope), r2=r2,
                            n_excluded=excluded.get(key, 0))
    return fits


def verify_problem(cfg: ExperimentConfig) -> list[str]:
    """Property/invariant suite for the configured problem; returns failures."""
    op = build_problem(cfg)
    failures = []
    radius, n_pairs = 10.0 * cfg.gap["D"], 10_000
    report = verify_properties(op, n_pairs=n_pairs, domain_radius=radius,
                               seed=0)
    if report.monotone_violations > 0:
        failures.append(f"monotonicity: {report.monotone_violations} "
                        f"violating pairs out of {n_pairs}")
    if report.measured_L > op.L * (1 + 1e-6):
        failures.append(f"smoothness: measured L {report.measured_L:g} "
                        f"exceeds declared {op.L:g}")
    if np.isfinite(op.G) and report.measured_G > op.G:
        failures.append(f"bound: measured G {report.measured_G:g} exceeds "
                        f"declared {op.G:g}")
    if np.isfinite(op.beta) and report.measured_beta > op.beta * (1 + 1e-6):
        failures.append(f"co-coercivity: measured beta {report.measured_beta:g}"
                        f" exceeds declared {op.beta:g}")
    # noise rows are linear in sigma, so the largest sigma of any run
    # decides the bias and variance checks for all of them
    sigma = max([cfg.noise["sigma"], *cfg.sweep.get("sigma", [])])
    oracle = OracleSpec(base=op, noise_model=cfg.noise["model"], sigma=sigma)
    if oracle.is_stochastic():
        stream = RngStream(0)
        z = np.zeros(op.dim)
        n = 20_000
        # n independent draws at z: one stacked query on n path keys
        draws = draw_rows(oracle, [stream.at(0, i) for i in range(n)])
        samples = sample_oracle(oracle, np.tile(z, (n, 1)), draws=draws)
        exact = sample_oracle(OracleSpec(base=op), z)
        err = np.abs(samples.mean(axis=0) - exact)
        if np.any(err > 5 * sigma / math.sqrt(n)):
            failures.append(f"oracle bias: max coordinate error {err.max():g}")
        second = float((np.linalg.norm(samples - exact, axis=1) ** 2).mean())
        if second > sigma ** 2 * (1 + 5 / math.sqrt(n)):
            failures.append(f"oracle variance {second:g} exceeds sigma^2")
    return failures
