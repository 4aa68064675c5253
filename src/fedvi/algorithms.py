"""Federated algorithms over simulated clients.

Five methods plus a heterogeneous variant, all run by one round loop,
:func:`_round_loop`: clients take local steps and replace their states
with the across-client mean whenever mod(t, K) = 0.  The methods differ
only in the local step each one hands to that loop (extra-gradient,
inexact proximal point plus an extra step, plain SGD, dual averaging).
Oracle draws are keyed by (client, round, inner step, phase) so that
trajectories are bit-stable under any execution order, and so that the
exact reductions hold (dual averaging with zero regularizer == extra
SGD; smoothed inexact prox with delta = 0 == unsmoothed; zero client
offsets == homogeneous).  Every oracle query of a step is one
:func:`sample_oracle` call on the (M, d) client stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .gaps import dispersion
from .operators import OperatorSpec
from .oracles import OracleSpec, noiseless, sample_oracle
from .regularizers import RegularizerSpec, ZERO_REG, MirrorState, mirror_map
from .rng import PHASE_EXTRAPOLATE, PHASE_INNER, PHASE_UPDATE, RngStream

THEOREM_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8")
ALGO_IDS = ("lesgd", "lippax", "slippax", "lsgd", "lda", "lesgd-hetero")
DELTA_RULES = ("sqrt-d", "fourth-root-d")


def default_inner_steps(K: int, R: int) -> int:
    """Inner proximal loop length; O(log KR) keeps the 4^-H terms low-order."""
    return math.ceil(math.log(max(K * R, 2), 4)) + 2


@dataclass(frozen=True)
class RunConfig:
    """Federation shape, step sizes, and logging cadence for one run."""

    M: int = 1
    K: int = 1
    R: int = 1
    eta: float = 0.1
    H: int | None = None
    gamma: float | None = None
    delta: float = 0.0
    master_seed: int = 0
    log_every: int | None = None
    log_steps: bool = False
    z0: np.ndarray | None = None

    def __post_init__(self):
        if self.M < 1 or self.K < 1 or self.R < 1:
            raise ValueError("M, K, R must all be >= 1")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive when given")
        if self.H is not None and self.H < 1:
            raise ValueError("H must be >= 1")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")
        if self.log_every is not None and self.log_every < 1:
            raise ValueError("log_every must be >= 1")

    @property
    def T(self) -> int:
        return self.K * self.R

    def resolved_log_every(self) -> int:
        return self.log_every if self.log_every else max(1, self.R // 20)

    def record_cadence(self) -> int:
        """Steps between trajectory records (log_every communication rounds,
        or every step when log_steps is set)."""
        return 1 if self.log_steps else self.resolved_log_every() * self.K

    def initial_point(self, dim: int) -> np.ndarray:
        if self.z0 is None:
            return np.zeros(dim)
        z0 = np.asarray(self.z0, dtype=float)
        if z0.shape != (dim,):
            raise ValueError(f"z0 has shape {z0.shape}, expected ({dim},)")
        return z0.copy()


@dataclass
class TrajectoryRecord:
    t: int
    mean_iterate: np.ndarray
    output_avg: np.ndarray
    drift_z: float
    drift_x: float
    gap: float | None = None


@dataclass
class Trajectory:
    """Per-round log plus the running-average output of a run.

    ``diverged_at`` is the step of the first record whose client states
    or output are not all finite; that record and every later one are
    diverged.
    """

    algo: str
    records: list[TrajectoryRecord]
    final_output: np.ndarray
    config: RunConfig
    warnings: list[str] = field(default_factory=list)
    diverged_at: int | None = None

    @property
    def status(self) -> str:
        return "ok" if self.diverged_at is None else "diverged"


def _query_clients(oracle: OracleSpec, points: np.ndarray, stream: RngStream,
                   t: int, phase: int, inner: int = 0, delta: float = 0.0,
                   client: int = 0) -> np.ndarray:
    """One oracle draw per client, at that client's point and path.

    Row m of the (M, d) stack is client ``client + m`` on path
    (client + m, t, inner, phase), one :meth:`RngStream.at` key per row.
    All rows are one :func:`sample_oracle` call, which evaluates and
    draws each row on its own, so a client's bits never depend on M.
    """
    keys = None
    if oracle.is_stochastic(delta):
        keys = [stream.at(client + m, t, inner, phase)
                for m in range(len(points))]
    return sample_oracle(oracle, points, keys, delta)


def _round_loop(cfg: RunConfig, dim: int, step: Callable,
                algo: str) -> Trajectory:
    """The round structure every runner shares.

    ``step(t, z, sync)`` is the runner's local update of all M client
    states z; it returns ``(z_next, x, p)``: the next states before
    averaging, the points whose dispersion is drift_x, and the points
    whose client mean is the round's output.  The loop runs T = K R
    steps from z0, averages z_next across clients when ``sync`` (that
    is, mod(t, K) = 0), keeps the running mean of the round outputs
    (memory O(d)), and records every cadence steps and at t = T.  At
    each record it checks that z and the output are finite; the first
    record that fails marks the run diverged from that step on.
    """
    z = np.tile(cfg.initial_point(dim), (cfg.M, 1))
    output = np.zeros(dim)
    records: list[TrajectoryRecord] = []
    diverged_at = None
    cadence = cfg.record_cadence()
    for t in range(1, cfg.T + 1):
        sync = t % cfg.K == 0
        z, x, p = step(t, z, sync)
        if sync:
            z[:] = z.mean(axis=0)
        round_mean = p.mean(axis=0)
        output += (round_mean - output) / t
        if t % cadence == 0 or t == cfg.T:
            if diverged_at is None and not (np.isfinite(z).all()
                                            and np.isfinite(output).all()):
                diverged_at = t
            records.append(TrajectoryRecord(
                t=t, mean_iterate=round_mean, output_avg=output.copy(),
                drift_z=dispersion(z), drift_x=dispersion(x)))
    warnings = [] if diverged_at is None else [
        f"{algo} run diverged: non-finite iterates at step {diverged_at}"]
    return Trajectory(algo=algo, records=records, final_output=output,
                      config=cfg, warnings=warnings, diverged_at=diverged_at)


def _run_extragradient(oracle: OracleSpec, cfg: RunConfig,
                       reg: RegularizerSpec, algo: str,
                       offsets: np.ndarray | None = None) -> Trajectory:
    """Two-query extra-gradient family in the dual space (Eq. (5)/(7) shape).

    With ``offsets``, client m queries V(z) + offsets[m].
    """
    stream = RngStream(cfg.master_seed)
    eta = cfg.eta

    def query(points, t, phase):
        q = _query_clients(oracle, points, stream, t, phase)
        return q if offsets is None else q + offsets

    def step(t, z, sync):
        u = mirror_map(MirrorState(t - 1, eta), reg, z)
        x = z - eta * query(u, t, PHASE_EXTRAPOLATE)
        if sync:
            x[:] = x.mean(axis=0)
        v = mirror_map(MirrorState(t, eta), reg, x)
        return z - eta * query(v, t, PHASE_UPDATE), x, v
    return _round_loop(cfg, oracle.dim, step, algo)


def run_lesgd(oracle: OracleSpec, cfg: RunConfig) -> Trajectory:
    """Local Extra SGD: extrapolate at z, update with the operator at x."""
    return _run_extragradient(oracle, cfg, ZERO_REG, "lesgd")


def run_lda(oracle: OracleSpec, reg: RegularizerSpec,
            cfg: RunConfig) -> Trajectory:
    """Local dual averaging: extra-gradient on dual states, queried in primal.

    The round-t mirror map is the prox of phi with weight t * eta; with a
    zero regularizer the trajectory coincides with run_lesgd draw-for-draw.
    """
    traj = _run_extragradient(oracle, cfg, reg, "lda")
    if not (oracle.base.G < math.inf):
        traj.warnings.append(
            "operator does not declare a finite bound G; the composite "
            "guarantee does not cover this problem")
    return traj


def run_lesgd_hetero(oracle: OracleSpec, offsets: np.ndarray,
                     cfg: RunConfig) -> Trajectory:
    """LESGD where client m queries V(z) + offsets[m]; offsets is (M, d).

    The mean operator is V itself when the offsets sum to zero.
    """
    offsets = np.asarray(offsets, dtype=float)
    if offsets.shape != (cfg.M, oracle.dim):
        raise ValueError(f"offsets have shape {offsets.shape}, expected "
                         f"(M, d) = ({cfg.M}, {oracle.dim})")
    return _run_extragradient(oracle, cfg, ZERO_REG, "lesgd-hetero", offsets)


def run_lsgd(oracle: OracleSpec, cfg: RunConfig) -> Trajectory:
    """Plain local SGD on the operator; sound only for co-coercive classes."""
    stream = RngStream(cfg.master_seed)

    def step(t, x, sync):
        x = x - cfg.eta * _query_clients(oracle, x, stream, t,
                                         PHASE_EXTRAPOLATE)
        return x, x, x
    traj = _round_loop(cfg, oracle.dim, step, "lsgd")
    if not (oracle.base.beta < math.inf):
        traj.warnings.append(
            "operator does not declare a finite co-coercivity constant; "
            "plain local SGD has no guarantee on this problem")
    return traj


def solve_inner_prox(op: OperatorSpec | OracleSpec, z: np.ndarray, eta: float,
                     gamma: float, H: int, stream: RngStream | None = None,
                     delta: float = 0.0, client: int = 0,
                     round_index: int = 1) -> np.ndarray:
    """H SGD steps on the regularized operator V(x) + (x - anchor) / eta.

    ``z`` is one anchor (d,) on client ``client``'s paths, or an (M, d)
    stack whose row m is client ``client + m``.  Smoothing (delta > 0)
    perturbs only these inner queries.
    """
    oracle = op if isinstance(op, OracleSpec) else noiseless(op)
    if oracle.is_stochastic(delta) and stream is None:
        raise ValueError("stochastic inner loop requires an RngStream")
    anchor = np.atleast_2d(np.asarray(z, dtype=float))
    x = anchor.copy()
    for ell in range(1, H + 1):
        q = _query_clients(oracle, x, stream, round_index, PHASE_INNER, ell,
                           delta, client)
        x = x - gamma * (q + (x - anchor) / eta)
    return x.reshape(np.shape(z))


def _run_inexact_prox(oracle: OracleSpec, cfg: RunConfig, delta: float,
                      algo: str) -> Trajectory:
    stream = RngStream(cfg.master_seed)
    eta = cfg.eta
    H = cfg.H if cfg.H is not None else default_inner_steps(cfg.K, cfg.R)
    gamma = cfg.gamma
    if gamma is None:
        gamma = derived_gamma(eta, oracle.base.L)

    def step(t, z, sync):
        x = solve_inner_prox(oracle, z, eta, gamma, H, stream, delta,
                             round_index=t)
        # outer extra step: fresh, unsmoothed draw at x_t^m
        return z - eta * _query_clients(oracle, x, stream, t,
                                        PHASE_UPDATE), x, x
    # the trajectory reports the inner-loop parameters the run used
    return _round_loop(replace(cfg, H=H, gamma=gamma), oracle.dim, step, algo)


def run_lippax(oracle: OracleSpec, cfg: RunConfig) -> Trajectory:
    """Local inexact proximal point with an extra-gradient outer step."""
    return _run_inexact_prox(oracle, cfg, 0.0, "lippax")


def run_slippax(oracle: OracleSpec, cfg: RunConfig) -> Trajectory:
    """run_lippax with Gaussian smoothing of the inner-loop queries only."""
    return _run_inexact_prox(oracle, cfg, cfg.delta, "slippax")


def derived_gamma(eta: float, L: float) -> float:
    """Inner step size 1 / (eta (L + 1/eta)^2)."""
    return 1.0 / (eta * (L + 1.0 / eta) ** 2)


@dataclass(frozen=True)
class StepSizePlan:
    """Theorem schedule: eta as the min over branches, plus gamma/delta."""

    theorem_id: str
    eta: float
    gamma: float | None
    delta: float
    active_branch: int
    branches: tuple[float, ...]


def _require(constants: dict, shape: dict, names_c: Sequence[str],
             names_s: Sequence[str], theorem_id: str) -> None:
    for name in names_c:
        v = constants.get(name)
        if v is None or not np.isfinite(v):
            raise ValueError(f"{theorem_id} requires a finite {name}")
    for name in names_s:
        if shape.get(name) is None:
            raise ValueError(f"{theorem_id} requires {name}")


def step_size(theorem_id: str, constants: dict, shape: dict,
              delta_rule: str = "sqrt-d") -> StepSizePlan:
    """Exact theorem step-size schedule.

    ``constants`` carries {L, G, beta, Lambda, d, xi}; ``shape`` carries
    {M, K, R, sigma, D}.  Branches whose denominator vanishes (sigma = 0,
    or xi = 0 for T8) are treated as +inf; ties pick the lowest index.
    ``delta_rule`` selects the smoothing radius for T5: the theorem's
    eta*sigma/sqrt(d) or the appendix's eta*sigma/d**0.25.
    """
    if theorem_id not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    if delta_rule not in DELTA_RULES:
        raise ValueError(f"unknown delta rule {delta_rule!r}")
    _require(constants, shape, ["L"], ["M", "K", "R", "sigma", "D"], theorem_id)
    L = float(constants["L"])
    M, K, R = int(shape["M"]), int(shape["K"]), int(shape["R"])
    sigma, D = float(shape["sigma"]), float(shape["D"])
    e = math.e

    def div(num: float, den: float) -> float:
        return num / den if den > 0 else math.inf

    if theorem_id == "T1":
        branches = [
            div(1.0, math.sqrt(14 * K) * L),
            div(D * math.sqrt(M), sigma * math.sqrt(6 * K * R)),
            div(D ** (2 / 3), 936 ** (1 / 3) * e ** (2 / 3) * K ** (2 / 3)
                * R ** (1 / 3) * sigma ** (2 / 3) * L ** (1 / 3)),
        ]
    elif theorem_id == "T2":
        branches = [
            div(1.0, L),
            div(D * math.sqrt(M), sigma * math.sqrt(6 * K * R)),
            div(D ** (2 / 3), 180 ** (1 / 3) * K ** (2 / 3) * R ** (1 / 3)
                * sigma ** (2 / 3) * L ** (1 / 3)),
        ]
    elif theorem_id == "T3":
        _require(constants, shape, ["G"], [], theorem_id)
        branches = [
            div(1.0, L),
            div(D * math.sqrt(M), sigma * math.sqrt(K * R)),
            div(D ** (2 / 5), (60 * e) ** (1 / 5) * K ** (3 / 5) * R ** (1 / 5)
                * sigma ** (2 / 5) * L ** (2 / 5)),
            div(D ** (2 / 3), (54 * e) ** (1 / 3) * K ** (2 / 3) * R ** (1 / 3)
                * L ** (1 / 3) * sigma ** (2 / 3)),
            div(D, sigma * math.sqrt(15 * K * R)),
        ]
    elif theorem_id == "T4":
        _require(constants, shape, ["G", "Lambda"], [], theorem_id)
        Lam = float(constants["Lambda"])
        branches = [
            div(1.0, L),
            div(D ** (2 / 5), K ** (3 / 5) * R ** (1 / 5) * sigma ** (2 / 5)
                * L ** (2 / 5)),
            div(D ** (2 / 3), K ** (2 / 3) * R ** (1 / 3) * sigma ** (2 / 3)
                * L ** (1 / 3)),
            div(D ** (1 / 2), K ** (1 / 4) * R ** (1 / 4) * sigma ** (1 / 2)
                * L ** (1 / 2)),
            div(D ** (1 / 3), Lam ** (1 / 3) * sigma ** (2 / 3) * R ** (1 / 6)
                * K ** (1 / 6)),
            div(D * math.sqrt(M), K ** (1 / 2) * R ** (1 / 2) * sigma),
        ]
    elif theorem_id == "T5":
        _require(constants, shape, ["G", "d"], [], theorem_id)
        d = float(constants["d"])
        branches = [
            div(D ** (1 / 2), K ** (1 / 4) * R ** (1 / 4) * L ** (1 / 2)
                * sigma ** (1 / 2) * d ** (1 / 8)),
            div(D ** (2 / 5), sigma ** (2 / 5) * L ** (2 / 5) * d ** (1 / 10)
                * K ** (3 / 5) * R ** (1 / 5)),
            div(D ** (2 / 3), K ** (2 / 3) * R ** (1 / 3) * sigma ** (2 / 3)
                * L ** (2 / 3)),
            div(1.0, L),
        ]
    elif theorem_id == "T6":
        _require(constants, shape, ["beta"], [], theorem_id)
        beta = float(constants["beta"])
        branches = [
            div(1.0, beta),
            div(D * math.sqrt(M), math.sqrt(K * R) * sigma),
            div(D ** (2 / 3), 2 ** (1 / 2) * K ** (2 / 3) * R ** (1 / 3)
                * L ** (1 / 3) * sigma ** (2 / 3)),
        ]
    elif theorem_id == "T7":
        _require(constants, shape, ["G"], [], theorem_id)
        G = float(constants["G"])
        branches = [
            div(D * math.sqrt(M), sigma * math.sqrt(6 * K * R)),
            div(D ** (2 / 3), 17 ** (1 / 3) * K ** (1 / 3) * R ** (1 / 3)
                * L ** (2 / 3) * G ** (2 / 3)),
            div(1.0, math.sqrt(10) * L),
        ]
    else:  # T8
        _require(constants, shape, ["xi"], [], theorem_id)
        xi = float(constants["xi"])
        branches = [
            div(1.0, math.sqrt(K) * L),
            div(D * math.sqrt(M), sigma * math.sqrt(K * R)),
            div(D ** (2 / 3), K ** (2 / 3) * R ** (1 / 3) * sigma ** (2 / 3)
                * L ** (1 / 3)),
            div(D ** (2 / 3), xi ** (2 / 3) * K * R ** (1 / 3) * L ** (1 / 3)),
            div(D, (xi * sigma) ** (1 / 2) * K ** (3 / 4) * R ** (1 / 2)),
            div(D, xi * K * math.sqrt(R)),
        ]

    eta = min(branches)
    if not np.isfinite(eta) or eta <= 0:
        raise ValueError(f"{theorem_id} schedule produced eta={eta!r}")
    active = branches.index(eta)
    gamma = derived_gamma(eta, L) if theorem_id in ("T3", "T4", "T5") else None
    delta = 0.0
    if theorem_id == "T5":
        d = float(constants["d"])
        root = math.sqrt(d) if delta_rule == "sqrt-d" else d ** 0.25
        delta = eta * sigma / root
    return StepSizePlan(theorem_id=theorem_id, eta=eta, gamma=gamma,
                        delta=delta, active_branch=active,
                        branches=tuple(branches))


def constants_of(op: OperatorSpec, xi: float | None = None,
                 G_override: float | None = None) -> dict:
    """Constants dict for step_size, read off an operator's declarations."""
    return {"L": op.L, "G": G_override if G_override is not None else op.G,
            "beta": op.beta, "Lambda": op.Lambda, "d": op.dim, "xi": xi}
