"""Federated algorithms over simulated clients.

Five methods plus a heterogeneous variant, all run by one round loop,
:func:`_round_loop`: clients take local steps and replace their states
with the across-client mean whenever mod(t, K) = 0.  The methods differ
only in the local step each one hands to that loop (extra-gradient,
inexact proximal point plus an extra step, plain SGD, dual averaging)
and in the oracle queries that step makes.
Oracle draws are keyed by (client, step t, inner step, phase) so that
trajectories are bit-stable under any execution order, and so that the
exact reductions hold (dual averaging with zero regularizer == extra
SGD; smoothed inexact prox with delta = 0 == unsmoothed; zero client
offsets == homogeneous).  A key fixes its draw whatever the query point,
so the loop draws each round's randomness ahead, one
:func:`draw_rows` pass per block of whole steps, and every oracle query
of a step is one :func:`sample_oracle` call on the (M, d) client stack
with its pre-drawn rows.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gaps import dispersion
from .operators import OperatorSpec
from .oracles import Draws, OracleSpec, draw_rows, sample_oracle
from .regularizers import RegularizerSpec, ZERO_REG, MirrorState, mirror_map
from .rng import PHASE_EXTRAPOLATE, PHASE_INNER, PHASE_UPDATE, RngStream

# How many times its problem's scale a run may stray from z0 before it
# counts as blown up (RunConfig.growth_limit).
BLOWUP = 1e6

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
    reach: float = math.inf

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
        if not self.reach > 0:
            raise ValueError("reach must be positive")

    @property
    def T(self) -> int:
        return self.K * self.R

    def record_cadence(self) -> int:
        """Steps between trajectory records: every step when log_steps is
        set, else log_every communication rounds (unset: R // 20, >= 1)."""
        rounds = self.log_every or max(1, self.R // 20)
        return 1 if self.log_steps else rounds * self.K

    def growth_limit(self, sigma: float) -> float:
        """Distance from z0 past which a run has blown up.

        ``reach`` is how far from z0 the problem lies (the caller's gap
        ball: D plus the ball center's distance from z0), and noise of
        size sigma moves a run about eta sigma sqrt(T) on its own.  Under
        the theorems' step sizes a run stays within a small multiple of
        their sum, while a run whose step is too large grows
        geometrically and crosses BLOWUP times it within a few steps.
        With the default infinite reach only a non-finite norm counts.
        """
        scale = self.reach + self.eta * sigma * math.sqrt(self.T)
        return min(BLOWUP * scale, sys.float_info.max)

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


@dataclass
class Trajectory:
    """Per-round log of a run; the last record, at t = T, holds the
    run's final running-average output.

    ``diverged_at`` is the step of the first record where the client
    states or the output lie beyond ``RunConfig.growth_limit`` from z0;
    that record and every later one are diverged.
    """

    records: list[TrajectoryRecord]
    diverged_at: int | None = None

    @property
    def status(self) -> str:
        return "ok" if self.diverged_at is None else "diverged"


# Cells (query rows x d, both draw tags) one pre-drawn block may hold.  A
# round's randomness is drawn ahead in blocks of whole steps under this
# budget, one step at least, so a table's memory does not grow with K.
DRAW_BLOCK_CELLS = 1 << 16

# The query slots of one local step: (inner step, phase, smoothing radius)
Queries = Sequence[tuple[int, int, float]]


def _draw_steps(oracle: OracleSpec, stream: RngStream, steps: Sequence[int],
                queries: Queries, M: int) -> list[list[Draws | None]]:
    """Pre-drawn rows of every query of the given steps, in one pass.

    Row m of query j in step t is on path (m, t, inner_j, phase_j); each
    row that draws takes one :meth:`RngStream.at` key, and all of them
    are one :func:`draw_rows` call.  Entry [i][j] is query j's (M, d)
    rows in steps[i], or None when that query draws nothing.
    """
    live = [j for j, (_, _, delta) in enumerate(queries)
            if oracle.is_stochastic(delta)]
    table = [[None] * len(queries) for _ in steps]
    at = stream.at
    keys = [at(m, t, queries[j][0], queries[j][1])
            for t in steps for j in live for m in range(M)]
    radii = np.array([queries[j][2] for j in live])
    shift, noise = draw_rows(oracle, keys,
                             np.repeat(np.tile(radii, len(steps)), M))
    # the smoothed rows come back alone, in the same (step, query, m) order
    smoothed = {j: n for n, j in enumerate(
        j for j in live if queries[j][2] > 0)}
    if shift is not None:
        shift = shift.reshape(len(steps), len(smoothed), M, oracle.dim)
    if noise is not None:
        noise = noise.reshape(len(steps), len(live), M, oracle.dim)
    for i, row in enumerate(table):
        for k, j in enumerate(live):
            row[j] = Draws(shift[i, smoothed[j]] if j in smoothed else None,
                           None if noise is None else noise[i, k])
    return table


def _step_draws(oracle: OracleSpec, cfg: RunConfig, queries: Queries):
    """Each step's pre-drawn query rows for t = 1..T, a round at a time.

    A round's K steps are drawn ahead in blocks of whole steps of at most
    DRAW_BLOCK_CELLS cells.  Queries that draw nothing build no table.
    """
    if not any(oracle.is_stochastic(delta) for _, _, delta in queries):
        yield from itertools.repeat([None] * len(queries), cfg.T)
        return
    stream = RngStream(cfg.master_seed)
    per_block = max(1, DRAW_BLOCK_CELLS
                    // (2 * len(queries) * cfg.M * oracle.dim))
    for start in range(1, cfg.T + 1, cfg.K):
        for first in range(start, start + cfg.K, per_block):
            steps = range(first, min(first + per_block, start + cfg.K))
            yield from _draw_steps(oracle, stream, steps, queries, cfg.M)


def _client_mean(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=0)``'s bits: numpy's mean is this sum over the rows
    divided by their count, behind a wrapper that costs more than the sum
    at the runners' stack sizes."""
    return np.add.reduce(a, axis=0) / len(a)


def _round_loop(cfg: RunConfig, oracle: OracleSpec, step: Callable,
                algo: str, queries: Queries) -> Trajectory:
    """The round structure every runner shares.

    ``step(t, z, sync, draws)`` updates all M client states z, given
    ``draws[j]``, the pre-drawn rows of query ``queries[j]`` (None when
    it draws nothing), and returns ``(z_next, p)``: the next states and
    the points whose client mean is the step's output.  The loop runs
    T = K R steps, averages z_next across clients when ``sync`` (mod(t,
    K) = 0), and keeps the running mean of the outputs.  Every cadence
    steps and at t = T it records drift_z, the dispersion of z_next
    before the sync; the first record where the client stack or the
    output lies farther from z0 than ``cfg.growth_limit`` (Euclidean
    norm, a non-finite one included) marks the run diverged and warns,
    naming the run; numpy's overflow and invalid-value warnings are off
    inside the loop.
    """
    dim = oracle.dim
    z0 = cfg.initial_point(dim)
    limit = cfg.growth_limit(oracle.sigma)
    z = np.tile(z0, (cfg.M, 1))
    output = np.zeros(dim)
    records: list[TrajectoryRecord] = []
    diverged_at = None
    cadence = cfg.record_cadence()
    draws = _step_draws(oracle, cfg, queries)
    # a diverging run reports itself below, not through numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, cfg.T + 1):
            sync = t % cfg.K == 0
            z, p = step(t, z, sync, next(draws))
            record = t % cadence == 0 or t == cfg.T
            drift = dispersion(z) if record else None
            if sync:
                z[:] = _client_mean(z)
            round_mean = _client_mean(p)
            output += (round_mean - output) / t
            if not record:
                continue
            far = [np.linalg.norm(a - z0) for a in (z, output)]
            if diverged_at is None and not all(n <= limit for n in far):
                diverged_at = t
                what = ("not finite" if not np.isfinite(far).all()
                        else f"beyond {limit:.3g} from z0")
                warnings.warn(
                    f"{algo} run (master_seed {cfg.master_seed}, M={cfg.M}, "
                    f"K={cfg.K}, R={cfg.R}) diverged: iterate norm {what} "
                    f"at step {t}", RuntimeWarning)
            records.append(TrajectoryRecord(
                t=t, mean_iterate=round_mean, output_avg=output.copy(),
                drift_z=drift))
    return Trajectory(records=records, diverged_at=diverged_at)


def _run_extragradient(oracle: OracleSpec, cfg: RunConfig,
                       reg: RegularizerSpec, algo: str,
                       offsets: np.ndarray | None = None) -> Trajectory:
    """Two-query extra-gradient family in the dual space (Eq. (5)/(7) shape).

    With ``offsets``, client m queries V(z) + offsets[m].
    """
    eta = cfg.eta

    def query(points, rows):
        q = sample_oracle(oracle, points, draws=rows)
        return q if offsets is None else q + offsets

    if reg.kind == "zero":
        def primal(t, z):  # the identity; no caller writes to what it returns
            return z
    else:
        def primal(t, z):
            return mirror_map(MirrorState(t, eta), reg, z)

    def step(t, z, sync, draws):
        x = z - eta * query(primal(t - 1, z), draws[0])
        if sync:
            x[:] = _client_mean(x)
        v = primal(t, x)
        return z - eta * query(v, draws[1]), v
    return _round_loop(cfg, oracle, step, algo,
                       ((0, PHASE_EXTRAPOLATE, 0.0), (0, PHASE_UPDATE, 0.0)))


def run_lesgd(oracle: OracleSpec, cfg: RunConfig) -> Trajectory:
    """Local Extra SGD: extrapolate at z, update with the operator at x."""
    return _run_extragradient(oracle, cfg, ZERO_REG, "lesgd")


def run_lda(oracle: OracleSpec, reg: RegularizerSpec,
            cfg: RunConfig) -> Trajectory:
    """Local dual averaging: extra-gradient on dual states, queried in primal.

    The round-t mirror map is the prox of phi with weight t * eta; with a
    zero regularizer the trajectory coincides with run_lesgd draw-for-draw.
    """
    return _run_extragradient(oracle, cfg, reg, "lda")


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
    if not (oracle.base.beta < math.inf):
        warnings.warn("operator does not declare a finite co-coercivity "
                      "constant; plain local SGD has no guarantee on this "
                      "problem", RuntimeWarning)

    def step(t, x, sync, draws):
        x = x - cfg.eta * sample_oracle(oracle, x, draws=draws[0])
        return x, x
    return _round_loop(cfg, oracle, step, "lsgd",
                       ((0, PHASE_EXTRAPOLATE, 0.0),))


def solve_inner_prox(oracle: OracleSpec, z: np.ndarray, eta: float,
                     gamma: float, H: int,
                     draws: Sequence[Draws | None] | None = None
                     ) -> np.ndarray:
    """H SGD steps on the regularized operator V(x) + (x - z) / eta.

    ``z`` is one anchor (d,) or an (M, d) client stack.  ``draws[ell]``
    holds inner query ell + 1's pre-drawn rows (None when it draws
    nothing); smoothing reaches these inner queries only through their
    shift rows.  Without ``draws`` the oracle must be exact.
    """
    draws = draws or [None] * H
    x = z
    for ell in range(H):
        q = sample_oracle(oracle, x, draws=draws[ell])
        x = x - gamma * (q + (x - z) / eta)
    return x


def _run_inexact_prox(oracle: OracleSpec, cfg: RunConfig, delta: float,
                      algo: str) -> Trajectory:
    eta = cfg.eta
    # defaults for direct callers; the harness passes both resolved
    H = cfg.H or default_inner_steps(cfg.K, cfg.R)
    gamma = cfg.gamma or derived_gamma(eta, oracle.base.L)

    def step(t, z, sync, draws):
        x = solve_inner_prox(oracle, z, eta, gamma, H, draws=draws[:H])
        # outer extra step: fresh, unsmoothed draw at x_t^m
        return z - eta * sample_oracle(oracle, x, draws=draws[H]), x
    inner = [(ell, PHASE_INNER, delta) for ell in range(1, H + 1)]
    return _round_loop(cfg, oracle, step, algo,
                       inner + [(0, PHASE_UPDATE, 0.0)])


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
    """Theorem schedule: eta as the min over branches, plus delta."""

    theorem_id: str
    eta: float
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
    delta = 0.0
    if theorem_id == "T5":
        d = float(constants["d"])
        root = math.sqrt(d) if delta_rule == "sqrt-d" else d ** 0.25
        delta = eta * sigma / root
    return StepSizePlan(theorem_id=theorem_id, eta=eta, delta=delta,
                        active_branch=active, branches=tuple(branches))


def constants_of(op: OperatorSpec, xi: float | None = None,
                 G_override: float | None = None) -> dict:
    """Constants dict for step_size, read off an operator's declarations."""
    return {"L": op.L, "G": G_override if G_override is not None else op.G,
            "beta": op.beta, "Lambda": op.Lambda, "d": op.dim, "xi": xi}
