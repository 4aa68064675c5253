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
so the loop draws the run's randomness ahead, one :func:`draw_rows`
pass per block of consecutive whole steps, blocks spanning rounds, and
every oracle query of a step is one :func:`sample_oracle` call on the
(M, d) client stack with its pre-drawn rows.

Runs that share what ``RunStack.SHARED`` names may be simulated as one
:class:`RunStack`: their client rows, run after run, are one stack that
each step queries once, each row drawing from its own run's keys, and
each run keeps its own M, step sizes, seed, sync mean, running output,
records and divergence warning.  One builder, :func:`_client_means`,
gives a stack's client means, which both the sync and the running
outputs take in: one reduce per span of consecutive runs with one M,
with the bits of each run's own :func:`_client_mean`, which a run alone
takes directly.  Every operation on a row is the one it meets alone, so
each run's trajectory has the bits of its run alone.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .operators import OperatorSpec, operator_bound_on_ball
from .oracles import Draws, OracleSpec, draw_rows, sample_oracle
from .regularizers import RegularizerSpec, ZERO_REG, prox
from .rng import (PHASE_EXTRAPOLATE, PHASE_INNER, PHASE_UPDATE, RngStream,
                  fill_keys)

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
    """Federation shape, step sizes, and recording cadence for one run."""

    M: int = 1
    K: int = 1
    R: int = 1
    eta: float = 0.1
    H: int | None = None
    gamma: float | None = None
    delta: float = 0.0
    master_seed: int = 0
    record_every: int = 1
    z0: np.ndarray | None = None
    reach: float = math.inf

    def __post_init__(self):
        if self.M < 1 or self.K < 1 or self.R < 1:
            raise ValueError("M, K, R must all be >= 1")
        # NaN fails every comparison, so these reject it too
        if not 0 < self.eta < math.inf:
            raise ValueError("eta must be positive and finite")
        if self.gamma is not None and not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite when given")
        if self.H is not None and self.H < 1:
            raise ValueError("H must be >= 1")
        if not 0 <= self.delta < math.inf:
            raise ValueError("delta must be nonnegative and finite")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if not self.reach > 0:
            raise ValueError("reach must be positive")

    @property
    def T(self) -> int:
        return self.K * self.R

    smooths = property(lambda self: self.delta > 0)

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


@dataclass(frozen=True)
class RunStack:
    """Runs simulated as one client stack: their M's rows, in run order.

    The runs share the values named in ``SHARED``, which the stack
    exposes; its ``M`` is the stack's rows, the sum of theirs.  A runner
    given a stack returns one :class:`Trajectory` per run, in run order,
    each with the bits that run has alone.
    """

    runs: tuple[RunConfig, ...]
    SHARED = ("K", "R", "H", "record_every", "smooths")

    def __post_init__(self):
        if not self.runs:
            raise ValueError("a stack needs at least one run")
        for name in self.SHARED:
            if len({getattr(run, name) for run in self.runs}) > 1:
                raise ValueError(f"a stack's runs must share {name}")

    M = property(lambda self: sum(run.M for run in self.runs))
    K = property(lambda self: self.runs[0].K)
    R = property(lambda self: self.runs[0].R)
    H = property(lambda self: self.runs[0].H)
    T = property(lambda self: self.runs[0].T)
    record_every = property(lambda self: self.runs[0].record_every)
    smooths = property(lambda self: self.runs[0].smooths)


def _runs_of(cfg: RunConfig | RunStack) -> tuple[RunConfig, ...]:
    return cfg.runs if isinstance(cfg, RunStack) else (cfg,)


@dataclass
class TrajectoryRecord:
    """The run at step t.  ``beyond`` flags a record whose client states
    or output lie beyond ``RunConfig.growth_limit`` from z0 (Euclidean
    norm, a non-finite one included): None within it, else how the
    run's divergence warning words it, ``"not finite"`` or ``"beyond
    <limit> from z0"``."""

    t: int
    mean_iterate: np.ndarray
    output_avg: np.ndarray
    drift_z: float
    beyond: str | None = None


class DivergenceWarning(RuntimeWarning):
    """A run went past its growth limit, as :func:`read_run` warns."""


@dataclass
class Trajectory:
    """Per-round log of a run; the last record, at t = T, holds the
    run's final running-average output.

    ``diverged_at`` is the step of the first record flagged ``beyond``;
    that record and every later one are diverged.  A run's trajectory
    may also be read from a longer run of the same steps
    (:func:`read_run`).
    """

    records: list[TrajectoryRecord]
    diverged_at: int | None = None


def read_run(shared: Trajectory, cfg: RunConfig, algo: str) -> Trajectory:
    """The trajectory of a run of cfg, read from ``shared``: a run of the
    same steps, at least cfg.T of them, recorded wherever cfg records.

    It keeps the records at t <= T with mod(t, record_every) = 0 or t =
    T, is diverged from the first of them flagged ``beyond``, and then
    warns once, naming the run, with a :class:`DivergenceWarning`."""
    T, every = cfg.T, cfg.record_every
    records = [rec for rec in shared.records
               if rec.t <= T and (rec.t % every == 0 or rec.t == T)]
    first = next((rec for rec in records if rec.beyond), None)
    if first is None:
        return Trajectory(records=records)
    warnings.warn(
        f"{algo} run (master_seed {cfg.master_seed}, M={cfg.M}, K={cfg.K}, "
        f"R={cfg.R}) diverged: iterate norm {first.beyond} at step "
        f"{first.t}", DivergenceWarning)
    return Trajectory(records=records, diverged_at=first.t)


def shared_run(plans: Sequence[RunConfig]) -> RunConfig:
    """:func:`read_run`'s record rule inverted: the longest of the plans,
    recording at the gcd of their record_every and shorter plans' T."""
    longest = max(plans, key=lambda plan: plan.T)
    every = math.gcd(*(plan.record_every for plan in plans),
                     *(plan.T for plan in plans if plan.T < longest.T))
    return replace(longest, record_every=every)


# Cells (query rows x d, both draw tags) one pre-drawn block may hold.  A
# run's randomness is drawn ahead in blocks of consecutive whole steps
# under this budget, one step at least, so a table's memory grows with
# neither K nor R.  A block may span rounds, and each block pays one
# fill_keys pass.  On a 2-core x86 host (medians of 3 seeds), budgets of
# 1 << 13, 1 << 14, 1 << 15 and 1 << 16 cells took x0.87, x0.79, x0.80
# and x0.82 of the wall time of 1 << 12 cells on the stochastic-lesgd
# benchmark (d = 10, K = 8, M up to 16), and x0.90, x0.84, x0.86 and
# x0.83 on nonlinear-lippax; they raised stochastic-lesgd's peak RSS of
# 38.0 MB at 1 << 12 by 0.1, 0.3, 0.8 and 1.8 MB.
DRAW_BLOCK_CELLS = 1 << 14

# The query slots of one local step: (inner step, phase, smoothed).  A
# smoothed query shifts each row by its own run's delta.
Queries = Sequence[tuple[int, int, bool]]


def _step_draws(oracle: OracleSpec, runs: Sequence[RunConfig],
                queries: Queries) -> Iterator[tuple]:
    """Each step's pre-drawn query rows for t = 1..T, over the stack of
    the runs' client rows: one tuple per step whose entry j is query j's
    rows, one per stack row, or None when it draws nothing.

    The T steps are drawn ahead in blocks of consecutive whole steps of
    at most DRAW_BLOCK_CELLS cells, one step at least; a block may span
    rounds, since a draw depends on its key alone.  Row m of a run in
    query j of step t is on that run's path (m, t, inner_j, phase_j);
    one :func:`fill_keys` pass makes a block's keys of those paths, each
    row that draws looks its key up with one :meth:`RngStream.at` call,
    and all of them are one :func:`draw_rows` call.
    """
    streams = [(RngStream(run.master_seed), run.M) for run in runs]
    ats = [(stream.at, range(M)) for stream, M in streams]
    stochastic = oracle.is_stochastic()
    live = [query for query in queries if query[2] or stochastic]
    slots = [(inner, phase) for inner, phase, _ in live]
    radii = np.repeat([run.delta for run in runs], [run.M for run in runs])
    n, d, T = len(radii), oracle.dim, runs[0].T
    # the smoothing radius of each drawing row of one step, or None
    step_radii = (np.concatenate([radii if smooth else np.zeros(n)
                                  for _, _, smooth in live])
                  if any(smooth for _, _, smooth in live) else None)
    per_block = max(1, DRAW_BLOCK_CELLS // (2 * len(queries) * n * d))
    for first in range(1, T + 1, per_block):
        steps = range(first, min(first + per_block, T + 1))
        if live:
            fill_keys(streams, steps, slots)
        keys = [at(m, t, inner, phase) for t in steps for inner, phase in slots
                for at, clients in ats for m in clients]
        block_radii = (None if step_radii is None
                       else np.tile(step_radii, len(steps)))
        # draw_rows returns noise rows in (step, query, row) order and shift
        # rows in that order for the smoothed queries alone, so each query's
        # rows over the steps are the next column of one or both
        shifts, noises = (iter(() if rows is None else rows.reshape(
            len(steps), -1, n, d).swapaxes(0, 1))
            for rows in draw_rows(oracle, keys, block_radii))
        none = [None] * len(steps)
        yield from zip(*[map(Draws, next(shifts) if smooth else none,
                             next(noises, none))
                         if smooth or stochastic else none
                         for _, _, smooth in queries])


def _operand(c: float | np.ndarray) -> np.ndarray:
    """A step size as a 0-d float64 array, or a per-row column as a fresh
    one.  In a ufunc call on the runners' small stacks the 0-d array
    costs less than the Python float, and against a float64 array it is
    the same operand, so the same bits."""
    return np.array(c, dtype=float)


def _per_row(runs: Sequence[RunConfig], name: str) -> float | np.ndarray:
    """The runs' value of a step size: the float when they share it, else
    an (M, 1) column holding each stack row's run's value.  A row meets
    its run's value either way, elementwise, so its bits are the same."""
    values = [getattr(run, name) for run in runs]
    # a float operand costs less than a column: always taking the column
    # took x1.29 of composite-lda's and x1.11 of sweep-2workers' wall time
    # (2-core host, alternating pairs)
    if all(v == values[0] for v in values):
        return values[0]
    return np.repeat(values, [run.M for run in runs])[:, None]


def _client_mean(a: np.ndarray) -> np.ndarray:
    """``a.mean(axis=0)``'s bits, in a fresh array: numpy's mean is this
    sum over the rows divided by their count, behind a wrapper that costs
    more than the sum at the runners' stack sizes.  The sum starts from
    the additive identity, so one row's mean is ``0.0 + row``, which
    turns -0.0 into +0.0, and the division by 1 is exact."""
    if len(a) == 1:
        return a[0] + 0.0
    return np.add.reduce(a, axis=0) / len(a)


def dispersion(points: np.ndarray) -> float:
    """Mean squared deviation of the rows from their mean."""
    # identical rows must read as exactly zero dispersion; the mean of M
    # identical floats is not bit-exact in general
    if (points == points[0]).all():
        return 0.0
    center = _client_mean(points)
    return float(_client_mean(((points - center) ** 2).sum(axis=1)))


def _client_means(counts: Sequence[int], dim: int) -> Callable:
    """The function from a client stack, its runs' ``counts`` rows in run
    order, to each run's :func:`_client_mean` as a (runs, d) array.

    Each span of consecutive runs with one M is one ``np.add.reduce``
    over axis 1 of its (n, M, d) rows, which has the bits of each run's
    own reduce over axis 0; for M = 1 that is ``0.0 + row``, the bits
    :func:`_client_mean` gives."""
    spans, run, row = [], 0, 0
    for M, same in itertools.groupby(counts):
        n = len(list(same))
        spans.append((slice(run, run + n), slice(row, row + n * M), n, M))
        run, row = run + n, row + n * M
    sums = np.empty((run, dim))
    divisors = np.array(counts, dtype=float)[:, None]

    def means(p):
        for runs, rows, n, M in spans:
            np.add.reduce(p[rows].reshape(n, M, dim), axis=1, out=sums[runs])
        return sums / divisors
    return means


def _round_loop(cfg: RunConfig | RunStack, oracle: OracleSpec,
                step: Callable, algo: str, queries: Queries):
    """The round structure every runner shares.

    ``step(t, z, sync, draws)`` updates all client states z, the stacked
    rows of ``cfg``'s runs, given ``draws[j]``, the pre-drawn rows of
    query ``queries[j]`` (None when it draws nothing), and returns
    ``(z_next, p)``: the next states and the points whose client mean is
    the step's output.  ``sync`` is None, or, when mod(t, K) = 0, the
    function that averages a stack's rows across each run's clients in
    place.  The loop runs T = K R steps, syncs z_next when mod(t, K) =
    0, and keeps each run's running mean of its outputs.  Every
    ``record_every`` steps and at t = T it records, per run, the client
    mean of p, the output and drift_z, the dispersion of z_next before
    the sync.  The record flags whether the run's client rows or its
    output lie farther from its z0 than its ``growth_limit``, and
    :func:`read_run` marks the run diverged from the first flagged
    record and warns, naming the run; numpy's overflow and invalid-value
    warnings are off inside the loop.  Returns the run's Trajectory, or,
    for a RunStack, one per run.
    """
    runs = _runs_of(cfg)
    dim = oracle.dim
    counts = [run.M for run in runs]
    rows = [slice(end - M, end)
            for end, M in zip(itertools.accumulate(counts), counts)]
    z0s = [run.initial_point(dim) for run in runs]
    limits = [run.growth_limit(oracle.sigma) for run in runs]
    z = np.repeat(z0s, counts, axis=0)
    output = np.zeros((len(runs), dim))
    records: list[list[TrajectoryRecord]] = [[] for _ in runs]
    cadence, K, T = cfg.record_every, cfg.K, cfg.T
    # acc: the running outputs, in the shape means(p) has
    if len(runs) > 1:
        acc, means = output, _client_means(counts, dim)

        def sync(a):
            a[:] = np.repeat(means(a), counts, axis=0)
    else:
        # a run alone keeps (d,) means and output: its _client_mean, or at
        # M = 1 its row as it is (a -0.0 entry adds into the output as
        # +0.0 does).  Through _client_means, one-run stacks took x1.06
        # of composite-lda's and x1.08 of sweep-2workers' wall time, and
        # their outputs alone x1.05 of composite-lda's (2-core host,
        # alternating pairs).
        acc = output[0]
        means = operator.itemgetter(0) if counts == [1] else _client_mean

        def sync(a):
            a[:] = _client_mean(a)
    draws = _step_draws(oracle, runs, queries)
    # a diverging run reports itself below, not through numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            synced = t % K == 0
            z, p = step(t, z, sync if synced else None, next(draws))
            record = t % cadence == 0 or t == T
            drifts = [dispersion(z[r]) for r in rows] if record else None
            if synced:
                sync(z)
            acc += (means(p) - acc) / t
            if not record:
                continue
            for r, z0, limit, out, drift, recs in zip(
                    rows, z0s, limits, output, drifts, records):
                far = [np.linalg.norm(a - z0) for a in (z[r], out)]
                beyond = None
                if not all(n <= limit for n in far):
                    beyond = ("not finite" if not np.isfinite(far).all()
                              else f"beyond {limit:.3g} from z0")
                recs.append(TrajectoryRecord(
                    t=t, mean_iterate=_client_mean(p[r]),
                    output_avg=out.copy(), drift_z=drift, beyond=beyond))
    trajs = tuple(read_run(Trajectory(records=recs), run, algo)
                  for run, recs in zip(runs, records))
    return trajs if isinstance(cfg, RunStack) else trajs[0]


def _run_extragradient(oracle: OracleSpec, cfg: RunConfig | RunStack,
                       reg: RegularizerSpec, algo: str,
                       offsets: np.ndarray | None = None):
    """Two-query extra-gradient family in the dual space (Eq. (5)/(7) shape).

    The round-t mirror map is ``prox(reg, z, t * eta)`` for t >= 1 and
    the identity at t = 0 (and for a zero regularizer), the same map
    that :func:`mirror_map` is as a public call.  With ``offsets``,
    client m queries V(z) + offsets[m].
    """
    # prox takes eta as it is, the products the 0-d eta_op: prox given the
    # 0-d form took x1.09 of composite-lda's wall time (alternating pairs)
    eta = _per_row(_runs_of(cfg), "eta")
    eta_op = _operand(eta)
    mirror = reg.kind != "zero"  # else the mirror map is the identity

    def step(t, z, sync, draws):
        u = prox(reg, z, (t - 1) * eta) if mirror and t > 1 else z
        q = sample_oracle(oracle, u, draws=draws[0])
        x = z - eta_op * (q if offsets is None else q + offsets)
        if sync:
            sync(x)
        v = prox(reg, x, t * eta) if mirror else x
        q = sample_oracle(oracle, v, draws=draws[1])
        return z - eta_op * (q if offsets is None else q + offsets), v
    return _round_loop(cfg, oracle, step, algo,
                       ((0, PHASE_EXTRAPOLATE, False),
                        (0, PHASE_UPDATE, False)))


def run_lesgd(oracle: OracleSpec, cfg: RunConfig | RunStack):
    """Local Extra SGD: extrapolate at z, update with the operator at x."""
    return _run_extragradient(oracle, cfg, ZERO_REG, "lesgd")


def run_lda(oracle: OracleSpec, reg: RegularizerSpec,
            cfg: RunConfig | RunStack):
    """Local dual averaging: extra-gradient on dual states, queried in primal.

    The round-t mirror map is the prox of phi with weight t * eta; with a
    zero regularizer the trajectory coincides with run_lesgd draw-for-draw.
    """
    return _run_extragradient(oracle, cfg, reg, "lda")


def run_lesgd_hetero(oracle: OracleSpec, offsets: np.ndarray,
                     cfg: RunConfig | RunStack):
    """LESGD where client m queries V(z) + offsets[m]; offsets is (M, d),
    a stack's runs' offsets stacked like their clients.

    The mean operator is V itself when a run's offsets sum to zero.
    """
    offsets = np.asarray(offsets, dtype=float)
    if offsets.shape != (cfg.M, oracle.dim):
        raise ValueError(f"offsets have shape {offsets.shape}, expected "
                         f"(M, d) = ({cfg.M}, {oracle.dim})")
    return _run_extragradient(oracle, cfg, ZERO_REG, "lesgd-hetero", offsets)


def run_lsgd(oracle: OracleSpec, cfg: RunConfig | RunStack):
    """Plain local SGD on the operator; sound only for co-coercive classes.
    Without a finite co-coercivity constant it warns once per run."""
    if not (oracle.base.beta < math.inf):
        for _ in _runs_of(cfg):
            warnings.warn("operator does not declare a finite co-coercivity "
                          "constant; plain local SGD has no guarantee on "
                          "this problem", RuntimeWarning)

    eta_op = _operand(_per_row(_runs_of(cfg), "eta"))

    def step(t, x, sync, draws):
        x = x - eta_op * sample_oracle(oracle, x, draws=draws[0])
        return x, x
    return _round_loop(cfg, oracle, step, "lsgd",
                       ((0, PHASE_EXTRAPOLATE, False),))


def solve_inner_prox(oracle: OracleSpec, z: np.ndarray,
                     eta: float | np.ndarray, gamma: float | np.ndarray,
                     H: int, draws: Sequence[Draws | None] | None = None
                     ) -> np.ndarray:
    """H SGD steps on the regularized operator V(x) + (x - z) / eta.

    ``z`` is one anchor (d,) or an (M, d) client stack, and ``eta`` and
    ``gamma`` floats or (M, 1) per-row columns.  ``draws[ell]`` holds
    inner query ell + 1's pre-drawn rows (None when it draws nothing);
    smoothing reaches these inner queries only through their shift rows.
    Without ``draws`` the oracle must be exact.
    """
    draws = draws or [None] * H
    eta, gamma = _operand(eta), _operand(gamma)
    x = z
    for ell in range(H):
        q = sample_oracle(oracle, x, draws=draws[ell])
        x = x - gamma * (q + (x - z) / eta)
    return x


def _run_inexact_prox(oracle: OracleSpec, cfg: RunConfig | RunStack,
                      smoothed: bool, algo: str):
    runs = _runs_of(cfg)
    for run in runs:
        if run.H is None or run.gamma is None:
            missing = "H" if run.H is None else "gamma"
            raise ValueError(f"{algo} needs RunConfig.{missing}; none is "
                             "derived")
    H = cfg.H
    eta, gamma = _per_row(runs, "eta"), _per_row(runs, "gamma")
    eta_op = _operand(eta)

    def step(t, z, sync, draws):
        x = solve_inner_prox(oracle, z, eta, gamma, H, draws=draws[:H])
        # outer extra step: fresh, unsmoothed draw at x_t^m
        return z - eta_op * sample_oracle(oracle, x, draws=draws[H]), x
    inner = [(ell, PHASE_INNER, smoothed) for ell in range(1, H + 1)]
    return _round_loop(cfg, oracle, step, algo,
                       inner + [(0, PHASE_UPDATE, False)])


def run_lippax(oracle: OracleSpec, cfg: RunConfig | RunStack):
    """Local inexact proximal point with an extra-gradient outer step."""
    return _run_inexact_prox(oracle, cfg, False, "lippax")


def run_slippax(oracle: OracleSpec, cfg: RunConfig | RunStack):
    """run_lippax with Gaussian smoothing of the inner-loop queries only,
    each run's at its own delta; a stack's runs smooth all or none."""
    return _run_inexact_prox(oracle, cfg, cfg.smooths, "slippax")


def derived_gamma(eta: float, L: float) -> float:
    """Inner step size 1 / (eta (L + 1/eta)^2)."""
    return 1.0 / (eta * (L + 1.0 / eta) ** 2)


@dataclass(frozen=True)
class StepSizePlan:
    """Theorem schedule: eta as the min over branches, plus delta."""

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
    return StepSizePlan(eta=eta, delta=delta, active_branch=active,
                        branches=tuple(branches))


def constants_of(op: OperatorSpec, z0: np.ndarray, D: float,
                 offsets: np.ndarray | None = None) -> dict:
    """Constants dict for step_size: the operator's declarations, G on the
    ball of radius 10 D around z0, and xi, the largest client offset
    norm (None without offsets).  A G or xi that overflows is inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        G = operator_bound_on_ball(op, z0, 10.0 * D)
        xi = (None if offsets is None
              else float(np.linalg.norm(offsets, axis=1).max()))
    return {"L": op.L, "G": G, "beta": op.beta, "Lambda": op.Lambda,
            "d": op.dim, "xi": xi}
