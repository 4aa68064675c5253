"""Error functionals: restricted gap, composite gap, client dispersion.

For affine monotone operators the restricted gap maximizes a concave
quadratic over a ball, which is solved exactly (eigenbasis + secular
equation on the KKT multiplier) and tagged ``exact-concave``.  The
composite gap adds a convex phi, so on affine operators its objective
is still concave: one proximal-ascent start runs until a duality
certificate (the concavity bound at the current point, its inner
maximum solved in the ball multiplier by the same secular equation)
closes to 1e-7 (1 + |value|), and is tagged ``certified-ascent``.  Both
gaps are certified by that one bound.  Nonlinear operators run a
multistart projected ascent (``ASCENT_STARTS`` starts drawn from
``ASCENT_SEED``, each stopped once one step moves it by at most
``ASCENT_TOL`` (D + ||center||), or after ``ASCENT_STEPS`` steps) and
report the best objective value recomputed at a feasible point: a true
lower bound of the sup, tagged as not certified.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .operators import (OperatorSpec, affine_parts, eval_operator,
                        op_jacobian, op_value_vjp)
from .regularizers import ZERO_REG, RegularizerSpec, prox, reg_value

ASCENT_STARTS = 16
ASCENT_STEPS = 500
ASCENT_TOL = 1e-12
ASCENT_SEED = 0


@dataclass(frozen=True)
class GapEstimate:
    """Restricted-gap value, its maximizer, and certification status."""

    value: float
    method: str
    certified: bool
    maximizer: np.ndarray


def _rownorm(W: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a (..., 1, d) stack, as (..., 1, 1)."""
    return np.sqrt(W @ np.swapaxes(W, -1, -2))


def _project_ball(Z: np.ndarray, center: np.ndarray, D: float) -> np.ndarray:
    """Project each row of a (..., 1, d) stack onto the ball."""
    W = Z - center
    n = _rownorm(W)
    return np.where(n <= D, Z, center + W * (D / np.maximum(n, D)))


def _secular_root(radius: Callable[[float], float], D: float,
                  hi: float) -> float:
    """Least ball multiplier nu found with radius(nu) <= D.

    ``radius`` is nonincreasing in nu.  ``hi`` is doubled until it is
    feasible, then [0, hi] is bisected to float resolution; the feasible
    end is returned.
    """
    while radius(hi) > D:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if radius(mid) > D:
            lo = mid
        else:
            hi = mid
    return hi


def _exact_concave_max(op: OperatorSpec, x_o: np.ndarray, center: np.ndarray,
                       D: float) -> np.ndarray:
    """Maximizer of <V(z), x_o - z> over ||z - center|| <= D for affine V.

    In w = z - center the objective is -w'Sw + g'w + const with S the
    PSD symmetric part, so the KKT system (2S + nu I) w = g has a unique
    multiplier nu >= 0 placing w on or inside the sphere.
    """
    A, b = affine_parts(op)
    r = x_o - center
    v_c = A @ center + b
    g = A.T @ r - v_c
    lam, U = op.sym_eigh
    lam = np.maximum(lam, 0.0)
    gt = U.T @ g
    two_lam = 2.0 * lam

    def w_of(nu: float) -> np.ndarray:
        return gt / (two_lam + nu)

    def radius(nu: float) -> float:
        w = w_of(nu)
        return math.sqrt(w.dot(w))  # np.linalg.norm's own path, its bits

    # interior stationary point, when it exists
    free = lam > 1e-14 * max(lam.max(initial=0.0), 1.0)
    pinned = ~free
    if np.all(np.abs(gt[pinned]) <= 1e-14 * max(1.0, np.linalg.norm(gt))):
        wt = np.zeros_like(gt)
        wt[free] = gt[free] / (2.0 * lam[free])
        if np.linalg.norm(wt) <= D:
            return center + U @ wt

    # boundary: solve ||w(nu)|| = D for nu > 0
    nu = _secular_root(radius, D, 2.0 * np.linalg.norm(gt) / D)
    return center + U @ w_of(nu)


def _free_argmax(reg: RegularizerSpec, a: np.ndarray,
                 center: np.ndarray) -> np.ndarray | None:
    """A maximizer of <a, y> - phi(y) over all y, None when unbounded."""
    if reg.kind == "l1":
        return np.zeros_like(a) if np.abs(a).max() <= reg.lam else None
    return np.where(a > 0, reg.hi, np.where(a < 0, reg.lo,
                                             np.clip(center, reg.lo, reg.hi)))


def _certificate(op: OperatorSpec, reg: RegularizerSpec, v_o: np.ndarray,
                 center: np.ndarray, D: float, z: np.ndarray
                 ) -> tuple[float, np.ndarray | None]:
    """Upper bound on sup h over the ball and dom phi, from a feasible z.

    h(y) = g(y) + phi(v_o) - phi(y) with g(y) = <V(y), v_o - y> is
    concave for affine monotone V, so with a = grad g(z)

        sup h <= g(z) + phi(v_o) + max_{||y - c|| <= D} <a, y - z> - phi(y).

    The inner max is bounded by its Lagrange dual in the ball multiplier
    nu (weak duality: every nu >= 0 gives an upper bound), whose inner
    maximizer is y(nu) = prox(phi, c + a / nu, 1 / nu); the secular root
    of ||y(nu) - c|| = D gives the tightest one, and nu -> 0 when a free
    maximizer already lies in the ball.  Zero phi has the closed form
    <a, c - z> + D ||a||.  Also returns y(nu), a feasible point that
    maximizes h itself when g is linear (S = 0); None for zero phi, whose
    sup the exact solve already finds.
    """
    Vz = eval_operator(op, z)
    a = op_jacobian(op, z).T @ (v_o - z) - Vz
    if reg.kind == "zero":
        inner = float(a @ (center - z)) + D * float(np.linalg.norm(a))
        y = None
    else:
        def y_of(nu: float) -> np.ndarray:
            return prox(reg, center + a / nu, 1.0 / nu)

        nu, y = 0.0, _free_argmax(reg, a, center)
        if y is None or np.linalg.norm(y - center) > D:
            # ||y(nu) - c|| <= (||a|| + lam sqrt(d)) / nu for l1, so this
            # first guess is feasible there; a box may need doubling
            hi = 2.0 * (np.linalg.norm(a) + reg.lam * math.sqrt(a.size)) / D
            nu = _secular_root(lambda nu: np.linalg.norm(y_of(nu) - center),
                               D, hi or 1.0)
            y = y_of(nu)
        slack = D * D - float((y - center) @ (y - center))
        inner = float(a @ (y - z)) - reg_value(reg, y) + 0.5 * nu * slack
    return float(Vz @ (v_o - z) + reg_value(reg, v_o) + inner), y


def _closes(bound: float, value: float) -> bool:
    """The certificate tolerance shared by every certified gap."""
    return bound - value <= 1e-7 * (1.0 + abs(value))


def _check_radius(D: float) -> None:
    if D <= 0:
        raise ValueError("ball radius D must be positive")


def _project_box_ball(p: np.ndarray, lo, hi, center: np.ndarray,
                      D: float) -> np.ndarray:
    """Nearest point to p in the box [lo, hi] and the ball ||y - c|| <= D.

    KKT: y(nu) = clip((p + nu c) / (1 + nu), lo, hi) with the ball
    multiplier nu >= 0, and ||y(nu) - c|| is nonincreasing in nu.  The
    sets must intersect.
    """
    def y_of(nu: float) -> np.ndarray:
        return np.clip((p + nu * center) / (1.0 + nu), lo, hi)

    nu = 0.0
    if np.linalg.norm(y_of(0.0) - center) > D:
        nu = _secular_root(lambda nu: np.linalg.norm(y_of(nu) - center),
                           D, 1.0)
    return y_of(nu)


def _ascent(op: OperatorSpec, x_o: np.ndarray, center: np.ndarray, D: float,
            n_starts: int, seed: int, prox_step, feasible
            ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Projected (proximal) ascent on <V(z), x_o - z> from n_starts points.

    Returns the feasible starts as an (n_starts, 1, d) stack of row
    vectors and the step map, which advances any row subset of such a
    stack by one step into the ball (not always into dom phi).  Every
    product over rows is a stacked matmul, never one 2-D GEMM, so no
    row's bits depend on which rows are stepped beside it.
    """
    d = center.shape[0]

    def grad(Z: np.ndarray) -> np.ndarray:
        V, JtW = op_value_vjp(op, Z, x_o - Z)
        return JtW - V

    # step 1/(2L), L the largest gradient-difference ratio of 20 probe pairs
    rng = np.random.default_rng((seed, 0x11B5))
    P = center + D * rng.standard_normal((20, 2, 1, d)) / math.sqrt(d)
    G = grad(P)
    dz, dg = _rownorm(P[:, 0] - P[:, 1]), _rownorm(G[:, 0] - G[:, 1])
    ok = dz > 1e-12
    step = 1.0 / (2.0 * (dg[ok] / dz[ok]).max(initial=1e-12))

    # starts: the center, x_o projected, then points on the sphere
    rng = np.random.default_rng((seed, 0xA5CE))
    U = rng.standard_normal((max(n_starts - 2, 0), 1, d))
    Z = np.concatenate([center[None, None],
                        _project_ball(x_o[None, None], center, D),
                        center + D * U / _rownorm(U)])[:n_starts]

    def advance(Z: np.ndarray) -> np.ndarray:
        return _project_ball(prox_step(Z + step * grad(Z), step), center, D)

    return feasible(Z), advance


def _multistart_ascent(op: OperatorSpec, x_o: np.ndarray, center: np.ndarray,
                       D: float, n_starts: int, n_iters: int, seed: int,
                       prox_step=lambda U, step: U, feasible=lambda Z: Z
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The final feasible points (n_starts, d) of ``_ascent`` and their
    objective values.

    Each start runs until one step moves it by at most ASCENT_TOL
    (D + ||center||), or for n_iters steps; only the starts still moving
    are stepped, so each start's bits depend on that start alone.
    """
    Z, advance = _ascent(op, x_o, center, D, n_starts, seed, prox_step,
                         feasible)
    tol = ASCENT_TOL * (D + float(np.linalg.norm(center)))
    live = np.arange(n_starts)
    for _ in range(n_iters):
        if not live.size:
            break
        prev = Z[live]
        Z[live] = nxt = advance(prev)
        live = live[_rownorm(nxt - prev).ravel() > tol]
    Z = feasible(Z)
    values = eval_operator(op, Z) @ np.swapaxes(x_o - Z, -1, -2)
    return Z[:, 0], values.ravel()


def _best_start(Z: np.ndarray, values: np.ndarray) -> GapEstimate:
    k = int(np.argmax(values))
    return GapEstimate(value=float(values[k]), method="multistart-ascent",
                       certified=False, maximizer=Z[k])


def restricted_gap(op: OperatorSpec, x_o: np.ndarray, center: np.ndarray,
                   D: float, method: str = "auto") -> GapEstimate:
    """sup of <V(z), x_o - z> over the ball ||z - center|| <= D.

    ``auto`` solves affine operators exactly and runs the multistart
    ascent otherwise; ``exact-concave`` insists on the exact solve.
    """
    _check_radius(D)
    if method not in ("auto", "exact-concave"):
        raise ValueError(f"unknown gap method {method!r}")
    x_o = np.asarray(x_o, dtype=float)
    center = np.asarray(center, dtype=float)
    if not op.is_affine:
        if method == "exact-concave":
            raise ValueError("exact-concave requires an affine operator")
        return _best_start(*_multistart_ascent(
            op, x_o, center, D, ASCENT_STARTS, ASCENT_STEPS, ASCENT_SEED))
    z_star = _exact_concave_max(op, x_o, center, D)
    value = float(eval_operator(op, z_star) @ (x_o - z_star))
    bound, _ = _certificate(op, ZERO_REG, x_o, center, D, z_star)
    return GapEstimate(value=value, method="exact-concave",
                       certified=_closes(bound, value), maximizer=z_star)


def composite_gap(op: OperatorSpec, reg: RegularizerSpec, v_o: np.ndarray,
                  center: np.ndarray, D: float) -> GapEstimate:
    """sup of <V(z), v_o - z> + phi(v_o) - phi(z) over the ball and dom phi.

    For affine V one start ascends until the certificate closes, checked
    after 1, 2, 4, ... steps and the last; nonlinear V runs the multistart
    ascent uncertified.
    """
    _check_radius(D)
    v_o = np.asarray(v_o, dtype=float)
    center = np.asarray(center, dtype=float)
    if reg.kind == "zero":
        return restricted_gap(op, v_o, center, D)
    if reg.kind == "box-indicator":
        inside = np.clip(center, reg.lo, reg.hi)
        if np.linalg.norm(inside - center) > D:
            raise ValueError("phi is infinite everywhere on the ball")

    def feasible(Z: np.ndarray) -> np.ndarray:
        if reg.kind != "box-indicator":
            return _project_ball(Z, center, D)
        return np.stack([_project_box_ball(z, reg.lo, reg.hi, center, D)
                         for z in Z[:, 0]])[:, None]

    def prox_step(U: np.ndarray, step: float) -> np.ndarray:
        return prox(reg, U, step)

    phi_vo = reg_value(reg, v_o)
    if not op.is_affine:
        Z, values = _multistart_ascent(
            op, v_o, center, D, ASCENT_STARTS, ASCENT_STEPS, ASCENT_SEED,
            prox_step, feasible)
        return _best_start(Z, values + phi_vo - np.array(
            [reg_value(reg, z) for z in Z]))

    def h(z: np.ndarray) -> float:
        return (float(eval_operator(op, z) @ (v_o - z)) + phi_vo
                - reg_value(reg, z))

    checks = {2 ** k for k in range(ASCENT_STEPS.bit_length())}
    checks.add(ASCENT_STEPS)
    Z, advance = _ascent(op, v_o, center, D, 1, ASCENT_SEED, prox_step,
                         feasible)
    for t in range(1, ASCENT_STEPS + 1):
        Z = advance(Z)
        if t not in checks:
            continue
        z = feasible(Z)[0, 0]
        bound, y = _certificate(op, reg, v_o, center, D, z)
        value, best = max((h(z), z), (h(y), y), key=lambda vz: vz[0])
        if _closes(bound, value):
            break
    return GapEstimate(value=value, method="certified-ascent",
                       certified=_closes(bound, value), maximizer=best)


def dispersion(points: np.ndarray) -> float:
    """Mean squared deviation of the rows from their mean."""
    # identical rows must read as exactly zero dispersion; the mean of M
    # identical floats is not bit-exact in general
    if (points == points[0]).all():
        return 0.0
    center = points.mean(axis=0)
    return float(((points - center) ** 2).sum(axis=1).mean())

