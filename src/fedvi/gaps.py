"""Error functionals: restricted gap and composite gap.

For affine monotone operators the restricted gap maximizes a concave
quadratic over a ball, which is solved exactly (eigenbasis + secular
equation on the KKT multiplier, bisected to float resolution).  The
composite gap adds a convex phi, so on affine operators its objective
is still concave: one proximal-ascent start runs until a duality
certificate (the concavity bound at the current point) closes to 1e-7
(1 + |value|).  Both gaps are certified by that one bound.  Each ascent
step (the exact prox of phi plus the ball) and the certificate's inner
maximum are one exact solve on the piecewise-linear path
t -> prox(phi, c + t a, t s), with no iteration.
Nonlinear operators run a multistart proximal ascent (``ASCENT_STARTS``
starts drawn from ``ASCENT_SEED``, each stopped once one step moves it
by at most ``ASCENT_TOL`` (D + ||center||), or after ``ASCENT_STEPS``
steps) and report the best objective value recomputed at a feasible
point: a true lower bound of the sup, never certified.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .operators import OperatorSpec, affine_parts, eval_operator, op_value_vjp
from .regularizers import (ZERO_REG, RegularizerSpec, prox, prox_kinks,
                           reg_value)

ASCENT_STARTS = 16
ASCENT_STEPS = 500
ASCENT_TOL = 1e-12
ASCENT_SEED = 0


@dataclass(frozen=True)
class GapEstimate:
    """Restricted-gap value, its maximizer, and certification status."""

    value: float
    certified: bool
    maximizer: np.ndarray


def _rownorm(W: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a (..., 1, d) stack, as (..., 1, 1)."""
    return np.sqrt(W @ np.swapaxes(W, -1, -2))


def _prox_path(reg: RegularizerSpec, A: np.ndarray, step: float,
               center: np.ndarray, D: float, t_max: float) -> np.ndarray:
    """y(t) = prox(phi, c + t A, t step) at the largest t <= t_max with
    ||y(t) - c|| <= D, for each row of an (n, 1, d) stack A.

    ||y(t) - c|| grows with t and y is linear in t between the kinks of
    ``prox_kinks``, so one prox call at 0 (in the ball), the kinks below
    t_max and twice t_max (two points past the last kink for t_max inf)
    brackets that t on one segment, where ||y - c|| = R, a few ulps
    inside D, is a quadratic."""
    R = D * (1.0 - 1e-15)
    kinks = prox_kinks(reg, center, A, step)
    kinks = np.where(kinks < t_max, np.maximum(kinks, 0.0), 0.0)
    last = kinks.max(axis=-1, keepdims=True, initial=0.0)
    ends = [last + 1.0, 2.0 * last + 2.0] if t_max == math.inf else [
        np.full_like(last, t_max)] * 2
    T = np.sort(np.concatenate([0.0 * last, kinks, *ends], -1))[:, 0, :, None]
    Y = prox(reg, center + T * A, T * step)
    W = Y - center
    out = np.sqrt((W * W).sum(axis=2)) > R
    out[:, -1] = True  # t_max, or the ray past the last kink
    k, rows = np.maximum(out.argmax(axis=1) - 1, 0), np.arange(len(Y))
    P = Y[rows, k][:, None]
    p, q = P - center, Y[rows, k + 1][:, None] - P
    pq, qq = p @ np.swapaxes(q, 1, 2), q @ np.swapaxes(q, 1, 2)
    slack = np.maximum(R * R - p @ np.swapaxes(p, 1, 2), 0.0)
    den = pq + np.sqrt(pq * pq + qq * slack)
    return P + q * np.divide(slack, den, out=np.zeros_like(den), where=den > 0)


def _prox_ball(reg: RegularizerSpec, U: np.ndarray, step: float,
               center: np.ndarray, D: float) -> np.ndarray:
    """argmin_y (1/2)||y - u||^2 + step phi(y) over ||y - c|| <= D for each
    row u of an (n, 1, d) stack: the ``_prox_path`` point at t = 1/(1 + nu),
    nu the ball multiplier.  Step 0 gives the nearest point of the ball
    and dom phi."""
    if reg.kind != "zero":
        return _prox_path(reg, U - center, step, center, D, 1.0)
    W = U - center
    n = _rownorm(W)
    return np.where(n <= D, U, center + W * (D / np.maximum(n, D)))


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

    # interior stationary point, when it exists (zero tests scale-free)
    free = lam > 1e-14 * op.L
    pinned = ~free
    norm = np.linalg.norm(gt)
    if np.all(np.abs(gt[pinned]) <= 1e-14 * norm):
        wt = np.zeros_like(gt)
        wt[free] = gt[free] / (2.0 * lam[free])
        if np.linalg.norm(wt) <= D:
            return center + U @ wt

    # boundary: bisect [0, hi] to float resolution (at most 200 halvings)
    # for the least nu with ||w(nu)|| <= D, keeping the feasible end.
    # lam >= 0 gives ||w(nu)|| <= ||gt|| / nu, so hi = 2 ||gt|| / D is
    # feasible from the start; its 1-norm keeps hi > 0 if ||gt|| underflows.
    lo, hi = 0.0, 2.0 * (norm or np.abs(gt).sum()) / D
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        w = gt / (two_lam + mid)
        if math.sqrt(w.dot(w)) > D:  # np.linalg.norm's own path, its bits
            lo = mid
        else:
            hi = mid
    return center + U @ (gt / (two_lam + hi))


def _certificate(op: OperatorSpec, reg: RegularizerSpec, v_o: np.ndarray,
                 center: np.ndarray, D: float, z: np.ndarray
                 ) -> tuple[float, np.ndarray | None]:
    """Upper bound on sup h over the ball and dom phi, from a feasible z.

    h(y) = g(y) + phi(v_o) - phi(y) with g(y) = <V(y), v_o - y> is
    concave for affine monotone V, so with a = grad g(z)

        sup h <= g(z) + phi(v_o) + max_{||y - c|| <= D} <a, y - z> - phi(y).

    With ball multiplier nu the inner maximizer is y = prox(phi, c + t a, t)
    at t = 1/nu, the point of ``_prox_path`` with t_max = inf (a free
    maximizer when the ball never binds), so the inner max is solved
    exactly, with no bisection.  Zero phi has the closed form
    <a, c - z> + D ||a||.  Also returns y, a feasible point that
    maximizes h itself when g is linear (S = 0); None for zero phi, whose
    sup the exact solve already finds.
    """
    Vz, JtW = op_value_vjp(op, z, v_o - z)
    a = JtW - Vz
    if reg.kind == "zero":
        inner = float(a @ (center - z)) + D * float(np.linalg.norm(a))
        y = None
    else:
        y = _prox_path(reg, a[None, None], 1.0, center, D, math.inf)[0, 0]
        inner = float(a @ (y - z)) - reg_value(reg, y)
    return float(Vz @ (v_o - z) + reg_value(reg, v_o) + inner), y


def _closes(bound: float, value: float) -> bool:
    """The certificate tolerance shared by every certified gap."""
    return bound - value <= 1e-7 * (1.0 + abs(value))


def _ascent(op: OperatorSpec, x_o: np.ndarray, center: np.ndarray, D: float,
            n_starts: int, reg: RegularizerSpec
            ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Proximal ascent on <V(z), x_o - z> - phi(z) from n_starts points
    drawn from ASCENT_SEED.

    Returns the starts, in the ball and dom phi, as an (n_starts, 1, d)
    stack of row vectors and the step map, which advances any row subset
    of such a stack by one ``_prox_ball`` step, so every iterate is
    feasible.  Every product over rows is a stacked matmul, never one 2-D
    GEMM, so no row's bits depend on which rows are stepped beside it.
    """
    d = center.shape[0]

    def grad(Z: np.ndarray) -> np.ndarray:
        V, JtW = op_value_vjp(op, Z, x_o - Z)
        return JtW - V

    # step 1/(2L), L the largest gradient-difference ratio of 20 probe pairs
    rng = np.random.default_rng((ASCENT_SEED, 0x11B5))
    P = center + D * rng.standard_normal((20, 2, 1, d)) / math.sqrt(d)
    G = grad(P)
    dz, dg = _rownorm(P[:, 0] - P[:, 1]), _rownorm(G[:, 0] - G[:, 1])
    ok = dz > 1e-12
    step = 1.0 / (2.0 * (dg[ok] / dz[ok]).max(initial=1e-12))

    # starts: the center, x_o projected, then points on the sphere
    rng = np.random.default_rng((ASCENT_SEED, 0xA5CE))
    U = rng.standard_normal((max(n_starts - 2, 0), 1, d))
    Z = np.concatenate([center[None, None],
                        _prox_ball(ZERO_REG, x_o[None, None], 0.0, center, D),
                        center + D * U / _rownorm(U)])[:n_starts]
    Z = Z if reg.kind == "zero" else _prox_ball(reg, Z, 0.0, center, D)

    def advance(Z: np.ndarray) -> np.ndarray:
        return _prox_ball(reg, Z + step * grad(Z), step, center, D)

    return Z, advance


def _multistart_ascent(op: OperatorSpec, x_o: np.ndarray, center: np.ndarray,
                       D: float, reg: RegularizerSpec
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The final points (ASCENT_STARTS, d) of ``_ascent`` and their
    values of <V(z), x_o - z>.

    Each start runs until one step moves it by at most ASCENT_TOL
    (D + ||center||), or for ASCENT_STEPS steps; only the starts still
    moving are stepped, so each start's bits depend on that start alone.
    """
    Z, advance = _ascent(op, x_o, center, D, ASCENT_STARTS, reg)
    tol = ASCENT_TOL * (D + float(np.linalg.norm(center)))
    live = np.arange(ASCENT_STARTS)
    for _ in range(ASCENT_STEPS):
        if not live.size:
            break
        prev = Z[live]
        Z[live] = nxt = advance(prev)
        live = live[_rownorm(nxt - prev).ravel() > tol]
    values = eval_operator(op, Z) @ np.swapaxes(x_o - Z, -1, -2)
    return Z[:, 0], values.ravel()


def restricted_gap(op: OperatorSpec, x_o: np.ndarray, center: np.ndarray,
                   D: float, method: str = "auto") -> GapEstimate:
    """sup of <V(z), x_o - z> over the ball ||z - center|| <= D: the
    composite gap with phi = 0.

    ``auto`` solves affine operators exactly and runs the multistart
    ascent otherwise; ``exact-concave`` insists on the exact solve.
    """
    if method not in ("auto", "exact-concave"):
        raise ValueError(f"unknown gap method {method!r}")
    if method == "exact-concave" and not op.is_affine:
        raise ValueError("exact-concave requires an affine operator")
    return composite_gap(op, ZERO_REG, x_o, center, D)


def composite_gap(op: OperatorSpec, reg: RegularizerSpec, v_o: np.ndarray,
                  center: np.ndarray, D: float) -> GapEstimate:
    """sup of <V(z), v_o - z> + phi(v_o) - phi(z) over the ball and dom phi.

    Nonlinear V runs the multistart ascent uncertified.  For affine V
    zero phi is solved exactly, and otherwise one start ascends until
    the certificate closes, checked after 1, 2, 4, ... steps and the last.
    """
    if D <= 0:
        raise ValueError("ball radius D must be positive")
    v_o = np.asarray(v_o, dtype=float)
    center = np.asarray(center, dtype=float)
    if reg.kind == "box-indicator":
        inside = np.clip(center, reg.lo, reg.hi)
        if np.linalg.norm(inside - center) > D:
            raise ValueError("phi is infinite everywhere on the ball")

    if not op.is_affine:
        Z, values = _multistart_ascent(op, v_o, center, D, reg)
        if reg.kind != "zero":
            values = values + reg_value(reg, v_o) - np.array(
                [reg_value(reg, z) for z in Z])
        k = int(np.argmax(values))
        return GapEstimate(value=float(values[k]), certified=False,
                           maximizer=Z[k])
    if reg.kind == "zero":
        z_star = _exact_concave_max(op, v_o, center, D)
        value = float(eval_operator(op, z_star) @ (v_o - z_star))
        bound, _ = _certificate(op, reg, v_o, center, D, z_star)
        return GapEstimate(value=value, certified=_closes(bound, value),
                           maximizer=z_star)

    phi_vo = reg_value(reg, v_o)

    def h(z: np.ndarray) -> float:
        return (float(eval_operator(op, z) @ (v_o - z)) + phi_vo
                - reg_value(reg, z))

    checks = {2 ** k for k in range(ASCENT_STEPS.bit_length())}
    checks.add(ASCENT_STEPS)
    Z, advance = _ascent(op, v_o, center, D, 1, reg)
    for t in range(1, ASCENT_STEPS + 1):
        Z = advance(Z)
        if t not in checks:
            continue
        z = Z[0, 0]
        bound, y = _certificate(op, reg, v_o, center, D, z)
        value, best = max((h(z), z), (h(y), y), key=lambda vz: vz[0])
        if _closes(bound, value):
            break
    return GapEstimate(value=value, certified=_closes(bound, value),
                       maximizer=best)

