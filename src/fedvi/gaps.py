"""Error functionals: restricted gap, composite gap, client dispersion.

For affine monotone operators the restricted gap maximizes a concave
quadratic over a ball, which is solved exactly (eigenbasis + secular
equation on the KKT multiplier) and tagged ``exact-concave``.  All other
cases run a multistart projected ascent of fixed size (``ASCENT_STARTS``
starts of ``ASCENT_STEPS`` steps, drawn from ``ASCENT_SEED``) and report
the best objective value recomputed at a feasible point: a true lower
bound of the sup, tagged as not certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (OperatorSpec, affine_parts, eval_operator,
                        op_jacobian, op_vjp)
from .regularizers import RegularizerSpec, prox, reg_value

ASCENT_STARTS = 16
ASCENT_STEPS = 500
ASCENT_SEED = 0


@dataclass(frozen=True)
class GapEstimate:
    """Restricted-gap value, its maximizer, and certification status."""

    value: float
    method: str
    certified: bool
    maximizer: np.ndarray


@dataclass(frozen=True)
class CocoercivityReport:
    """Outcome of testing the extra-gradient operator's co-coercivity."""

    pairs_tested: int
    violations: int
    max_violation: float


def _rownorm(W: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a (..., 1, d) stack, as (..., 1, 1)."""
    return np.sqrt(W @ np.swapaxes(W, -1, -2))


def _project_ball(Z: np.ndarray, center: np.ndarray, D: float) -> np.ndarray:
    """Project each row of a (..., 1, d) stack onto the ball."""
    W = Z - center
    n = _rownorm(W)
    return np.where(n <= D, Z, center + W * (D / np.maximum(n, D)))


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
    S = 0.5 * (A + A.T)
    lam, U = np.linalg.eigh(S)
    lam = np.maximum(lam, 0.0)
    gt = U.T @ g

    def w_of(nu: float) -> np.ndarray:
        return gt / (2.0 * lam + nu)

    # interior stationary point, when it exists
    free = lam > 1e-14 * max(lam.max(initial=0.0), 1.0)
    pinned = ~free
    if np.all(np.abs(gt[pinned]) <= 1e-14 * max(1.0, np.linalg.norm(gt))):
        wt = np.zeros_like(gt)
        wt[free] = gt[free] / (2.0 * lam[free])
        if np.linalg.norm(wt) <= D:
            return center + U @ wt

    # boundary: solve ||w(nu)|| = D for nu > 0 (monotone decreasing)
    hi = 2.0 * np.linalg.norm(gt) / D
    while np.linalg.norm(w_of(hi)) > D:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.linalg.norm(w_of(mid)) > D:
            lo = mid
        else:
            hi = mid
    return center + U @ w_of(hi)


def _duality_gap(op: OperatorSpec, x_o: np.ndarray, center: np.ndarray,
                 D: float, z_star: np.ndarray) -> float:
    """Concavity bound: sup - g(z*) <= <grad, center - z*> + D ||grad||."""
    grad = (op_jacobian(op, z_star).T @ (x_o - z_star)
            - eval_operator(op, z_star))
    return float(grad @ (center - z_star)) + D * float(np.linalg.norm(grad))


def _check_radius(D: float) -> None:
    if D <= 0:
        raise ValueError("ball radius D must be positive")


def _multistart_ascent(op: OperatorSpec, x_o: np.ndarray, center: np.ndarray,
                       D: float, n_starts: int, n_iters: int, seed: int,
                       prox_step=lambda U, step: U, feasible=lambda Z: Z
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Projected (proximal) ascent on <V(z), x_o - z> from n_starts points.

    All starts advance together as one (n_starts, 1, d) stack of row
    vectors.  Every product over starts is a stacked matmul, never one
    2-D GEMM, so no start's bits depend on how many starts run beside it.
    Returns the final feasible points (n_starts, d) and their objective
    values.
    """
    d = center.shape[0]

    def grad(Z: np.ndarray) -> np.ndarray:
        return op_vjp(op, Z, x_o - Z) - eval_operator(op, Z)

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
    Z = feasible(Z)
    for _ in range(n_iters):
        Z = _project_ball(prox_step(Z + step * grad(Z), step), center, D)
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
    dual = _duality_gap(op, x_o, center, D, z_star)
    certified = dual <= 1e-7 * (1.0 + abs(value))
    return GapEstimate(value=value, method="exact-concave",
                       certified=certified, maximizer=z_star)


def composite_gap(op: OperatorSpec, reg: RegularizerSpec, v_o: np.ndarray,
                  center: np.ndarray, D: float) -> GapEstimate:
    """sup of <V(z), v_o - z> + phi(v_o) - phi(z) over the ball and dom phi."""
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
        # alternating projections onto box and ball; the final clip keeps
        # phi finite and can leave the ball only by a vanishing margin
        for _ in range(50):
            Z = _project_ball(np.clip(Z, reg.lo, reg.hi), center, D)
        return np.clip(Z, reg.lo, reg.hi)

    Z, values = _multistart_ascent(
        op, v_o, center, D, ASCENT_STARTS, ASCENT_STEPS, ASCENT_SEED,
        feasible=feasible, prox_step=lambda U, step: prox(reg, U, step))
    phi_vo = reg_value(reg, v_o)
    return _best_start(Z, values + phi_vo - np.array(
        [reg_value(reg, z) for z in Z]))


def exact_prox_point(op: OperatorSpec, z: np.ndarray, eta: float) -> np.ndarray:
    """Solve x = z - eta V(x) for affine V by a linear solve."""
    if not op.is_affine:
        raise ValueError("exact_prox_point requires an affine operator; "
                         "use solve_inner_prox with large H instead")
    if eta <= 0:
        raise ValueError("eta must be positive")
    A, b = affine_parts(op)
    z = np.asarray(z, dtype=float)
    x = np.linalg.solve(np.eye(op.dim) + eta * A, z - eta * b)
    residual = np.linalg.norm(x + eta * eval_operator(op, x) - z)
    if residual > 1e-10 * (1.0 + np.linalg.norm(z)):
        raise ArithmeticError(f"proximal-point residual {residual:g} too large")
    return x


def dispersion(points: np.ndarray) -> float:
    """Mean squared deviation of the rows from their mean."""
    # identical rows must read as exactly zero dispersion; the mean of M
    # identical floats is not bit-exact in general
    if (points == points[0]).all():
        return 0.0
    center = points.mean(axis=0)
    return float(((points - center) ** 2).sum(axis=1).mean())


def check_eg_cocoercivity(op: OperatorSpec, eta: float, n_pairs: int = 10_000,
                          seed: int = 0, radius: float = 10.0,
                          tol: float = 1e-9) -> CocoercivityReport:
    """Test ||F(z)-F(z')||^2 <= (2/eta) <F(z)-F(z'), z-z'> for the
    deterministic extra-gradient operator F(z) = V(z - eta V(z))."""
    if not op.is_affine:
        raise ValueError("the co-coercivity lemma applies to affine operators")
    if eta > 1.0 / op.L + 1e-12:
        raise ValueError(f"eta={eta:g} exceeds 1/L={1.0 / op.L:g}")
    rng = np.random.default_rng(seed)
    z1 = rng.standard_normal((n_pairs, op.dim)) * radius / math.sqrt(op.dim)
    z2 = rng.standard_normal((n_pairs, op.dim)) * radius / math.sqrt(op.dim)

    def F(z):
        return eval_operator(op, z - eta * eval_operator(op, z))

    dF = F(z1) - F(z2)
    lhs = (dF ** 2).sum(axis=1)
    rhs = (2.0 / eta) * np.einsum("ij,ij->i", dF, z1 - z2)
    margin = lhs - rhs
    scale = 1.0 + np.abs(lhs) + np.abs(rhs)
    violations = int((margin > tol * scale).sum())
    return CocoercivityReport(pairs_tested=n_pairs, violations=violations,
                              max_violation=float(margin.max(initial=0.0)))
