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
multistart projected ascent of fixed size (``ASCENT_STARTS`` starts of
``ASCENT_STEPS`` steps, drawn from ``ASCENT_SEED``) and report the best
objective value recomputed at a feasible point: a true lower bound of
the sup, tagged as not certified.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .operators import (OperatorSpec, affine_parts, eval_operator,
                        op_jacobian, op_vjp)
from .regularizers import ZERO_REG, RegularizerSpec, prox, reg_value

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


def _ascent_path(op: OperatorSpec, x_o: np.ndarray, center: np.ndarray,
                 D: float, n_starts: int, n_iters: int, seed: int,
                 prox_step=lambda U, step: U, feasible=lambda Z: Z
                 ) -> Iterator[np.ndarray]:
    """Projected (proximal) ascent on <V(z), x_o - z> from n_starts points.

    All starts advance together as one (n_starts, 1, d) stack of row
    vectors.  Every product over starts is a stacked matmul, never one
    2-D GEMM, so no start's bits depend on how many starts run beside it.
    Yields the stack after each step 0..n_iters, step 0 being the
    feasible starts; later steps lie in the ball, not always in dom phi.
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
    yield Z
    for _ in range(n_iters):
        Z = _project_ball(prox_step(Z + step * grad(Z), step), center, D)
        yield Z


def _multistart_ascent(op: OperatorSpec, x_o: np.ndarray, center: np.ndarray,
                       D: float, n_starts: int, n_iters: int, seed: int,
                       prox_step=lambda U, step: U, feasible=lambda Z: Z
                       ) -> tuple[np.ndarray, np.ndarray]:
    """The final feasible points (n_starts, d) of ``_ascent_path`` and
    their objective values."""
    for Z in _ascent_path(op, x_o, center, D, n_starts, n_iters, seed,
                          prox_step, feasible):
        pass
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
    path = _ascent_path(op, v_o, center, D, 1, ASCENT_STEPS, ASCENT_SEED,
                        prox_step, feasible)
    for t, Z in enumerate(path):
        if t not in checks:
            continue
        z = feasible(Z)[0, 0]
        bound, y = _certificate(op, reg, v_o, center, D, z)
        value, best = max((h(z), z), (h(y), y), key=lambda vz: vz[0])
        if _closes(bound, value):
            break
    return GapEstimate(value=value, method="certified-ascent",
                       certified=_closes(bound, value), maximizer=best)


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
