"""Error functionals: restricted gap, composite gap, drift statistics.

For affine monotone operators the restricted gap maximizes a concave
quadratic over a ball, which is solved exactly (eigenbasis + secular
equation on the KKT multiplier) and tagged ``exact-concave``.  All other
cases run multistart projected ascent and report the best objective
value recomputed at a feasible point: a true lower bound of the sup,
tagged as not certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import OperatorSpec, affine_parts, eval_operator, op_jacobian
from .regularizers import RegularizerSpec, prox, reg_value

GAP_METHODS = ("auto", "exact-concave", "multistart-ascent", "grid")


@dataclass(frozen=True)
class GapEstimate:
    """Restricted-gap value, its maximizer, and certification status."""

    value: float
    method: str
    certified: bool
    maximizer: np.ndarray


@dataclass(frozen=True)
class DriftSnapshot:
    """Across-client dispersion at one round."""

    t: int
    points: np.ndarray
    drift_z: float | None
    drift_x: float | None
    pairwise_max: float


@dataclass(frozen=True)
class CocoercivityReport:
    """Outcome of testing the extra-gradient operator's co-coercivity."""

    pairs_tested: int
    violations: int
    max_violation: float


def _gap_objective(op: OperatorSpec, x_o: np.ndarray, z: np.ndarray) -> float:
    return float(eval_operator(op, z) @ (x_o - z))


def _gap_gradient(op: OperatorSpec, x_o: np.ndarray, z: np.ndarray) -> np.ndarray:
    return op_jacobian(op, z).T @ (x_o - z) - eval_operator(op, z)


def _project_ball(z: np.ndarray, center: np.ndarray, D: float) -> np.ndarray:
    w = z - center
    n = np.linalg.norm(w)
    if n <= D:
        return z.copy()
    return center + w * (D / n)


def _exact_concave_max(op: OperatorSpec, x_o: np.ndarray, center: np.ndarray,
                       D: float) -> tuple[np.ndarray, float]:
    """Maximize <V(z), x_o - z> over ||z - center|| <= D for affine V.

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
            w = U @ wt
            return center + w, 0.0

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
    nu = hi
    w = U @ w_of(nu)
    return center + w, nu


def _duality_gap(op: OperatorSpec, x_o: np.ndarray, center: np.ndarray,
                 D: float, z_star: np.ndarray) -> float:
    """Concavity bound: sup - g(z*) <= <grad, center - z*> + D ||grad||."""
    grad = _gap_gradient(op, x_o, z_star)
    return float(grad @ (center - z_star)) + D * float(np.linalg.norm(grad))


def _ascent_starts(x_o: np.ndarray, center: np.ndarray, D: float,
                   n_starts: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng((seed, 0xA5CE))
    starts = [center.copy(), _project_ball(x_o, center, D)]
    d = center.shape[0]
    while len(starts) < n_starts:
        u = rng.standard_normal(d)
        starts.append(center + D * u / np.linalg.norm(u))
    return starts[:n_starts]


def _lipschitz_estimate(grad_fn, center: np.ndarray, D: float,
                        seed: int) -> float:
    rng = np.random.default_rng((seed, 0x11B5))
    d = center.shape[0]
    best = 1e-12
    for _ in range(20):
        z1 = center + D * rng.standard_normal(d) / math.sqrt(d)
        z2 = center + D * rng.standard_normal(d) / math.sqrt(d)
        dz = np.linalg.norm(z1 - z2)
        if dz > 1e-12:
            best = max(best, np.linalg.norm(grad_fn(z1) - grad_fn(z2)) / dz)
    return best


def restricted_gap(op: OperatorSpec, x_o: np.ndarray, center: np.ndarray,
                   D: float, method: str = "auto", n_starts: int = 16,
                   n_iters: int = 500, grid_points: int = 1000,
                   seed: int = 0) -> GapEstimate:
    """sup of <V(z), x_o - z> over the ball ||z - center|| <= D."""
    if D <= 0:
        raise ValueError("ball radius D must be positive")
    if method not in GAP_METHODS:
        raise ValueError(f"unknown gap method {method!r}")
    x_o = np.asarray(x_o, dtype=float)
    center = np.asarray(center, dtype=float)

    if method == "auto":
        method = "exact-concave" if op.is_affine else "multistart-ascent"
    if method == "exact-concave":
        if not op.is_affine:
            raise ValueError("exact-concave requires an affine operator")
        z_star, _ = _exact_concave_max(op, x_o, center, D)
        value = _gap_objective(op, x_o, z_star)
        dual = _duality_gap(op, x_o, center, D, z_star)
        certified = dual <= 1e-7 * (1.0 + abs(value))
        return GapEstimate(value=value, method="exact-concave",
                           certified=certified, maximizer=z_star)
    if method == "grid":
        if op.dim > 2:
            raise ValueError("grid method supports dim <= 2 only")
        z_star, value = _grid_max(op, x_o, center, D, grid_points)
        return GapEstimate(value=value, method="grid", certified=True,
                           maximizer=z_star)

    grad = lambda z: _gap_gradient(op, x_o, z)
    step = 1.0 / (2.0 * _lipschitz_estimate(grad, center, D, seed))
    best_val, best_z = -math.inf, None
    for z0 in _ascent_starts(x_o, center, D, n_starts, seed):
        z = z0
        for _ in range(n_iters):
            z = _project_ball(z + step * grad(z), center, D)
        val = _gap_objective(op, x_o, z)
        if val > best_val:
            best_val, best_z = val, z
    return GapEstimate(value=best_val, method="multistart-ascent",
                       certified=False, maximizer=best_z)


def _grid_max(op: OperatorSpec, x_o: np.ndarray, center: np.ndarray,
              D: float, grid_points: int) -> tuple[np.ndarray, float]:
    if op.dim == 1:
        zs = (center[0] + np.linspace(-D, D, grid_points))[:, None]
    else:
        # polar grid: the outer ring lies exactly on the boundary, where
        # linear objectives peak; a square lattice would undershoot there
        r = np.linspace(0.0, D, grid_points)
        theta = np.linspace(0.0, 2 * np.pi, grid_points, endpoint=False)
        rr, tt = np.meshgrid(r, theta, indexing="ij")
        zs = center + np.stack([(rr * np.cos(tt)).ravel(),
                                (rr * np.sin(tt)).ravel()], axis=1)
    vals = np.einsum("ij,ij->i", eval_operator(op, zs), x_o - zs)
    k = int(np.argmax(vals))
    return zs[k], float(vals[k])


def composite_gap(op: OperatorSpec, reg: RegularizerSpec, v_o: np.ndarray,
                  center: np.ndarray, D: float, n_starts: int = 16,
                  n_iters: int = 500, seed: int = 0) -> GapEstimate:
    """sup of <V(z), v_o - z> + phi(v_o) - phi(z) over the ball and dom phi."""
    if D <= 0:
        raise ValueError("ball radius D must be positive")
    v_o = np.asarray(v_o, dtype=float)
    center = np.asarray(center, dtype=float)
    if reg.kind == "zero":
        return restricted_gap(op, v_o, center, D, n_starts=n_starts,
                              n_iters=n_iters, seed=seed)
    if reg.kind == "box-indicator":
        inside = np.clip(center, reg.lo, reg.hi)
        if np.linalg.norm(inside - center) > D:
            raise ValueError("phi is infinite everywhere on the ball")

    phi_vo = reg_value(reg, v_o)
    grad = lambda z: _gap_gradient(op, v_o, z)
    step = 1.0 / (2.0 * _lipschitz_estimate(grad, center, D, seed))

    def feasible(z: np.ndarray) -> np.ndarray:
        if reg.kind != "box-indicator":
            return _project_ball(z, center, D)
        # alternating projections onto box and ball; the final clip keeps
        # phi finite and can leave the ball only by a vanishing margin
        for _ in range(50):
            z = _project_ball(np.clip(z, reg.lo, reg.hi), center, D)
        return np.clip(z, reg.lo, reg.hi)

    best_val, best_z = -math.inf, None
    for z0 in _ascent_starts(v_o, center, D, n_starts, seed):
        z = feasible(z0)
        for _ in range(n_iters):
            z = _project_ball(prox(reg, z + step * grad(z), step), center, D)
        z = feasible(z)
        val = _gap_objective(op, v_o, z) + phi_vo - reg_value(reg, z)
        if val > best_val:
            best_val, best_z = val, z
    return GapEstimate(value=best_val, method="multistart-ascent",
                       certified=False, maximizer=best_z)


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


def client_drift(points: np.ndarray, which: str = "z",
                 t: int = 0) -> DriftSnapshot:
    """Mean squared deviation from the client mean, plus the pairwise max."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError("need a (M >= 2, d) array of client points")
    if which not in ("z", "x"):
        raise ValueError("which must be 'z' or 'x'")
    drift = dispersion(points)
    diffs = points[:, None, :] - points[None, :, :]
    pairwise = float((diffs ** 2).sum(axis=2).max())
    return DriftSnapshot(t=t, points=points.copy(),
                         drift_z=drift if which == "z" else None,
                         drift_x=drift if which == "x" else None,
                         pairwise_max=pairwise)


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
