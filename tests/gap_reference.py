"""Reference gap evaluators for the tests: dense polar grids of the
restricted and composite objectives, the one-start-at-a-time
multistart ascent, and the exact restricted maximizer solved with
np.linalg.norm in the multiplier bisection.  Also the exact proximal
point of an affine operator and the extra-gradient co-coercivity check,
which only the tests use."""

import math
from dataclasses import dataclass

import numpy as np

from fedvi.gaps import _prox_ball
from fedvi.operators import affine_parts, eval_operator, op_jacobian
from fedvi.regularizers import reg_value


def _disk_points(center, D, n_r, n_theta):
    """Polar grid on the disk; the outermost ring sits exactly on the
    boundary, where linear parts of an objective attain their maximum."""
    r = np.linspace(0.0, D, n_r)
    theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    return center + np.stack([(rr * np.cos(tt)).ravel(),
                              (rr * np.sin(tt)).ravel()], axis=1)


def grid_oracle(op, x_o, center, D, n_r=600, n_theta=600):
    """Dense polar-grid evaluation of the gap objective on the disk."""
    pts = _disk_points(center, D, n_r, n_theta)
    vals = np.einsum("ij,ij->i", eval_operator(op, pts), x_o - pts)
    return float(vals.max())


def _chord_points(center, D, lines, n=2001):
    """Points on the chords the lines x_i = s cut from the disk, ends
    included, and the crossings of two such lines inside the disk."""
    pts = [np.empty((0, 2))]
    for i, s in lines:
        half = D * D - (s - center[i]) ** 2
        if half >= 0:
            chord = np.full((n, 2), s)
            chord[:, 1 - i] = center[1 - i] + np.linspace(-1, 1, n) * math.sqrt(
                half)
            pts.append(chord)
    pts += [np.array([[s, t]]) for i, s in lines if i == 0
            for j, t in lines if j == 1
            if math.hypot(s - center[0], t - center[1]) <= D]
    return np.concatenate(pts)


def composite_grid_oracle(op, reg, v_o, center, D, n_r=600, n_theta=600):
    """Largest composite objective <V(z), v_o - z> + phi(v_o) - phi(z)
    over a grid of the disk's points in dom phi (l1 or box, d = 2).

    The polar grid is joined by chords along the lines where phi has a
    kink or a box face, so a maximizer at a kink, a face or a corner has
    a grid point on it or at second-order distance in value.
    """
    if reg.kind == "l1":
        lines = [(0, 0.0), (1, 0.0)]
    else:
        lo, hi = np.asarray(reg.lo, float), np.asarray(reg.hi, float)
        lines = [(i, b[i]) for i in (0, 1) for b in (lo, hi)]
    pts = np.concatenate([_disk_points(center, D, n_r, n_theta),
                          _chord_points(center, D, lines)])
    if reg.kind == "l1":
        phi = reg.lam * np.abs(pts).sum(axis=1)
        phi_vo = reg.lam * np.abs(v_o).sum()
    else:
        phi = np.where(((pts >= lo) & (pts <= hi)).all(axis=1), 0.0, np.inf)
        phi_vo = 0.0 if np.all((v_o >= lo) & (v_o <= hi)) else np.inf
    vals = np.einsum("ij,ij->i", eval_operator(op, pts), v_o - pts)
    return float((vals + phi_vo - phi).max())


def reference_multistart(op, x_o, center, D, reg=None, n_starts=16,
                          n_iters=500, seed=0):
    """The one-start-at-a-time ascent the batched evaluator replaced.

    Returns (best value, maximizer); with reg it is the composite gap's
    proximal ascent, each step ``gaps._prox_ball`` on one point (checked
    against a grid on its own), without it restricted_gap's projected
    ascent.
    """
    def project(z):
        w = z - center
        n = np.linalg.norm(w)
        return z.copy() if n <= D else center + w * (D / n)

    def grad(z):
        return op_jacobian(op, z).T @ (x_o - z) - eval_operator(op, z)

    rng = np.random.default_rng((seed, 0x11B5))
    d = center.shape[0]
    lip = 1e-12
    for _ in range(20):
        z1 = center + D * rng.standard_normal(d) / math.sqrt(d)
        z2 = center + D * rng.standard_normal(d) / math.sqrt(d)
        dz = np.linalg.norm(z1 - z2)
        if dz > 1e-12:
            lip = max(lip, np.linalg.norm(grad(z1) - grad(z2)) / dz)
    step = 1.0 / (2.0 * lip)

    rng = np.random.default_rng((seed, 0xA5CE))
    starts = [center.copy(), project(x_o)]
    while len(starts) < n_starts:
        u = rng.standard_normal(d)
        starts.append(center + D * u / np.linalg.norm(u))

    def advance(u, weight):
        if reg is None:
            return project(u)
        return _prox_ball(reg, u[None, None], weight, center, D)[0, 0]

    best_val, best_z = -math.inf, None
    for z in starts[:n_starts]:
        z = z if reg is None else advance(z, 0.0)
        for _ in range(n_iters):
            z = advance(z + step * grad(z), step)
        val = float(eval_operator(op, z) @ (x_o - z))
        if reg is not None:
            val += reg_value(reg, x_o) - reg_value(reg, z)
        if val > best_val:
            best_val, best_z = val, z
    return best_val, best_z


def reference_exact_concave_max(op, x_o, center, D):
    """The affine restricted maximizer, written out with np.linalg.eigh
    of the symmetric part per call and np.linalg.norm for every radius of
    the doubling-plus-bisection solve of ||w(nu)|| = D."""
    A, b = affine_parts(op)
    g = A.T @ (x_o - center) - (A @ center + b)
    lam, U = np.linalg.eigh(0.5 * (A + A.T))
    lam = np.maximum(lam, 0.0)
    gt = U.T @ g
    free = lam > 1e-14 * op.L
    if np.all(np.abs(gt[~free]) <= 1e-14 * np.linalg.norm(gt)):
        wt = np.zeros_like(gt)
        wt[free] = gt[free] / (2.0 * lam[free])
        if np.linalg.norm(wt) <= D:
            return center + U @ wt, "interior"
    hi = 2.0 * np.linalg.norm(gt) / D
    while np.linalg.norm(gt / (2.0 * lam + hi)) > D:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.linalg.norm(gt / (2.0 * lam + mid)) > D:
            lo = mid
        else:
            hi = mid
    return center + U @ (gt / (2.0 * lam + hi)), "boundary"


def exact_prox_point(op, z, eta):
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


@dataclass(frozen=True)
class CocoercivityReport:
    """Outcome of testing the extra-gradient operator's co-coercivity."""

    pairs_tested: int
    violations: int
    max_violation: float


def check_eg_cocoercivity(op, eta, n_pairs=10_000, seed=0, radius=10.0,
                          tol=1e-9):
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
