"""Reference gap evaluators for the tests: a dense polar grid and the
one-start-at-a-time multistart ascent."""

import math

import numpy as np

from fedvi.operators import eval_operator, op_jacobian
from fedvi.regularizers import prox, reg_value


def grid_oracle(op, x_o, center, D, n_r=600, n_theta=600):
    """Dense polar-grid evaluation of the gap objective on the disk.

    The outermost ring sits exactly on the boundary, where linear parts
    of the objective attain their maximum.
    """
    r = np.linspace(0.0, D, n_r)
    theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    rr, tt = np.meshgrid(r, theta, indexing="ij")
    pts = center + np.stack([(rr * np.cos(tt)).ravel(),
                             (rr * np.sin(tt)).ravel()], axis=1)
    vals = np.einsum("ij,ij->i", eval_operator(op, pts), x_o - pts)
    return float(vals.max())


def reference_multistart(op, x_o, center, D, reg=None, n_starts=16,
                          n_iters=500, seed=0):
    """The one-start-at-a-time ascent the batched evaluator replaced.

    Returns (best value, maximizer); with reg it is the composite gap's
    proximal ascent, without it restricted_gap's projected ascent.
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

    def feasible(z):
        if reg is None:
            return z
        if reg.kind != "box-indicator":
            return project(z)
        for _ in range(50):
            z = project(np.clip(z, reg.lo, reg.hi))
        return np.clip(z, reg.lo, reg.hi)

    best_val, best_z = -math.inf, None
    for z in starts[:n_starts]:
        z = feasible(z)
        for _ in range(n_iters):
            u = z + step * grad(z)
            z = project(u if reg is None else prox(reg, u, step))
        z = feasible(z)
        val = float(eval_operator(op, z) @ (x_o - z))
        if reg is not None:
            val += reg_value(reg, x_o) - reg_value(reg, z)
        if val > best_val:
            best_val, best_z = val, z
    return best_val, best_z
