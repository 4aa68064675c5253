"""Monotone operators on R^d and the synthetic problem zoo.

An :class:`OperatorSpec` bundles an evaluation rule with declared
constants (smoothness L, operator bound G, co-coercivity beta, and the
second-order bound Lambda).  Constants are exact where they can be read
off a spectrum (affine kinds) and conservative upper bounds otherwise;
:func:`verify_properties` measures them empirically so tests can hold
the declarations to account.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

INF = float("inf")

# Each zoo kind's params and their defaults, in one place.  None marks
# a default derived from dim or L: mu = 0.1 L, dx = max(dim // 2, 1),
# n_terms = 2 dim.
PARAMS = {
    "affine": {"L": 1.0, "mu": None, "skew": 1.0, "b_scale": 1.0},
    "bilinear-saddle": {"L": 1.0, "b_scale": 1.0, "dx": None},
    "skew": {"L": 1.0},
    "quadratic-gradient": {"eig_range": (0.1, 1.0), "b_scale": 1.0},
    "bounded-nonlinear": {"L": 1.0, "n_terms": None, "bias_scale": 0.5},
}
KINDS = tuple(PARAMS)

# max |d^2/du^2 tanh(u)| = 4 / (3 sqrt(3)); halved it bounds the
# second-order remainder of each tanh term.
_TANH_CURVATURE = 2.0 / (3.0 * math.sqrt(3.0))


class _NonFinite(ValueError):
    """An operator entry that is not finite."""


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class OperatorSpec:
    """A monotone operator V: R^d -> R^d with declared constants."""

    dim: int
    kind: str
    payload: dict[str, Any]
    L: float
    G: float = INF
    beta: float = INF
    Lambda: float = INF

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if self.L < 0:
            raise ValueError("L must be nonnegative")
        if self.is_affine:
            s_min = float(self.sym_eigh[0].min())
            if s_min < -1e-10:
                raise ValueError(
                    f"affine matrix is not monotone: min sym eigenvalue {s_min:g}")

    @property
    def is_affine(self) -> bool:
        """Whether V(z) = Az + b; every kind but bounded-nonlinear is."""
        return self.kind != "bounded-nonlinear"

    @cached_property
    def sym_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """eigh of the symmetric part (A + A^T) / 2 of an affine V, once."""
        A = affine_parts(self)[0]
        lam, U = np.linalg.eigh(0.5 * (A + A.T))
        return _frozen(lam), _frozen(U)

    @cached_property
    def eval_parts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """(F^T, f, C) with V(z) = z F^T + f, or tanh(z F^T + f) C when C
        is not None: (A^T, b, None) for an affine V, (C^T, b0, C) for
        bounded-nonlinear.  Read once, so an evaluation skips the kind
        test and the payload lookups."""
        if self.is_affine:
            return self.payload["A"].T, self.payload["b"], None
        C = self.payload["C"]
        return C.T, self.payload["b0"], C

    @property
    def solution(self) -> np.ndarray | None:
        """A known zero of V, when the construction provides one."""
        return self.payload.get("solution")


@dataclass(frozen=True)
class PropertyReport:
    """Empirical measurements of the declared operator constants."""

    monotone_violations: int
    measured_L: float
    measured_beta: float
    measured_G: float


def _check_point(op: OperatorSpec, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != op.dim:
        raise ValueError(
            f"point has dimension {z.shape[-1]}, operator expects {op.dim}")
    return z


def eval_operator(op: OperatorSpec, z: np.ndarray) -> np.ndarray:
    """Evaluate V(z).  Accepts batches over leading axes."""
    return _apply(op, _check_point(op, z))


def _apply(op: OperatorSpec, z: np.ndarray) -> np.ndarray:
    """eval_operator's arithmetic, for float points already checked."""
    Ft, f, C = op.eval_parts
    if C is None:
        return z @ Ft + f
    return np.tanh(z @ Ft + f) @ C


def op_jacobian(op: OperatorSpec, z: np.ndarray) -> np.ndarray:
    """Jacobian of V at a single point z (analytic, per kind)."""
    z = _check_point(op, z)
    if op.is_affine:
        return op.payload["A"].copy()
    C, b0 = op.payload["C"], op.payload["b0"]
    w = 1.0 / np.cosh(C @ z + b0) ** 2
    return C.T @ (w[:, None] * C)


def op_value_vjp(op: OperatorSpec, z: np.ndarray, w: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """V(z) and the vector-Jacobian product J(z)^T w, over leading batch
    axes of z and w.

    No Jacobian is formed, and Cz + b0 is computed once for both.  A
    batch of shape (n, 1, d) is evaluated as stacked products, so each
    row's bits do not depend on n.
    """
    z = _check_point(op, z)
    w = np.asarray(w, dtype=float)
    Ft, f, C = op.eval_parts
    if C is None:
        return _apply(op, z), w @ op.payload["A"]
    u = z @ Ft + f
    return np.tanh(u) @ C, ((w @ Ft) / np.cosh(u) ** 2) @ C


def affine_parts(op: OperatorSpec) -> tuple[np.ndarray, np.ndarray]:
    """Return (A, b) with V(z) = Az + b; rejects non-affine operators."""
    if not op.is_affine:
        raise ValueError(f"operator kind {op.kind!r} is not affine")
    return op.payload["A"], op.payload["b"]


def beta_affine(A: np.ndarray) -> float:
    """Smallest beta with ||A w||^2 <= beta <A w, w> for all w (inf if none)."""
    S = 0.5 * (A + A.T)
    lam, U = np.linalg.eigh(S)
    lmax = float(lam.max(initial=0.0))
    if lmax <= 0.0:
        # S == 0: co-coercive only if A == 0.
        return 0.0 if np.allclose(A, 0.0) else INF
    pos = lam > 1e-12 * lmax
    if not pos.all():
        null_vecs = U[:, ~pos]
        if np.linalg.norm(A @ null_vecs) > 1e-9 * lmax:
            return INF
    Up, lp = U[:, pos], lam[pos]
    # beta = lambda_max of S^{-1/2} A^T A S^{-1/2} on the positive subspace.
    B = (A @ Up) / np.sqrt(lp)
    return float(np.linalg.eigvalsh(B.T @ B).max())


def affine_operator(A: np.ndarray, b: np.ndarray, kind: str = "affine",
                    solution: np.ndarray | None = None) -> OperatorSpec:
    """Affine operator V(z) = Az + b with constants read off the spectra."""
    A, b = np.asarray(A, float), np.asarray(b, float)
    d = A.shape[0]
    if A.shape != (d, d) or b.shape != (d,):
        raise ValueError("A must be square and b of matching length")
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(A + A.T).all() and np.isfinite(b).all()
    if not finite:  # A + A^T is finite only where A is
        raise _NonFinite("an entry of A, A + A^T or b is not finite")
    payload: dict[str, Any] = {"A": _frozen(A), "b": _frozen(b)}
    if solution is None and d and np.linalg.matrix_rank(A) == d:
        solution = np.linalg.solve(A, -b)
    if solution is not None:
        payload["solution"] = _frozen(solution)
    op = OperatorSpec(dim=d, kind=kind, payload=payload,
                      L=float(np.linalg.norm(A, 2)), beta=beta_affine(A),
                      Lambda=0.0)
    if not op.is_affine:
        raise ValueError(f"kind {kind!r} is not affine")
    return op


def operator_bound_on_ball(op: OperatorSpec, center: np.ndarray,
                           radius: float) -> float:
    """Upper bound on ||V|| over the ball of given radius (conservative)."""
    center = _check_point(op, np.asarray(center, float))
    if op.G < INF:
        return op.G
    v0 = float(np.linalg.norm(eval_operator(op, center)))
    return v0 + op.L * float(radius)


def _random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _random_skew(rng: np.random.Generator, d: int) -> np.ndarray:
    W = rng.standard_normal((d, d))
    return 0.5 * (W - W.T)


def _is_number(v) -> bool:  # a finite int or float, never a bool
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


# What a given param must be; a param not named here, a finite number.
_CHECKS = {
    "L": (lambda v: _is_number(v) and v > 0, "a finite number > 0"),
    **dict.fromkeys(("dx", "n_terms"), (
        lambda v: _is_number(v) and isinstance(v, int) and v >= 1,
        "an integer >= 1")),
    "eig_range": (lambda v: isinstance(v, (list, tuple)) and len(v) == 2
                  and all(map(_is_number, v)) and 0 <= v[0] <= v[1],
                  "two finite numbers [lo, hi] with 0 <= lo <= hi"),
}


def make_test_problem(kind: str, dim: int, params: dict[str, Any] | None = None,
                      seed: int = 0) -> OperatorSpec:
    """Build a zoo operator with declared constants: exact for the affine
    kinds (spectra), conservative for bounded-nonlinear.

    ``params`` sets any of the kind's ``PARAMS``, the rest take their
    defaults there, and a bad one raises a ValueError naming it before
    anything is built.  affine's mu, its least symmetric eigenvalue
    before scaling to L, needs 0 <= mu <= L, and mu > 0 at dim 1.
    Params near the float maximum may overflow the build: an operator
    entry that is not finite raises a ValueError naming the params, and
    a declared bound that overflows is inf.
    """
    if kind not in PARAMS:
        raise ValueError(f"unknown problem kind {kind!r}")
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    params = dict(params or {})
    unknown = sorted(set(params) - set(PARAMS[kind]))
    if unknown:
        raise ValueError(f"unknown params for kind {kind!r}: {unknown}")
    for name, v in params.items():
        check, need = _CHECKS.get(name, (_is_number, "a finite number"))
        if not check(v):
            raise ValueError(f"{name} must be {need}, got {v!r}")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _build(kind, dim, {**PARAMS[kind], **params},
                          np.random.default_rng(seed))
    except _NonFinite:
        given = ", ".join(f"{name}={v!r}" for name, v in params.items())
        raise ValueError(f"an operator entry is not finite with {given}"
                         ) from None


def _build(kind: str, dim: int, p: dict[str, Any],
           rng: np.random.Generator) -> OperatorSpec:
    """The zoo operator of make_test_problem, from checked params p."""
    if kind == "affine":
        L = p["L"]
        mu = 0.1 * L if p["mu"] is None else p["mu"]
        if not 0 <= mu <= L:
            raise ValueError(f"mu must be in [0, L] = [0, {L!r}], got {mu!r}")
        if dim == 1 and mu == 0:
            raise ValueError("mu must be > 0 at dim 1: A is [mu] scaled to L")
        U = _random_orthogonal(rng, dim)
        lam = np.linspace(mu, max(mu, 0.8 * L), dim)
        S = (U * lam) @ U.T
        A = S + p["skew"] * _random_skew(rng, dim)
        A *= L / np.linalg.norm(A, 2)
        b = p["b_scale"] * rng.standard_normal(dim)
        return affine_operator(A, b)

    if kind == "skew":
        J = np.zeros((dim, dim))
        for i in range(0, dim - 1, 2):
            J[i, i + 1], J[i + 1, i] = p["L"], -p["L"]
        return affine_operator(J, np.zeros(dim), "skew",
                               solution=np.zeros(dim))

    if kind == "bilinear-saddle":
        dx = max(dim // 2, 1) if p["dx"] is None else p["dx"]
        dy = dim - dx
        if dy < 1:
            raise ValueError(f"dx must be below dim {dim}, and bilinear-saddle "
                             "needs dim >= 2")
        B = rng.standard_normal((dx, dy))
        if dx == dy:
            # keep the coupling matrix comfortably nonsingular
            B += np.eye(dx) * np.linalg.norm(B, 2) * 0.1
        B *= p["L"] / np.linalg.norm(B, 2)
        c = p["b_scale"] * rng.standard_normal(dx)
        e = p["b_scale"] * rng.standard_normal(dy)
        A = np.block([[np.zeros((dx, dx)), B], [-B.T, np.zeros((dy, dy))]])
        b = np.concatenate([c, e])
        solution = None
        if dx == dy and np.linalg.matrix_rank(B) == dx:
            solution = np.concatenate(
                [np.linalg.solve(B.T, e), np.linalg.solve(B, -c)])
        return affine_operator(A, b, "bilinear-saddle", solution=solution)

    if kind == "quadratic-gradient":
        lo, hi = p["eig_range"]
        U = _random_orthogonal(rng, dim)
        lam = np.linspace(lo, hi, dim) if dim > 1 else np.array([hi])
        Q = (U * lam) @ U.T
        Q = 0.5 * (Q + Q.T)
        b = p["b_scale"] * rng.standard_normal(dim)
        return affine_operator(Q, b, "quadratic-gradient")

    # bounded-nonlinear
    n_terms = 2 * dim if p["n_terms"] is None else p["n_terms"]
    C = rng.standard_normal((n_terms, dim))
    C *= math.sqrt(p["L"]) / np.linalg.norm(C, 2)
    b0 = p["bias_scale"] * rng.standard_normal(n_terms)
    if not np.isfinite(b0).all():  # C has norm sqrt(L), never overflows
        raise _NonFinite("an entry of b0 is not finite")
    row_norms = np.linalg.norm(C, axis=1)
    G = float(row_norms.sum())
    Lam = float(_TANH_CURVATURE * (row_norms ** 3).sum())
    L_exact = float(np.linalg.eigvalsh(C.T @ C).max())
    return OperatorSpec(dim=dim, kind="bounded-nonlinear",
                        payload={"C": _frozen(C), "b0": _frozen(b0)},
                        L=L_exact, G=G, beta=L_exact, Lambda=Lam)


def _sample_ball(rng: np.random.Generator, n: int, d: int,
                 radius: float) -> np.ndarray:
    u = rng.standard_normal((n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = radius * rng.random(n) ** (1.0 / d)
    return u * r[:, None]


def verify_properties(op: OperatorSpec, n_pairs: int = 10_000,
                      domain_radius: float = 10.0,
                      seed: int = 0) -> PropertyReport:
    """Measure monotonicity/smoothness/co-coercivity on random pairs."""
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    z1 = _sample_ball(rng, n_pairs, op.dim, domain_radius)
    z2 = _sample_ball(rng, n_pairs, op.dim, domain_radius)
    v1, v2 = eval_operator(op, z1), eval_operator(op, z2)
    dz, dv = z1 - z2, v1 - v2
    inner = np.einsum("ij,ij->i", dv, dz)
    nz = np.linalg.norm(dz, axis=1)
    nv = np.linalg.norm(dv, axis=1)
    norm1, norm2 = np.linalg.norm(v1, axis=1), np.linalg.norm(v2, axis=1)
    # a monotone V's inner product can round below zero by about
    # eps |V| |x - y|: two evaluations, their difference, a d-term sum
    tol = 4 * op.dim * np.finfo(float).eps * (norm1 + norm2) * nz
    violations = int((inner < -tol).sum())
    ok = nz > 1e-12
    measured_L = float((nv[ok] / nz[ok]).max(initial=0.0))
    nv2 = nv ** 2
    live = nv2 > 1e-14
    if np.any(live & (inner <= 1e-12 * nv2)):
        measured_beta = INF
    elif live.any():
        measured_beta = float((nv2[live] / inner[live]).max())
    else:
        measured_beta = 0.0
    measured_G = float(max(norm1.max(initial=0.0), norm2.max(initial=0.0)))
    return PropertyReport(monotone_violations=violations,
                          measured_L=measured_L,
                          measured_beta=measured_beta,
                          measured_G=measured_G)


def load_affine_text(path) -> OperatorSpec:
    """Load an affine operator from plain text: d, then d rows of A, then b."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty matrix file")
    d = int(tokens[0])
    if d < 1:
        raise ValueError(f"{path}: dimension {d} is below 1")
    need = 1 + d * d + d
    if len(tokens) != need:
        raise ValueError(
            f"{path}: expected {need} numbers for d={d}, found {len(tokens)}")
    vals = np.array([float(t) for t in tokens[1:]])
    return affine_operator(vals[:d * d].reshape(d, d), vals[d * d:])
