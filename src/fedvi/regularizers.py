"""Composite regularizers, their proximal maps, and the mirror map.

The distance-generating function is fixed to h = (1/2)||.||^2, so the
round-t mirror map grad h_t^* (with h_t = h + t * eta * phi) is exactly
the proximal map of phi with weight t * eta.  Saddle composites
g1(x) - g2(y) are expressed as one block-separable phi over the stacked
variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

REG_KINDS = ("zero", "l1", "box-indicator")


@dataclass(frozen=True)
class RegularizerSpec:
    """Convex, possibly non-smooth phi with a closed-form prox."""

    kind: str = "zero"
    lam: float = 0.0
    lo: Any = None
    hi: Any = None

    def __post_init__(self):
        if self.kind not in REG_KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if self.kind == "l1" and self.lam < 0:
            raise ValueError("l1 weight lam must be nonnegative")
        if self.kind == "box-indicator":
            lo, hi = np.asarray(self.lo, float), np.asarray(self.hi, float)
            # NaN, which is also what a missing bound becomes, fails too
            if not np.all(lo <= hi):
                raise ValueError("box bounds need lo <= hi componentwise")


ZERO_REG = RegularizerSpec(kind="zero")


def reg_value(reg: RegularizerSpec, u: np.ndarray) -> float:
    """phi(u); +inf exactly when u violates box constraints."""
    u = np.asarray(u, dtype=float)
    if reg.kind == "zero":
        return 0.0
    if reg.kind == "l1":
        return float(reg.lam * np.abs(u).sum())
    lo, hi = np.asarray(reg.lo, float), np.asarray(reg.hi, float)
    if np.all(u >= lo) and np.all(u <= hi):
        return 0.0
    return float("inf")


def prox(reg: RegularizerSpec, u: np.ndarray, weight: float) -> np.ndarray:
    """argmin_v (1/2)||v - u||^2 + weight * phi(v)."""
    if weight < 0:
        raise ValueError("prox weight must be nonnegative")
    u = np.asarray(u, dtype=float)
    if reg.kind == "zero":
        return u.copy()
    if reg.kind == "l1":
        t = weight * reg.lam
        return np.sign(u) * np.maximum(np.abs(u) - t, 0.0)
    return np.clip(u, reg.lo, reg.hi)


@dataclass(frozen=True)
class MirrorState:
    """Round index and step size fixing the mirror map grad h_t^*."""

    t: int
    eta: float

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("round index t must be nonnegative")
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")


def mirror_map(ms: MirrorState, reg: RegularizerSpec,
               z_dual: np.ndarray) -> np.ndarray:
    """Primal point grad h_t^*(z) = prox(phi, z, t * eta)."""
    z_dual = np.asarray(z_dual, dtype=float)
    if ms.t == 0 or reg.kind == "zero":
        return z_dual.copy()
    return prox(reg, z_dual, ms.t * ms.eta)
