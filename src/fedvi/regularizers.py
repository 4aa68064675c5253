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
_FLOAT = np.dtype(float)  # the one float64 dtype of native-order arrays
# 0.0 as a 0-d float64 array: cheaper in a ufunc call than the Python
# float, and the same operand once numpy has converted that
_ZERO = np.zeros(())
_ZERO.setflags(write=False)


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


def prox(reg: RegularizerSpec, u: np.ndarray,
         weight: float | np.ndarray) -> np.ndarray:
    """argmin_v (1/2)||v - u||^2 + weight * phi(v); an array weight is
    broadcast against u and, unlike a float, not checked for sign.

    The runners call it once or twice per step, so the common case, a
    float weight and a float64 array u, takes the cheapest tests."""
    if (weight < 0 if type(weight) is float
            else not isinstance(weight, np.ndarray) and weight < 0):
        raise ValueError("prox weight must be nonnegative")
    if type(u) is not np.ndarray or u.dtype is not _FLOAT:
        u = np.asarray(u, dtype=float)
    kind = reg.kind
    if kind == "l1":
        t = weight * reg.lam
        return np.sign(u) * np.maximum(np.abs(u) - t, _ZERO)
    if kind == "zero":
        return u.copy()
    return np.clip(u, reg.lo, reg.hi)


def prox_kinks(reg: RegularizerSpec, c: np.ndarray, a: np.ndarray,
               step: float) -> np.ndarray:
    """The t at which t -> prox(phi, c + t a, t step) changes piece, for
    l1 or box phi: two per coordinate along the last axis, inf or nan
    where there is none.  Between kinks the prox is linear in t."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if reg.kind == "l1":
            s = step * reg.lam
            return np.concatenate([-c / (a - s), -c / (a + s)], axis=-1)
        return np.concatenate([(reg.lo - c) / a, (reg.hi - c) / a], axis=-1)


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
