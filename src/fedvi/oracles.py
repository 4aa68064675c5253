"""Unbiased stochastic oracles around deterministic operators.

The noise model is only constrained by its variance in the theory, so
the default is isotropic Gaussian with per-coordinate std sigma/sqrt(d),
which makes E||noise||^2 equal sigma^2 exactly.  ``bounded-uniform``
offers a compactly supported alternative calibrated the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .operators import OperatorSpec, eval_operator

NOISE_MODELS = ("gaussian-isotropic", "bounded-uniform", "none")


@dataclass(frozen=True)
class OracleSpec:
    """Stochastic wrapper with E[draw] = V(z) and E||draw - V(z)||^2 <= sigma^2."""

    base: OperatorSpec
    noise_model: str = "gaussian-isotropic"
    sigma: float = 0.0

    def __post_init__(self):
        if self.noise_model not in NOISE_MODELS:
            raise ValueError(f"unknown noise model {self.noise_model!r}")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")

    @property
    def dim(self) -> int:
        return self.base.dim

    def is_stochastic(self, delta: float = 0.0) -> bool:
        """Whether a query with smoothing radius delta draws randomness."""
        return delta > 0 or (self.sigma > 0 and self.noise_model != "none")


def noiseless(op: OperatorSpec) -> OracleSpec:
    return OracleSpec(base=op, noise_model="none", sigma=0.0)


def _noise(oracle: OracleSpec, rng: np.random.Generator) -> np.ndarray:
    d = oracle.dim
    if oracle.noise_model == "gaussian-isotropic":
        return rng.standard_normal(d) * (oracle.sigma / math.sqrt(d))
    # uniform on [-a, a]^d with a chosen so E||noise||^2 = sigma^2
    a = oracle.sigma * math.sqrt(3.0 / d)
    return rng.uniform(-a, a, size=d)


def _eval_rows(op: OperatorSpec, z: np.ndarray) -> np.ndarray:
    """V at each row of z as its own (1, d) product.

    A 2-D GEMM over the rows sums in a different order, so a row's bits
    would depend on how many rows share the call.  A single row is
    evaluated as a 1-D point, which gives the same bits.
    """
    if z.ndim == 1 or len(z) == 1:
        return eval_operator(op, z.reshape(-1)).reshape(z.shape)
    return eval_operator(op, z[:, None, :]).reshape(z.shape)


def sample_oracle(oracle: OracleSpec, z: np.ndarray,
                  rng: np.random.Generator
                  | Iterable[np.random.Generator] | None = None,
                  delta: float = 0.0) -> np.ndarray:
    """Oracle draws V(z + delta * s) + noise, one per query point.

    ``z`` is one point (d,) queried with the generator ``rng``, or an
    (M, d) client stack whose row m is queried with the m-th of M
    generators that ``rng`` yields, consumed once in row order.  Each
    generator makes its smoothing draw s before its noise draw, so a
    row's draw does not depend on the other rows.  With zero sigma and
    delta the draw is exact and no generator is required.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] != oracle.dim:
        raise ValueError(f"query of shape {z.shape} does not match the "
                         f"oracle's dimension {oracle.dim}")
    if not oracle.is_stochastic(delta):
        return _eval_rows(oracle.base, z)
    if rng is None:
        raise ValueError("stochastic oracle query requires a generator")
    stacked = z.ndim == 2
    if stacked == isinstance(rng, np.random.Generator):
        raise ValueError("a point (d,) takes one generator and an (M, d) "
                         "stack an iterable of M generators")
    noisy = oracle.is_stochastic()
    draws = [(g.standard_normal(oracle.dim) if delta > 0 else None,
              _noise(oracle, g) if noisy else None)
             for g in (rng if stacked else [rng])]
    if stacked and len(draws) != len(z):
        raise ValueError(f"a stack of {len(z)} query points needs "
                         f"{len(z)} generators, got {len(draws)}")
    query = z
    if delta > 0:
        query = z + delta * np.array([s for s, _ in draws]).reshape(z.shape)
    value = _eval_rows(oracle.base, query)
    if not noisy:
        return value
    return value + np.array([n for _, n in draws]).reshape(z.shape)
