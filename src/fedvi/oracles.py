"""Unbiased stochastic oracles around deterministic operators.

The noise model is only constrained by its variance in the theory, so
the default is isotropic Gaussian with per-coordinate std sigma/sqrt(d),
which makes E||noise||^2 equal sigma^2 exactly.  ``bounded-uniform``
offers a compactly supported alternative calibrated the same way.
Randomness comes from path keys (:mod:`fedvi.rng`): :func:`draw_rows`
turns any number of keys into smoothing and noise rows in one
vectorized pass per draw tag, and :func:`sample_oracle` applies one
query's rows.  Since a draw depends on its key and never on the query
point, the runners draw a run's rows ahead, in blocks of whole steps
that may span communication rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .operators import OperatorSpec, _apply
from .rng import TAG_NOISE, TAG_SMOOTHING, normals, uniforms

NOISE_MODELS = ("gaussian-isotropic", "bounded-uniform", "none")
_FLOAT = np.dtype(float)


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


class Draws(NamedTuple):
    """Pre-drawn randomness of n query rows, each (n, d) or None.

    ``shift`` is delta * s for the smoothing direction s, added to the
    query point; ``noise`` is added to V at the shifted point.
    """

    shift: np.ndarray | None
    noise: np.ndarray | None


def draw_rows(oracle: OracleSpec, keys: Sequence[int],
              radii: np.ndarray | None = None) -> Draws:
    """The smoothing and noise rows of the query rows named by ``keys``.

    ``radii`` holds one smoothing radius per row, or is None when no row
    is smoothed.  All rows with a positive radius draw their directions
    in one :func:`normals` call under tag 0, in key order; ``shift``
    holds those rows only, or is None when no row is smoothed.  Every
    row draws noise in one call under tag 1, or ``noise`` is None when
    the oracle has none.  Each draw is elementwise per row, so a row's
    bits depend on its key and radius alone, whatever else is drawn
    with it.
    """
    d = oracle.dim
    shift = noise = None
    if radii is not None:
        smoothed = radii > 0
        if smoothed.any():
            picked = np.asarray(keys, dtype=np.uint64)[smoothed]
            shift = radii[smoothed, None] * normals(picked, d, TAG_SMOOTHING)
    if oracle.is_stochastic():
        if oracle.noise_model == "gaussian-isotropic":
            noise = normals(keys, d, TAG_NOISE) * (oracle.sigma / math.sqrt(d))
        else:
            # uniform on [-a, a]^d with a chosen so E||noise||^2 = sigma^2
            a = oracle.sigma * math.sqrt(3.0 / d)
            noise = uniforms(keys, d, TAG_NOISE) * (2.0 * a) - a
    return Draws(shift, noise)


def sample_oracle(oracle: OracleSpec, z: np.ndarray, key: int | None = None,
                  draws: Draws | None = None) -> np.ndarray:
    """Oracle draws V(z + shift) + noise, one per query point.

    ``z`` is one point (d,) or an (M, d) client stack.  ``draws`` holds
    the query's rows that :func:`draw_rows` made ahead, the only way a
    smoothing shift reaches a query and the only way a stochastic
    oracle queries a stack.  Without it, a stochastic oracle draws one
    point's noise here from ``key``, a path key
    (:meth:`RngStream.at`).  An exact oracle needs neither.
    """
    base = oracle.base
    if type(z) is not np.ndarray or z.dtype is not _FLOAT:
        z = np.asarray(z, dtype=float)
    if z.ndim not in (1, 2) or z.shape[-1] != base.dim:
        raise ValueError(f"query of shape {z.shape} does not match the "
                         f"oracle's dimension {base.dim}")
    if draws is not None:
        if key is not None:
            raise ValueError("pre-drawn rows replace keys")
        shift, noise = draws
        if shift is not None:
            z = z + _as_query(shift, z)
    elif oracle.is_stochastic():
        if key is None:
            raise ValueError("stochastic oracle query requires a path key")
        if z.ndim != 1 or not isinstance(key, (int, np.integer)):
            raise ValueError("a path key draws one point (d,); a stack "
                             "takes pre-drawn rows")
        noise = draw_rows(oracle, [key]).noise
    else:
        noise = None
    # V at each row as its own (1, d) product: a 2-D GEMM over the rows
    # sums in a different order, so a row's bits would depend on how
    # many rows share the call.  A single row is evaluated as a 1-D
    # point, which gives the same bits; sent through the (M, 1, d) path
    # instead, one-client runs took x1.44 of sweep-2workers' wall time
    # (2-core host, alternating pairs).
    if z.ndim == 1:
        value = _apply(base, z)
    elif len(z) == 1:
        value = _apply(base, z[0])[None]
    else:
        value = _apply(base, z[:, None, :]).reshape(z.shape)
    if noise is not None:
        value += _as_query(noise, z)  # value is a fresh array
    return value


def _as_query(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Pre-drawn rows in the shape of the query z, one row per point."""
    if rows.size != z.size:
        raise ValueError(f"{len(rows)} pre-drawn rows for a query "
                         f"of shape {z.shape}")
    return rows.reshape(z.shape)
