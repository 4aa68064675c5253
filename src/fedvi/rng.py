"""Path-keyed counter-based random draws for reproducible federated simulation.

Every random draw in a run is addressed by a path ``(client, step,
inner_step, phase)`` under a single master seed, where ``step`` is the
local step t = 1..K R (one communication round spans K of them).
:meth:`RngStream.at` hashes the path into a 64-bit key; a key names one
counter-based generator (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11), whose j-th value is a hash of (key, tag, j)
and nothing else.  So the values on a path never depend on how many
other paths were consumed before it, or in which order, and
:func:`normals` / :func:`uniforms` draw for many keys in one vectorized
pass whose row m equals the one-key draw bit for bit.  The hash is the
SplitMix64 finalizer (Steele, Lea & Flood, "Fast splittable
pseudorandom number generators", OOPSLA'14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# Phase tags for the two oracle queries of an extra-gradient round and
# for the inner proximal loop.  Shared across algorithms on purpose:
# exact-reduction checks (e.g. dual averaging with a zero regularizer
# vs. plain extra SGD) rely on both algorithms consuming identical
# draws at identical paths.
PHASE_EXTRAPOLATE = 0
PHASE_UPDATE = 1
PHASE_INNER = 2

# Draw tags: one key's smoothing direction and its oracle noise come
# from disjoint counter ranges, so neither depends on the other.
TAG_SMOOTHING = 0
TAG_NOISE = 1

_MASK = 2 ** 64 - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix(h: int, part: int) -> int:
    """Fold one path component into a running key: one SplitMix64 step."""
    h = ((h ^ (part & _MASK)) + _GOLDEN) & _MASK
    h = ((h ^ (h >> 30)) * _MIX1) & _MASK
    h = ((h ^ (h >> 27)) * _MIX2) & _MASK
    return h ^ (h >> 31)


def _absorb(h: int, *parts: int) -> int:
    """Fold path components into a running key, one SplitMix64 step each."""
    for part in parts:
        h = _mix(h, part)
    return h


@dataclass(frozen=True)
class RngStream:
    """Deterministic family of path keys under one master seed.

    The master seed is taken modulo 2**64.  The key of path (client,
    step, inner, phase) is ``_absorb(prefix, client, step, inner,
    phase)``, and :meth:`at` reuses the stems that paths share: the
    client stage ``_absorb(prefix, client)``, kept for every client the
    stream has seen, and the current step's heads ``_absorb(stage,
    step)`` and (client, inner) stems, kept until a call names another
    step.  Then a call on a known stem folds in ``phase`` alone.  The
    step's heads and stems are one ``(step, heads, stems)`` triple that
    a new step replaces whole, so an entry is only ever read under the
    step and stream it was made for, in any call order and under any
    thread interleaving, and the memo holds one step's stems at a time.
    """

    master_seed: int
    _prefix: int = field(init=False, repr=False, compare=False)
    _stages: dict = field(init=False, repr=False, compare=False)
    _memo: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_prefix", _absorb(0, self.master_seed))
        object.__setattr__(self, "_stages", {})
        object.__setattr__(self, "_memo", (None, {}, {}))

    def at(self, client: int, step: int, inner: int = 0,
           phase: int = 0) -> int:
        """Key of one path; the same path always yields the same key."""
        memo_step, heads, stems = self._memo
        if memo_step != step:
            heads, stems = {}, {}
            object.__setattr__(self, "_memo", (step, heads, stems))
        stem = stems.get((client, inner))
        if stem is None:
            head = heads.get(client)
            if head is None:
                stage = self._stages.get(client)
                if stage is None:
                    stage = self._stages[client] = _mix(self._prefix, client)
                head = heads[client] = _mix(stage, step)
            stem = stems[client, inner] = _mix(head, inner)
        return _mix(stem, phase)


def uniforms(keys: Sequence[int], n: int, tag: int) -> np.ndarray:
    """Uniform draws in (0, 1): row m holds n values from keys[m].

    Cell j of a row is the SplitMix64 finalizer h of the key plus the
    counter ((tag << 32) + j + 1) * _GOLDEN modulo 2**64, turned into
    the odd 53-bit fraction ((h >> 11) | 1) / 2**53, the centre of one
    of 2**52 equal cells: exact in float64, never 0 or 1.  Every step
    is elementwise, so a row's bits do not depend on the other rows.
    """
    c = np.arange((tag << 32) + 1, (tag << 32) + n + 1, dtype=np.uint64)
    c *= np.uint64(_GOLDEN)
    x = np.array(keys, dtype=np.uint64).reshape(-1, 1) + c
    t = x >> np.uint64(30)
    x ^= t
    x *= np.uint64(_MIX1)
    np.right_shift(x, np.uint64(27), out=t)
    x ^= t
    x *= np.uint64(_MIX2)
    np.right_shift(x, np.uint64(31), out=t)
    x ^= t
    x >>= np.uint64(11)
    x |= np.uint64(1)
    return x * 2.0 ** -53


def normals(keys: Sequence[int], n: int, tag: int) -> np.ndarray:
    """Standard normal draws: row m holds n values from keys[m].

    Box-Muller on consecutive uniform pairs (u1, u2), both halves used:
    values 2i and 2i + 1 are r cos(theta) and r sin(theta), with
    r = sqrt(-2 log u1) and theta = 2 pi u2, so the first k of n values
    equal the n = k draw.
    """
    u = uniforms(keys, n + n % 2, tag)
    r = np.log(u[:, 0::2])
    r *= -2.0
    np.sqrt(r, out=r)
    e = u[:, 1::2] * (2j * np.pi)
    np.exp(e, out=e)
    e *= r
    return e.view(float)[:, :n]
