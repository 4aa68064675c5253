"""Path-keyed random streams for reproducible federated simulation.

Every random draw in a run is addressed by a path ``(client, round,
inner_step, phase)`` under a single master seed.  A fresh generator is
derived per path, so the values obtained on a path never depend on how
many other paths were consumed before it, or in which order.  This is
what makes client loops safe to reorder or parallelise without changing
results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Phase tags for the two oracle queries of an extra-gradient round and
# for the inner proximal loop.  Shared across algorithms on purpose:
# exact-reduction checks (e.g. dual averaging with a zero regularizer
# vs. plain extra SGD) rely on both algorithms consuming identical
# draws at identical paths.
PHASE_EXTRAPOLATE = 0
PHASE_UPDATE = 1
PHASE_INNER = 2


@dataclass(frozen=True)
class RngStream:
    """Deterministic family of generators keyed by (master_seed, path)."""

    master_seed: int

    def at(self, client: int, round_index: int, inner: int = 0,
           phase: int = 0) -> np.random.Generator:
        """Generator for one path; same path always yields the same draws."""
        seq = np.random.SeedSequence(
            (self.master_seed, client, round_index, inner, phase))
        return np.random.Generator(np.random.PCG64(seq))
