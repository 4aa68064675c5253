"""Machine-speed calibration.

On a shared host the same pass can take 30% longer for tens of seconds
at a time while CPU time still equals wall time: the machine itself
runs slower.  A fixed kernel of the same kind of work as fedvi (path-
keyed generator construction, short normal draws, small matrix
products in a Python loop) is timed next to every measurement, and
each timing is divided by the mean of the kernel runs just before and
after it, then scaled to a machine on which the kernel takes
``REFERENCE_S``.  Two threads running the kernel at once each take
about 1.3 times as long as one thread alone, so each thread count has
its own reference.  The kernel uses numpy only, never fedvi, so no change
to fedvi can move it.
"""

from __future__ import annotations

import statistics
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

# Kernel seconds per thread on a 2-core x86 box in its fast state, by
# the number of threads running it at once.
REFERENCE_S = {1: 0.045, 2: 0.058}
_A = np.linspace(-1.0, 1.0, 100).reshape(10, 10)


def _kernel() -> None:
    for i in range(1500):
        seq = np.random.SeedSequence((7, i, 0, 1))
        x = np.random.Generator(np.random.PCG64(seq)).standard_normal(10)
        np.linalg.norm(np.tanh(_A @ x) @ _A)


def kernel_seconds(threads: int = 1) -> float:
    """Wall time of the kernel run once in each of ``threads`` threads,
    divided by ``threads``.

    A pass at two workers spreads over both cores, so its calibration
    must sample both as well.
    """
    t0 = perf_counter()
    if threads == 1:
        # In the calling thread, which runs the passes: a pool thread can
        # land on the other core, whose speed may differ.
        _kernel()
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(_kernel) for _ in range(threads)]:
                future.result()
    return (perf_counter() - t0) / threads


def scaled_median(times: list[float | None], kernels: list[float],
                  threads: int = 1) -> float:
    """Median timing in reference-speed seconds.

    ``kernels[i]`` and ``kernels[i + 1]`` are the kernel runs (at
    ``threads``) just before and just after ``times[i]``; a None timing
    is skipped.
    """
    if len(kernels) != len(times) + 1:
        raise ValueError("need one kernel run before each timing and one after")
    ratios = [t / (0.5 * (before + after))
              for t, before, after in zip(times, kernels, kernels[1:])
              if t is not None]
    return REFERENCE_S[threads] * statistics.median(ratios)
