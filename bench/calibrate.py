"""Machine-speed reference for the end-to-end times.

On a shared 2-vCPU host the speed of the same code drifts by up to 50%
over tens of seconds, and a run of the benchmark lasts about as long, so
raw medians of separate runs spread by 20-30%. A fixed kernel timed next
to each measured interval drifts the same way (both slow down together to
within about 3%), so each end-to-end time is scaled by the kernel: it is
reported as the time the work would take at the speed at which the kernel
takes REFERENCE_S seconds. Raw times stay in the full run record.

The kernel mixes the two kinds of work leoris does: a scalar Python loop
over math functions (the closed forms) and a numpy noncentral chi-square
draw (the simulator). It uses no leoris code, so no change to leoris
moves it.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np

REFERENCE_S = 0.05
_LOOP = 150_000
_DRAWS = 400_000


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    rng = np.random.default_rng(0)
    begin = perf_counter()
    acc = 0.0
    for i in range(_LOOP):
        acc += math.exp(-i * 1e-5) * math.log1p(i)
    rng.noncentral_chisquare(4.0, 4.0, _DRAWS)
    return perf_counter() - begin


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` at the reference speed, from kernel times taken just
    before and just after the measured interval."""
    return seconds * REFERENCE_S / (0.5 * (kernel_before + kernel_after))
