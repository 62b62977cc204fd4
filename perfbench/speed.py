"""Reference seconds: wall time corrected for how fast the machine runs now.

On a shared machine other tenants slow every process for seconds to minutes
at a time.  In a two-minute trace of one ``lp-mallows`` op on a 2-core
shared VM, the op's wall time ranged over ±25% while its ratio to a fixed
calibration kernel, timed just before and just after it, stayed within ±4%.
So every time the benchmark reports is wall time scaled by
``REF_KERNEL_S / kernel time``, the kernel timed on both sides of the work.
On an idle machine as fast as the one the benchmark was sized on, a
reference second is a wall-clock second.

The kernel is the benchmark's own code, never the program's, so no change
to the program can change it.
"""

from __future__ import annotations

import time

import numpy as np

#: the kernel's wall time on an idle core of the 2-core sizing machine
REF_KERNEL_S = 0.004

_VALUES = np.random.default_rng(0).random(70_000)


def kernel_s() -> float:
    """Wall seconds of a fixed mix of interpreter and numpy work."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(28_000):
        acc = (acc + i * i) % 1_000_003
        table[i & 511] = acc
    np.argsort(_VALUES)
    return time.perf_counter() - start


class Meter:
    """Scales each measured piece of work by the kernels timed around it."""

    def __init__(self):
        self.last = kernel_s()

    def factor(self) -> float:
        """Reference seconds per wall second for the work just finished.

        Call it right after the work; the kernel it runs also serves as the
        "before" kernel of the next piece.
        """
        now = kernel_s()
        factor = 2 * REF_KERNEL_S / (self.last + now)
        self.last = now
        return factor
