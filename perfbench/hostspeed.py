"""Host-speed reference for the wall-clock metrics.

On a shared host the same plan can take 40-80 % longer in one minute than
in the next. A fixed reference kernel, timed right after every measurement,
slows down with it: over 90 s of repeated identical uniform-RRT plans, 10 s
block medians of plan time ranged 39-71 ms while plan time over kernel time
stayed within 8.4-8.7 in all but one block. Each wall-clock figure is
therefore reported at nominal host speed, i.e. multiplied by
NOMINAL_S / (kernel time around it). The kernel is the benchmark's own code,
so no change to the program can move it, and it does what a planner
iteration does: steps between 2-D points, a bounds test, and a nearest-point
search. On identical repeated plans this left 8-10 % spread per plan, where
a kernel of larger numpy reductions left 13-15 %.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

KERNEL_STEPS = 240
# Kernel time that defines nominal speed. Its median ranged 3-5 ms on a 2-core
# Intel Xeon sandbox (Python 3.11, numpy 2.4), so nominal figures read roughly
# as seconds there.
NOMINAL_S = 4e-3
# Kernel samples on each side of a measurement that set its local speed.
HALF_WINDOW = 2


def reference_kernel(pts: np.ndarray) -> float:
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    acc = 0.0
    for i in range(KERNEL_STEPS):
        q = pts[i % len(pts)]
        d = pts[(7 * i) % len(pts)] - q
        n = float(np.linalg.norm(d))
        q = q + (0.5 / max(n, 1e-9)) * d
        acc += n + bool(np.all((q >= lo) & (q <= hi)))
        if i % 4 == 0:
            diff = pts[:256] - q
            acc += int(np.argmin(np.einsum("ij,ij->i", diff, diff)))
    return acc


def nominal(seconds: float, kernel_s: float) -> float:
    """`seconds` measured where the kernel took `kernel_s`, at nominal speed."""
    return seconds * NOMINAL_S / kernel_s


class HostSpeed:
    """Reference-kernel timings, one taken after each measurement."""

    def __init__(self):
        self._pts = np.random.default_rng(0).uniform(-50.0, 50.0, (512, 2))
        self.samples: list[float] = []

    def sample(self) -> int:
        """Time the kernel once; returns the sample's index."""
        t0 = time.perf_counter()
        reference_kernel(self._pts)
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples) - 1

    def to_nominal(self, seconds: float, index: int) -> float:
        """`seconds` measured just before sample `index`, at nominal speed."""
        window = self.samples[max(0, index - HALF_WINDOW): index + HALF_WINDOW + 1]
        return nominal(seconds, statistics.median(window))
