"""Calibration kernel: the speed of the machine at a given moment.

The host's speed drifts by tens of percent within minutes, and CPU time
follows it, so the benchmark times a fixed piece of work that does not
touch varsign next to every job and reports job times at the speed this
kernel had on the reference machine.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# CPU seconds of one calibration_kernel() call on the reference machine when
# it is quiet; see normalized_seconds
KERNEL_REF_S = 1.5e-3
KERNEL_WINDOW = 2       # kernels on each side of a job that set its speed


def _kernel_matrix():
    rng = random.Random(0)
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
            for _ in range(8)]


_KERNEL_M = _kernel_matrix()


def calibration_kernel() -> float:
    """CPU seconds of a fixed piece of work independent of varsign: Gaussian
    elimination of one 8x8 Fraction matrix, pure Python like the jobs."""
    c0 = time.process_time()
    m = [row[:] for row in _KERNEL_M]
    for j in range(len(m)):
        for i in range(j + 1, len(m)):
            f = m[i][j] / m[j][j]
            m[i] = [x - f * y for x, y in zip(m[i], m[j])]
    return time.process_time() - c0


def kernel_median(count: int = 5) -> float:
    """Median CPU seconds of ``count`` kernel calls in a row."""
    return statistics.median(calibration_kernel() for _ in range(count))


def normalized_seconds(cpu_s, kernel_s, window: int = KERNEL_WINDOW) -> list[float]:
    """Each job's CPU time at the reference machine's speed.

    ``kernel_s[i]`` is the calibration kernel timed just before
    job ``i``; the median of the kernels within ``window`` jobs of it gives
    the speed at that moment, and the job's CPU time is scaled by
    ``KERNEL_REF_S`` / that median."""
    out = []
    for i, cpu in enumerate(cpu_s):
        local = statistics.median(kernel_s[max(0, i - window):i + window + 1])
        out.append(cpu * KERNEL_REF_S / local)
    return out
