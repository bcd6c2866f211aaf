"""CPU-speed calibration for a shared, noisy machine.

The 2-core VM this benchmark was written on slowed down and sped up by up
to 1.5x over tens of seconds, for reasons outside the process (other
tenants of the host).  A fixed calibration kernel therefore runs before
the first and after every op and set-up probe, and a run's median time
is rescaled by the median kernel time of that run to the speed at which
the kernel takes ``REFERENCE_S``.  One factor per run follows the drift
between runs; a factor per op would add the noise of a 0.1 s sample to
every op of several seconds.  The kernel mixes
interpreter-bound arithmetic with small-array numpy calls, the same
kind of work as tubeplan's hot paths, and belongs to the benchmark, so
no change to tubeplan can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about the kernel time on a 2-core x86-64 VM (Python 3.11, numpy 2.4);
# only the ratio to the measured kernel time matters
REFERENCE_S = 0.1
_X0 = np.linspace(0.1, 1.0, 512 * 9).reshape(512, 9)


def calibrate():
    """Wall seconds of one run of the fixed calibration kernel."""
    tic = time.perf_counter()
    s = 0
    for i in range(800_000):
        s += i * i
    x = _X0
    for _ in range(2400):
        x = x + 0.01 * np.tanh(x)
    return time.perf_counter() - tic


def scaled(seconds, cals):
    """``seconds`` rescaled by the median of a run's kernel times."""
    return seconds * REFERENCE_S / statistics.median(cals)
