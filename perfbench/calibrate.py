"""A fixed probe of the machine's current speed, independent of dyadiclab.

The shared machines this benchmark runs on change speed by 25 % and more
over minutes, in CPU time as much as in wall time.  A run therefore
times this kernel just before and just after every measured span (one
experiment, one group of items, one worker start-up), and reports the
span in reference seconds:

    reported = measured * REFERENCE_S / mean(kernel before, kernel after)

The kernel mixes what the library's hot paths do: interpreter loops over
tuples and dicts, numpy calls on tiny arrays, and a small single-threaded
matrix product.  It calls nothing in dyadiclab, so a change to the
library moves the reported times and a change in machine speed does not.
Do not edit the kernel or `REFERENCE_S`: either change rescales every
reported time, and the baseline would have to be measured again.
"""

from __future__ import annotations

import time

import numpy as np

# about the kernel's median time on the baseline machine (see README.md)
REFERENCE_S = 0.09


def kernel() -> int:
    acc = 0
    counts = {}
    for i in range(40000):
        key = (i & 7, (i >> 3) & 255)
        counts[key] = counts.get(key, 0) + 1
        acc += len(key)
    ramp = np.arange(64, dtype=float)
    for i in range(6000):
        pair = np.asarray((i, i + 1), dtype=np.int64)
        acc += int((pair * 3 + 1).sum())
        acc += int(ramp[i % 32: i % 32 + 16].mean())
    mat = np.ones((64, 64)) * 0.5
    for _ in range(20):
        mat = np.tanh(mat @ mat * 0.01)
    return acc + int(mat[0, 0] > 0)


def seconds() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def to_reference(before: float, after: float) -> float:
    """Reference seconds per measured second for a span between two probes."""
    return REFERENCE_S / ((before + after) / 2.0)


class Probe:
    """Kernel runs between consecutive timed spans.

    Create it just before the first span; call it just after each span to
    get that span's reference seconds per measured second.
    """

    def __init__(self):
        self.last = seconds()

    def __call__(self) -> float:
        now = seconds()
        factor = to_reference(self.last, now)
        self.last = now
        return factor
