"""Host-speed calibration of the benchmark's timings.

On a shared host the same pure-Python code can run up to about 2x slower for
seconds to minutes at a time, in CPU time as much as in wall time: another
tenant competes for the core, the process is not descheduled.  Code bound by
the interpreter loop slows the most; code bound by C big-int routines much
less.  Without a correction that drift, not chipfire, sets the run-to-run
spread.

A `HostClock` times fixed kernels that use no chipfire code, every
SAMPLE_EVERY seconds between jobs, and scales each timed span by REF_S over
the kernel time measured around it (the geometric mean of that ratio over the
kernels, when there are several).  The scaled figures are seconds at the host
speed at which each kernel takes its REF_S.  A change to chipfire moves them
in full; a change in host speed moves them only as far as the kernels fail to
track it.  Each workload names the kernels that share its mix of work.
"""

from __future__ import annotations

import math
import statistics
import time

SAMPLE_EVERY = 0.25  # seconds of job time between kernel samples
REPEATS = 3  # kernel runs per sample; the sample is their median


def _interpreter_kernel() -> int:
    """Loops over small ints, a list and a dict, and 700-digit arithmetic:
    the mix of the engines, formulas and sequences."""
    counts = [0] * 64
    seen: dict[int, int] = {}
    for i in range(8000):
        j = (i * 7919) & 63
        counts[j] += 1
        seen[j] = seen.get(j, 0) + i
    x = 3**1500
    acc = 0
    for i in range(60):
        acc += x * (x + i) // (x - i - 1)
    return acc + sum(counts) + len(seen)


def _bigint_kernel() -> int:
    """Square root, product and decimal conversion of integers of thousands of
    digits (each string under 4300 digits): the mix of the digit dumps."""
    x = 7**30000
    root = math.isqrt(x)
    y = root * (root + 1)
    text = str(y % 10**4000) + str(root % 10**4000)
    return len(text)


# kernel, and REF_S: about its time in the fastest state of a shared 2.1 GHz
# Intel Xeon host, so that scaled figures read close to that state's seconds
KERNELS = {"interpreter": (_interpreter_kernel, 0.0019),
           "bigint": (_bigint_kernel, 0.0066)}


class HostClock:
    """Kernel samples taken between jobs, and the scale they give each span."""

    def __init__(self, kernels: tuple[str, ...]) -> None:
        self.kernels = [KERNELS[name] for name in kernels]
        self.samples: list[float] = []  # the scale each sample gives
        self._last = -math.inf

    def sample(self) -> int:
        """Times the kernels now; returns the sample's index."""
        ratios = []
        for kernel, ref_s in self.kernels:
            runs = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                kernel()
                runs.append(time.perf_counter() - start)
            ratios.append(ref_s / statistics.median(runs))
        self.samples.append(statistics.geometric_mean(ratios))
        self._last = time.perf_counter()
        return len(self.samples) - 1

    def tick(self) -> int:
        """The index of the latest sample, after taking a new one if the last
        is SAMPLE_EVERY seconds old."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        """The scale of a span that began after sample `index`: the mean of
        that sample's and the next one's."""
        after = self.samples[min(index + 1, len(self.samples) - 1)]
        return (self.samples[index] + after) / 2
