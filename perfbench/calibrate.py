"""Machine-speed calibration for the benchmark's time metrics.

The benchmark runs on shared machines whose speed drifts by 20-50% over
minutes as other tenants load the host, which moves every timing of a run
together.  A fixed kernel that does not depend on
wgherald (a dense complex eigendecomposition and a loop over Python dicts,
roughly the mix of the program's hot paths) is timed once after every job.
Job times are reported in calibrated seconds: measured seconds times
REFERENCE_S / (kernel time around the job), i.e. the time the work would
take on a machine where the kernel takes REFERENCE_S.  A faster or slower
program moves the calibrated figures; a faster or slower machine largely does
not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on the machine the benchmark was defined on (2-vCPU Xeon VM,
# OpenBLAS with one thread), so calibrated and raw seconds are close there.
REFERENCE_S = 0.004


class Kernel:
    """The calibration kernel; `time_once` runs it and returns its seconds."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._matrix = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self._records = [{"index": i, "pair": (i, i + 1)} for i in range(2000)]
        self.time_once()  # the first call pays one-off library set-up

    def time_once(self) -> float:
        start = time.perf_counter()
        np.linalg.eigvals(self._matrix)
        total = 0
        for _ in range(8):
            for rec in self._records:
                total += rec["pair"][1] - rec["index"]
        return time.perf_counter() - start


def local_factors(samples: list[float], half_width: int = 5) -> list[float]:
    """Per-job multipliers from measured to calibrated seconds.

    samples[i] is the kernel time measured right after job i.  Job i is
    scaled by the mean of the kernel times of jobs i - half_width through
    i + half_width, which follows the machine's speed over the few seconds
    around the job without leaning on a single 3.5 ms sample.
    """
    return [REFERENCE_S / statistics.fmean(samples[max(0, i - half_width):i + half_width + 1])
            for i in range(len(samples))]
