"""Machine-speed calibration for a shared, drifting host.

On a host shared with other tenants, the speed of a vCPU drifts by tens of
percent over seconds to minutes: a fixed single-threaded Python loop was
measured at anywhere between 0.12 and 0.21 s on one otherwise idle
2-vCPU VM, and the median predict op of ten consecutive runs ranged from
0.76 to 1.25 s.  Drift of that size swamps the run-to-run spread of every
wall time.

Each run therefore times a fixed reference kernel, which never touches
meshseg, before the first set-up and after every set-up and op.  A time is
reported in calibrated seconds: wall seconds times NOMINAL_S over the
median kernel time measured around it, i.e. the time it would take at the
speed where the kernel takes NOMINAL_S.  The kernel is single-threaded,
so BLAS worker threads idling on the other vCPU do not slow it.  Raw wall
times stay in the result record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.008  # scale of a calibrated second: near the kernel's median on a 2-vCPU x86-64 VM


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._vec = rng.random(1 << 16, dtype=np.float32)
        self._big = rng.random(1 << 20, dtype=np.float32)  # 4 MB, past the L2 cache
        self._out = np.empty_like(self._big)
        self._mat = rng.random((256, 256), dtype=np.float32)
        self.points = []  # median kernel time at each mark, in time order

    def _kernel(self):
        # interpreter, in-cache elementwise, streaming and partition work,
        # the mix a meshseg op spends its time on
        t0 = time.perf_counter()
        acc = 0
        for i in range(30000):
            acc += i * i
        for _ in range(30):
            np.maximum(np.exp(self._vec), 0.5)
        np.multiply(self._big, 1.0001, out=self._out)
        for _ in range(4):
            np.argpartition(self._mat, 8, axis=1)
        return time.perf_counter() - t0

    def mark(self, repeats=3):
        self.points.append(statistics.median(self._kernel() for _ in range(repeats)))

    def scale(self, before, window=0):
        """Calibrated seconds per wall second for the interval between marks
        `before` and `before + 1`, from the marks up to `window` steps
        further out on either side."""
        lo = max(0, before - window)
        return NOMINAL_S / statistics.median(self.points[lo:before + 2 + window])

    def run_scale(self):
        return NOMINAL_S / statistics.median(self.points)
