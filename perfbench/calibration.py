"""Host-speed calibration of the benchmark's end-to-end times.

The benchmark's host is a small VM on a shared machine, and its speed
switches between levels up to 1.7x apart that last from seconds to
minutes, on both vCPUs at once.  A raw wall time therefore measures the
neighbours as much as the program.  To take that out, a fixed kernel that
does not touch torusrd (a 96^2 complex FFT round trip plus an interpreter
loop, the mix of a cheap solver step) runs about every INTERVAL_S of the
timed work.  A timed interval is then reported as

    (interval - kernel time inside it) * REFERENCE_S / (kernel time around it)

that is, as the time the interval would take on a host where the kernel
takes REFERENCE_S.  The kernel writes into buffers allocated once, so it
leaves the program's heap as it found it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

KERNEL_N = 96
KERNEL_REPS = 16
INTERVAL_S = 0.1
# median kernel time on a 2-vCPU Intel Xeon VM at 2.1 GHz, numpy 2.4.6
REFERENCE_S = 0.0060


class Calibrator:
    """Runs the kernel now and then and rescales intervals by its times."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((KERNEL_N, KERNEL_N)) + 0j
        self._b = np.empty_like(self._a)
        self._k = np.exp(-np.arange(float(KERNEL_N)))[None, :]
        # start and end of every kernel run, in order
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._next = 0.0

    def sample(self) -> None:
        """Run the kernel once and record when."""
        t0 = time.perf_counter()
        for _ in range(KERNEL_REPS):
            np.fft.fft2(self._a, out=self._b)
            np.multiply(self._b, self._k, out=self._b)
            np.fft.ifft2(self._b, out=self._b)
            sum(i * i for i in range(200))
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._next = t1 + INTERVAL_S

    def tick(self) -> None:
        """Run the kernel if INTERVAL_S has passed since its last run."""
        if time.perf_counter() >= self._next:
            self.sample()

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def _inside(self, t0: float, t1: float) -> range:
        """Indices of the kernel runs inside [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        return range(lo, max(lo, bisect.bisect_right(self.ends, t1)))

    def program_s(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] not spent in the kernel."""
        return t1 - t0 - sum(self.ends[i] - self.starts[i] for i in self._inside(t0, t1))

    def scaled(self, t0: float, t1: float) -> float:
        """program_s of [t0, t1] at the reference speed.

        The speed is the median kernel time over the runs inside the
        interval and the nearest run on either side.
        """
        inside = self._inside(t0, t1)
        around = range(max(inside.start - 1, 0), min(inside.stop + 1, len(self.starts)))
        if not around:
            raise RuntimeError("no calibration kernel run to scale by")
        kernel = statistics.median(self.ends[i] - self.starts[i] for i in around)
        return self.program_s(t0, t1) * REFERENCE_S / kernel
