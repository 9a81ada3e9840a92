"""Machine-speed calibration for the benchmark's times.

The benchmark was tuned on a shared 2-core machine whose speed drifted by up
to ±20 % over minutes, as other tenants' load came and went. That drift
swamped the run-to-run comparison. Each run therefore times a fixed kernel
that never calls the program, at operation boundaries, and scales every time
it reports by `REFERENCE_MS / median(kernel time)`. That is the time the run
would have taken on a machine where the kernel takes `REFERENCE_MS`.

The kernel mixes the kinds of work the workloads do: a BLAS GEMM, a
large-array NumPy pass, small-array NumPy in a Python loop, and plain
interpreter work. Raw times stay in each run's record. README.md gives the
spreads measured with and without the scaling.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_MS = 8.0  # the kernel's time on a quiet machine of the tuning kind
INTERVAL_S = 0.5  # at most one sample per this much wall time


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((192, 384))
        self._b = rng.standard_normal((384, 192))
        self._x = rng.standard_normal(1 << 18)
        self._tiles = [rng.standard_normal((3, 32, 32)) for _ in range(50)]
        self.samples_ms: list[float] = []
        self.spent_s = 0.0  # wall time spent calibrating, to leave out of throughput
        self._last = -float("inf")

    def _kernel(self) -> None:
        for _ in range(4):
            self._a @ self._b
        np.sort(self._x * 1.5 + 2.0)
        for tile in self._tiles:
            (tile.reshape(3, 4, 8, 4, 8).transpose(0, 1, 3, 2, 4) * 0.5).sum()
        acc = 0
        for i in range(30000):
            acc += (i * i) & 7

    def sample(self, force: bool = False) -> None:
        """Time the kernel once, unless a sample was taken within INTERVAL_S."""
        start = time.perf_counter()
        if not force and start - self._last < INTERVAL_S:
            return
        self._kernel()
        end = time.perf_counter()
        self.samples_ms.append(1000.0 * (end - start))
        self.spent_s += end - start
        self._last = end

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to get it at reference speed."""
        return REFERENCE_MS / statistics.median(self.samples_ms)
