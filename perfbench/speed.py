"""Wall times scaled to one machine speed by fixed calibration kernels.

The benchmark runs on shared machines whose speed drifts by up to 1.8x in
stretches of seconds to minutes, with process CPU time tracking wall time
and the kernel's steal time near 1 %: the processor itself runs slower.
A whole run can fall inside a slow stretch, and no statistic of the
run's own times can tell. So the run also times a fixed kernel of the
benchmark's own (no minent code) between pieces of work, and scales each
piece's wall time by the kernel's reference time over the mean of the
kernel times just before and after it. A scaled time reads in seconds at
the speed at which the kernel takes its reference time; the raw times are
printed too. Work done before the timed loop, such as the set-up probes,
takes one scale from the median kernel time of the whole run.

There are two kernels, because work in one process and work that starts
a fresh interpreter slow down differently:

- ``compute`` runs in the benchmark's process: Python loops over dicts
  and frozensets, numpy calls on tiny arrays and on 4 x 2000 arrays, and
  a small dense solve. It scales calls into minent's API.
- ``start`` starts a fresh ``python -c "import numpy"``: process start,
  interpreter start-up and loading numpy, which is most of what a CLI
  call costs. It scales those.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Callable

import numpy as np

# Time the kernel between pieces of work once this much time has gone by.
CALIBRATE_EVERY_S = 0.5

_RNG = np.random.default_rng(12345)
_VECTORS = [_RNG.random(6) for _ in range(40)]
_WIDE = _RNG.random((4, 2000))
_MATRIX = _RNG.random((60, 60))
_SYSTEM = _MATRIX + 60.0 * np.eye(60)


def compute_kernel() -> float:
    start = perf_counter()
    acc = 0.0
    for _ in range(24):
        for vec in _VECTORS:
            work = vec.copy()
            i = int(np.argmax(work))
            work[i] -= work.min()
            acc += float(work.sum())
            table = {k: k * acc for k in range(8)}
            cells = frozenset((k, i) for k in range(4))
            acc += len(cells) + sum(table.values()) * 1e-12
        for _ in range(10):
            wide = _WIDE.copy()
            wide[:, wide.argmax(axis=1)] -= 0.5
            acc += float(np.maximum(wide, 0.0).sum())
        acc += float(np.linalg.solve(_SYSTEM, _MATRIX[0]).sum())
    return perf_counter() - start


def start_kernel() -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return perf_counter() - start


# Name -> (kernel, its median time on the machine the baseline in
# README.md was measured on).
KERNELS: dict[str, tuple[Callable[[], float], float]] = {
    "compute": (compute_kernel, 0.022),
    "start": (start_kernel, 0.23),
}


class Speedometer:
    """Gives every timed piece of work the scale of the kernel runs around it.

    ``timed`` appends a slot to a list of scales for the work just timed;
    the slot is filled at the next calibration, which runs once
    ``CALIBRATE_EVERY_S`` has gone by or when ``calibrate`` is called.
    Call ``calibrate`` once more after the last timed work.
    """

    def __init__(self, kernel: str) -> None:
        self.name = kernel
        self._kernel, self.reference_s = KERNELS[kernel]
        self._kernel()  # warm-up
        self.kernel_s: list[float] = []
        self._pending: list[tuple[list[float], int]] = []
        self._last = self._measure()

    def _measure(self) -> float:
        took = self._kernel()
        self.kernel_s.append(took)
        self._at = perf_counter()
        return took

    def timed(self, scales: list[float]) -> None:
        scales.append(math.nan)
        self._pending.append((scales, len(scales) - 1))
        if perf_counter() - self._at >= CALIBRATE_EVERY_S:
            self.calibrate()

    def calibrate(self) -> None:
        took = self._measure()
        scale = 2.0 * self.reference_s / (self._last + took)
        for scales, i in self._pending:
            scales[i] = scale
        self._pending.clear()
        self._last = took

    def run_scale(self) -> float:
        """One scale for work done in the same run but not between kernel
        runs: the reference over the median kernel time of the run."""
        return self.reference_s / statistics.median(self.kernel_s)


def scaled(times: list[float], scales: list[float]) -> list[float]:
    return [t * s for t, s in zip(times, scales)]
