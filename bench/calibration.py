"""Timing that discounts the drift of a shared machine's speed.

On a 2-vCPU Intel Xeon virtual machine whose cores other tenants shared,
the speed of one process drifted by about a quarter within minutes.
``Meter.time`` therefore samples the speed while an operation runs: a
fixed pure-Python workload (two products in the benchmark's own bit-mask
Grassmann algebra, no berezin code) runs before and after the operation
and, from a timer signal, every ``TICK_S`` during it.  The
operation's time less the time spent sampling is scaled by
``SAMPLE_S / median sample``: the time it would take on a machine where
the sample takes ``SAMPLE_S``, the sample's median on that machine.  A
change to the program cannot move the samples, so its effect shows in full.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

from reference import mul

SAMPLE_S = 0.00105
TICK_S = 0.05


class Meter:
    def __init__(self):
        rng = random.Random(0)
        self._left = {mask: complex(rng.random(), rng.random()) for mask in range(0, 256, 3)}
        self._right = {mask: complex(rng.random(), rng.random()) for mask in range(0, 256, 5)}
        self._samples: list[float] = []
        self._spent = [0.0, 0.0]  # wall and CPU seconds spent sampling inside the operation

    def _sample(self) -> tuple[float, float]:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        mul(self._left, self._right)
        mul(self._left, self._right)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        self._samples.append(wall)
        return wall, cpu

    def _tick(self, signum, frame) -> None:
        wall, cpu = self._sample()
        self._spent[0] += wall
        self._spent[1] += cpu

    def scale(self) -> float:
        """Factor from this moment's seconds to calibrated seconds."""
        self._samples = []
        for _ in range(5):
            self._sample()
        return SAMPLE_S / statistics.median(self._samples)

    def time(self, fn):
        """Run ``fn()``; return (its result, calibrated wall s, calibrated CPU s)."""
        self._samples = []
        self._spent = [0.0, 0.0]
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._tick)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        scale = SAMPLE_S / statistics.median(self._samples)
        return result, (wall - self._spent[0]) * scale, (cpu - self._spent[1]) * scale
