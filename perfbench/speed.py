"""The machine-speed probe that scales the benchmark's end-to-end times.

It imports nothing of the program, so it can sample the program's import.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np


class SpeedProbe:
    """Samples how fast the machine runs while a run is timed.

    The host is shared with other work: for seconds to minutes
    at a time it runs the same code 10-40% slower, which gave raw wall
    times 8-25% spreads between runs of the same code, on planning and
    execution alike.  While the probe is entered, a SIGALRM handler times a
    fixed, allocation-free piece of work (a short Python loop and two
    100x100 matmuls, about 0.3 ms) every ``INTERVAL_S`` of wall time, in the
    middle of whatever the program is doing, so it is slowed by what slows
    the program.  ``speed()`` is the median sample over the reference box's;
    dividing a run's times by it cut those spreads to 2-6%.  Probes timed
    between requests instead tracked the program worse than the raw times
    did.
    """

    INTERVAL_S = 0.025
    #: Median sample on the reference box (2-core Xeon VM) when not slowed.
    REFERENCE_S = 2.5e-4

    def __init__(self) -> None:
        self.square = np.random.default_rng(0).standard_normal((100, 100))
        self.product = np.empty_like(self.square)
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        acc = 0
        for i in range(2000):
            acc += i * i % 7
        for _ in range(2):
            np.matmul(self.square, self.square, out=self.product)
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, first: int = 0, last: int | None = None) -> float:
        """How many times slower than the reference box the machine ran
        while ``samples[first:last]`` were taken."""
        return (statistics.median(self.samples[first:last])
                / self.REFERENCE_S)
