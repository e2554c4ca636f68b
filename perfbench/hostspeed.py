"""Host speed sampling, to scale latencies to a nominal host.

A shared host can change speed by half or more from one second to the
next and stay there for tens of seconds, far more than the changes the
benchmark must resolve.  While a batch runs, a wall-clock timer signal
interrupts it every SAMPLE_EVERY_S and times a short fixed kernel, so
the host's speed is sampled evenly in time, inside long commands too.
A command's latency, less the time spent in the handler, is then scaled
by NOMINAL_S over the mean kernel time sampled during it.  The kernel
uses no covertool code, so no change to the program moves it.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

SAMPLE_EVERY_S = 0.25
# Kernel time of a nominal host: about its median on the 2-vCPU shared
# host the baseline was recorded on, so scaled times read close to its
# wall times.
NOMINAL_S = 0.008


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python kernel of the tuple, set,
    dict and generator work covertool does, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        memo = {}
        for i in range(2500):
            key = (i % 7, i % 11, i % 13, i % 5)
            value = memo.get(key)
            if value is None:
                value = memo[key] = tuple(sorted(set(key)))
            all(x <= y for x, y in zip(key, value))
            frozenset(k for k in key if k)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Calibration samples taken from SIGALRM while the context is open.

    `spent` is the time the handler took so far, for callers to subtract
    from what they time.  With a tracer, each sample is also recorded as
    a span, so that the layer it interrupted is not charged for it.
    """

    def __init__(self, tracer=None):
        self.samples: list[float] = []
        self.spent = 0.0
        self._tracer = tracer
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(calibrate())
        end = perf_counter()
        self.spent += end - start
        if self._tracer is not None:
            self._tracer.add_span("perfbench.calibrate", start, end)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, latencies, windows) -> list[float]:
        """Each latency scaled by the samples in its window (start, stop)
        of sample indices, or by all samples when its window has none."""
        if not self.samples:
            self.samples.append(calibrate())
        whole = statistics.fmean(self.samples)
        return [
            seconds * NOMINAL_S / (statistics.fmean(self.samples[a:b]) if b > a else whole)
            for seconds, (a, b) in zip(latencies, windows)
        ]
