"""The machine's speed, sampled while a job or a set-up runs.

On a shared machine a core runs at one of two speeds a factor of about 1.6
apart, switching within a second as other tenants come and go on the same
physical core, and the share of time spent slow drifts from one minute to
the next.  Raw timings of the same work then spread by 0.2 to 0.4 of their
median over ten runs.  So the benchmark times a fixed piece of its own
pure-Python work, `reference()`, right before and right after each measured
interval and, from a timer signal, every PERIOD_S seconds inside it.  The
mean of those reference times over REFERENCE_SECONDS is the interval's
speed factor (above 1: the machine ran slower than when the benchmark was
defined), and the interval's time at reference speed is its wall time less
the time spent in the samples, divided by that factor.  The reference runs
no code of the package, so a change to the package moves the time at
reference speed fully and the factor not at all.
"""

from __future__ import annotations

import signal
import statistics
import time

import inputs

# median seconds of reference() on the machine that defined the benchmark
# (Python 3.11, 2 vCPUs); it fixes the unit of every time at reference speed
REFERENCE_SECONDS = 0.0009
PERIOD_S = 0.05

_GROUP = inputs.POOL["S4xS3"]


def reference() -> float:
    """Seconds to enumerate a permutation group of order 144 with the
    benchmark's own closure code: the kind of work the package does."""
    t0 = time.perf_counter()
    inputs.closure_bfs(_GROUP.degree, list(_GROUP.gens))
    return time.perf_counter() - t0


class Probe:
    """Measures intervals of wall time together with the machine's speed.

    While an interval runs, a SIGALRM handler times reference() every
    PERIOD_S seconds; the handler runs in the main thread between bytecodes,
    so it delays the measured code by the sample's own time, which is
    subtracted again.
    """

    def __init__(self):
        self._samples = None

    def _sample(self, signum, frame):
        if self._samples is not None:
            self._samples.append(reference())

    def start(self):
        self._before = reference()
        self._samples = []
        signal.signal(signal.SIGALRM, self._sample)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> tuple:
        """(wall seconds less sampling, seconds spent sampling, speed factor)
        of the interval since start(); the first over the last is its time
        at reference speed."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - self._t0
        samples, self._samples = self._samples, None
        factor = statistics.mean([self._before, *samples, reference()]) / REFERENCE_SECONDS
        return wall - sum(samples), sum(samples), factor
