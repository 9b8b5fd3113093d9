"""A reference kernel that gauges how fast the host runs this process now.

On a shared host the same code can run at half speed for seconds at a time.
Timing a fixed kernel around and during each op measures that speed, and
scaling the op's time by it cancels most of a slow spell.  The kernel uses
numpy but not ``relcode``, so a change to the program cannot change it.
"""

import signal
from time import perf_counter_ns

import numpy as np

# the kernel's time on an idle core of the host the benchmark was tuned on
# (2 vCPUs of a Xeon, model 143, under KVM); op times are reported at this
# speed: ``op_ns * NOMINAL_NS / kernel_ns``
NOMINAL_NS = 155_000
# how often the kernel is also timed while an op runs; at 155 us a sample,
# this takes 0.3% of the time, and that time is taken off the op's time
INTERVAL_S = 0.05

_X = np.arange(64, dtype=np.float64)


def kernel() -> int:
    """Nanoseconds for a Python loop of small numpy calls: the interpreter-
    bound mix that dominates single codes and small batches, and that a slow
    spell of the host slows the most."""
    t0 = perf_counter_ns()
    for i in range(12):
        b = np.where(_X > i, _X, 0.0) * 1.5
        float(np.clip(b, 0.0, 10.0).sum())
    return perf_counter_ns() - t0


class Gauge:
    """Times the kernel just before and after each op, and every
    ``INTERVAL_S`` while it runs (from a ``SIGALRM`` timer, so long ops get
    samples from their whole span).  Use as a context manager."""

    def __init__(self):
        self.samples: list[int] = []
        self.spent_ns = 0  # time inside the timer's handler

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter_ns()
        self.samples.append(kernel())
        self.spent_ns += perf_counter_ns() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def mark(self) -> tuple[int, int]:
        """Call just before an op starts."""
        self.samples.append(kernel())
        return len(self.samples) - 1, self.spent_ns

    def since(self, mark: tuple[int, int], elapsed_ns: int) -> tuple[int, float]:
        """Call just after the op: its time less the handler's, and the mean
        kernel time over the op."""
        self.samples.append(kernel())
        first, spent = mark
        window = self.samples[first:]
        return elapsed_ns - (self.spent_ns - spent), sum(window) / len(window)
