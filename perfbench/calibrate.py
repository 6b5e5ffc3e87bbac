"""Machine-speed calibration for timing on a shared virtual machine.

On the 2-vCPU virtual machines this benchmark was built on, the speed of a
core halves and recovers from one stretch of seconds to the next, and CPU
time changes with it.  A small fixed pure-Python kernel, timed while the
work runs, changes by the same factor: the ratio of a job's CPU time to the
kernel's stayed within a few percent while both moved by a third or more.
The benchmark therefore reports each time rescaled to a core on which one
kernel run takes REFERENCE_S, and prints the raw CPU and wall times beside.

A Speedometer times the kernel on a CPU-time timer signal (every EVERY_S
of process CPU time), so a job that runs for seconds is measured against
the speed of the core during that job; the kernel's own CPU time is kept
apart so that it can be subtracted.  The kernel does what the package
spends its time on, Fraction arithmetic and dict updates keyed by tuples,
and touches no ainfty code, so no change to the package can change it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# CPU seconds of one kernel run on the reference core: the median on the
# machine the benchmark was calibrated on (a 2-vCPU x86-64 virtual
# machine, CPython 3.11).
REFERENCE_S = 0.00075
EVERY_S = 0.025


def kernel():
    acc = {}
    x = Fraction(1, 3)
    for i in range(48):
        key = (i % 13, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + x * (i % 7)
        x = x * Fraction(3, 5) + Fraction(1, 7) if i % 16 else Fraction(1, 3)
    return len(acc)


def scale(seconds, kernel_s):
    """seconds measured while the kernel took kernel_s, on the reference core."""
    return seconds * REFERENCE_S / kernel_s


class Speedometer:
    """Times the kernel every EVERY_S of this process's CPU time while
    active (a context manager; it owns the SIGPROF handler meanwhile)."""

    def __init__(self):
        self.samples = []        # CPU seconds of each kernel run
        self.spent = 0.0         # CPU seconds spent in kernel runs

    def sample(self):
        start = time.thread_time()
        kernel()
        took = time.thread_time() - start
        self.samples.append(took)
        self.spent += took

    def _tick(self, signum, frame):
        self.sample()

    def __enter__(self):
        for _ in range(3):
            self.sample()
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def clock(self):
        """CPU time of this thread not spent in the kernel."""
        return time.thread_time() - self.spent

    def mark(self):
        return len(self.samples)

    def kernel_since(self, mark):
        """Kernel time to rescale the work since mark by: the harmonic mean
        of the runs since then, or of the last three runs when there were
        none (the work was shorter than EVERY_S).

        Runs are spaced evenly in CPU time, so a slow stretch holds more of
        them; averaging the reciprocals weighs each stretch by the work done
        in it, and a run slowed by a cold cache barely counts."""
        return statistics.harmonic_mean(self.samples[mark:] or self.samples[-3:])
