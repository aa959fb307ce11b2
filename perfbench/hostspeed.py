"""Time ops in CPU seconds, scaled to a reference host speed.

The benchmark runs on a few cores of a shared host.  Two things move its
timings there: the process waits while the host runs other tenants on
its CPU, and, while it runs, the CPU is slower or faster by half or more
within a second, with the load of other tenants on the same core and
memory.  The first is left out by timing in the process's CPU seconds
(``time.process_time``), which do not count time the process was not
running; dilogic is single-threaded and CPU-bound, so on a host of its
own an op's CPU time is its wall time.  The second is scaled away: a
fixed pure-Python kernel, which shares no code with dilogic, is timed in
CPU seconds every ``SAMPLE_EVERY_S`` seconds from a SIGALRM handler, so
also in the middle of a long op; an op's time leaves out the kernel runs
inside it, and a span of ops is multiplied by ``REFERENCE_KERNEL_S`` over
the mean kernel time of the samples taken during it and within
``MARGIN_S`` before and after it (a trimmed mean for a span whose time
is the median of several short ops).  A change to dilogic moves the op
times and not the kernel, so it moves the scaled times as it moves the
unscaled ones; the unscaled times are printed beside them.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter, process_time

# The kernel's median CPU time on the host the benchmark was written on
# (Python 3.11, 2 vCPUs of a shared VM); scaled times are CPU seconds on
# a host that runs the kernel this fast.
REFERENCE_KERNEL_S = 0.001
SAMPLE_EVERY_S = 0.025
# A span's scale also uses the samples this close before and after it,
# so a span shorter than the sampling period still rests on a few.
MARGIN_S = 2 * SAMPLE_EVERY_S
# Share of a short span's samples dropped at each end before averaging,
# so one sample caught at an odd moment does not move the span.
TRIM = 0.2


def kernel():
    """Allocation-heavy Python like dilogic's own: tuples, frozenset keys
    in a dict, Fraction arithmetic and a sort."""
    groups = {}
    for i in range(150):
        key = frozenset((i % 97, (i * 31) % 101))
        groups.setdefault(key, []).append(Fraction(i % 9, 1 + i % 5))
    total = sum(max(v) for v in groups.values())
    return total, sorted(groups, key=lambda k: tuple(sorted(k)))[0]


def trimmed_mean(values, trim):
    values = sorted(values)
    cut = int(len(values) * trim)
    return statistics.fmean(values[cut:len(values) - cut])


class HostSpeed:
    """Kernel samples, taken on a timer while the object is entered."""

    def __init__(self):
        self.at = []        # start of each sample, perf_counter seconds
        self.kernel_s = []  # CPU seconds of each sample
        self.in_kernel_s = 0.0

    def sample(self, *_signal_args):
        at = perf_counter()
        t0 = process_time()
        kernel()
        seconds = process_time() - t0
        self.at.append(at)
        self.kernel_s.append(seconds)
        self.in_kernel_s += seconds

    def clock(self):
        """CPU seconds of this process, without those of kernel samples."""
        return process_time() - self.in_kernel_s

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        return False

    def scale(self, start, end, trim=TRIM):
        """REFERENCE_KERNEL_S over the mean kernel time, with the share
        ``trim`` cut off each end, of the samples taken from ``MARGIN_S``
        before ``start`` to ``MARGIN_S`` after ``end`` (perf_counter
        seconds)."""
        first = bisect.bisect_left(self.at, start - MARGIN_S)
        last = bisect.bisect_right(self.at, end + MARGIN_S)
        # A long C call can hold the timer's signal back; then the span
        # rests on the nearest later sample.
        window = (self.kernel_s[first:last]
                  or [self.kernel_s[min(first, len(self.kernel_s) - 1)]])
        return REFERENCE_KERNEL_S / trimmed_mean(window, trim)
