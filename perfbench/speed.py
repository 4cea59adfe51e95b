"""Host-speed sampling for the end-to-end times.

On a shared host the same code runs faster or slower by up to 1.7x in
phases of seconds to minutes (README, Steadiness).  A ``Sampler`` times
one small fixed piece of pure-Python work every INTERVAL_S while the
program runs, from a SIGALRM handler in the measured process.  The mean
sample time around a timed interval says how fast the host ran then, and
``scale`` turns the interval's seconds into seconds at reference speed:
seconds * (REFERENCE_S / mean sample time) ** SENSITIVITY.

The task imports nothing from the program, so a change to the program
cannot change it, and it allocates almost nothing, so it never shows in
``peak_rss_mb``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Median sample time on the reference host, a 2-vCPU Xeon VM at 2.0 GHz
# shared with other load, taken while the chain workload ran.
REFERENCE_S = 0.002
# The program's time moves as about this power of the task's.  On the
# reference host the slope of log(input time) over log(mean sample time),
# fitted per structure, had medians from 0.45 (batch) to 1.08 (lemma),
# varying from one spell of load to the next; 0.8 gave the smallest
# worst-case spread over the four workloads.  The task is pure
# interpreter work inside the CPU caches; the program also waits on
# memory, which the host's swing mostly slows less.
SENSITIVITY = 0.8
INTERVAL_S = 0.1
# The samples of an interval are those from PAD_S before it to PAD_S
# after it, widened around a short interval to MIN_WINDOW_S in all.
PAD_S = 0.3
MIN_WINDOW_S = 1.0


def _task() -> int:
    s = 0
    for i in range(3000):
        s += hash((i, "x%d" % (i % 7))) & 7
    return s


class Sampler:
    """Speed samples of one process: when each was taken, and how long
    the task took."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self, *_signal_args) -> None:
        # CPU time, not wall time: while the corpus workers of `batch`
        # keep both CPUs busy, a sample must not count its wait for one.
        self.times.append(time.perf_counter())
        t0 = time.thread_time()
        _task()
        self.durations.append(time.thread_time() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        """Factor from seconds measured in [t0, t1] to seconds at
        reference speed."""
        pad = max(PAD_S, (MIN_WINDOW_S - (t1 - t0)) / 2)
        i = bisect.bisect_left(self.times, t0 - pad)
        j = bisect.bisect_right(self.times, t1 + pad)
        window = self.durations[i:j]
        if not window:  # the nearest sample
            window = self.durations[min(i, len(self.durations) - 1) :][:1]
        return (REFERENCE_S / statistics.mean(window)) ** SENSITIVITY
