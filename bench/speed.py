"""Request times at a nominal machine speed.

The benchmark shares a few cores of a host with other tenants, which
moves wall-clock times in two ways the program does not cause: steal
time (the virtual CPU is not running, adding spikes of tens of
milliseconds to single requests) and phases of seconds to minutes in
which the CPU runs up to 1.5x slower.  So the end-to-end times are CPU
times of the benchmark process's one thread, which steal does not reach,
scaled to a nominal speed: every PERIOD_S of CPU time a profiling timer
runs a fixed reference loop that uses nothing from fourfold, and a
request's CPU time is multiplied by REFERENCE_S over the median time of
the reference loops run during the request, or, for a request too short
to hold NEAREST of them, of the NEAREST loops run closest to it.  The
loops' own CPU time is not counted in any request.  The program computes
in one thread and waits for nothing, so on an unshared machine its CPU
time is its latency.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.025
NEAREST = 16
REFERENCE_S = 0.0006  # CPU time of one reference loop at nominal speed
SETUP_SAMPLES = 15


def reference_loop() -> int:
    """Fixed interpreter work: integer arithmetic over lists and a dict."""
    row = list(range(1, 60))
    acc = 0
    for k in range(60):
        row = [(x * 31 + k) % 1000003 for x in row]
        acc += sum(row)
    counts = {}
    for i in range(800):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc + len(counts)


def _timed_loop() -> float:
    start = time.thread_time()
    reference_loop()
    return time.thread_time() - start


def nominal_setup_s() -> float:
    """CPU time of this thread so far (interpreter start-up and imports),
    scaled to nominal speed by reference loops run right after it."""
    cpu_s = time.thread_time()
    loops = [_timed_loop() for _ in range(SETUP_SAMPLES)]
    return cpu_s * REFERENCE_S / statistics.median(loops)


class Speedometer:
    """Samples the machine's speed with the reference loop on a CPU-time
    timer and converts request CPU times to nominal-speed times."""

    def __init__(self):
        self.when = []      # perf_counter() at the start of each reference loop
        self.cpu_s = []     # CPU seconds each loop took
        self.spent_s = 0.0  # CPU seconds of all loops, excluded from requests

    def _sample(self, signum, frame):
        when = time.perf_counter()
        cpu_s = _timed_loop()
        self.when.append(when)
        self.cpu_s.append(cpu_s)
        self.spent_s += cpu_s

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """Nominal over measured speed during [start, end]."""
        when = self.when
        lo = bisect.bisect_left(when, start)
        hi = bisect.bisect_right(when, end)
        while hi - lo < NEAREST and (lo > 0 or hi < len(when)):
            if hi == len(when) or (lo > 0 and start - when[lo - 1] <= when[hi] - end):
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.median(self.cpu_s[lo:hi])
