"""Host speed sampled during the measured work, to scale latencies to it.

On a shared virtual machine the same code runs up to twice as slow in
phases that last from seconds to minutes, as neighbours load the physical
cores; CPU time rises with wall time, so it does not help. Repeating passes
does not remove phases that last a whole run. So while the passes run, a
timer signal interrupts the work
every ``INTERVAL_S`` and times a fixed loop of interpreter arithmetic.
Timed next to the program's own work, the loop's time follows the
program's speed; on a 2-vCPU VM, scaling by it halved the spread of
repeated 0.3 s simulation runs (interquartile range over median from
0.31-0.35 to 0.15-0.18).

An operation's latency at reference speed is its wall time, less the
calibration time spent inside it, scaled by ``REFERENCE_S`` over the median
calibration time around it. The loop is the benchmark's own code, so a
change to the program moves the scaled latency as much as the wall time.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.1
# Calibration loop time on a 2-vCPU Xeon VM in its fast phase; scaled
# latencies are seconds at that speed.
REFERENCE_S = 0.00016
NEIGHBOURHOOD_NS = 500_000_000  # samples this close to an operation judge it


def calibration_loop() -> float:
    acc = 0.0
    for i in range(1500):
        acc += (i * 0.5) % 3.0
    return acc


class Sampler:
    """Times ``calibration_loop`` on a timer signal while the context is open.

    Each sample runs the loop twice and times the second run, so that the
    time measures the host and not how much of the loop the interrupted
    program had pushed out of the caches. Single-threaded programs only:
    the handler runs in the main thread, between the program's bytecodes.
    """

    def __init__(self):
        self.starts = []  # perf_counter_ns at each sample's start
        self.spans = []   # (start_ns, end_ns) of each sample, both runs
        self.times = []   # ns of each sample's timed run
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        calibration_loop()
        timed = time.perf_counter_ns()
        calibration_loop()
        end = time.perf_counter_ns()
        self.starts.append(start)
        self.spans.append((start, end))
        self.times.append(end - timed)

    def __enter__(self) -> Sampler:
        self._sample(None, None)  # one sample before any work
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start_ns: int, end_ns: int) -> float:
        """Seconds the work in [start_ns, end_ns) takes at reference speed."""
        lo = bisect.bisect_left(self.starts, start_ns - NEIGHBOURHOOD_NS)
        hi = bisect.bisect_right(self.starts, end_ns + NEIGHBOURHOOD_NS)
        # an operation inside one long native call may have no sample near it
        near = self.times[lo:hi] or self.times
        inside = sum(min(e, end_ns) - max(s, start_ns) for s, e in self.spans[lo:hi]
                     if s < end_ns and e > start_ns)
        busy_s = (end_ns - start_ns - inside) * 1e-9
        return busy_s * REFERENCE_S / (statistics.median(near) * 1e-9)
