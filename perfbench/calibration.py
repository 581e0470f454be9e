"""Machine-speed calibration: scale measured times to a reference speed.

On a shared virtual machine the vCPU's speed drifts by up to 2x within
seconds, and the drift slows all interpreted code alike.  The benchmark
therefore runs a fixed pure-Python kernel next to every timed unit (a case,
a few milliseconds of stream events, or a slice of a long case) and scales
the unit's wall time by ``REFERENCE_NS / kernel time``, the kernel time
being the mean of the runs just before and just after the unit.  A scaled
time reads as "wall time on a machine where the kernel takes
``REFERENCE_NS``" (about this 2-vCPU machine's uncontended speed).  The
kernel is the benchmark's own code, so a change to the program under test
moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

#: Kernel time at the reference speed.
REFERENCE_NS = 330_000
#: Long units of work are calibrated again after this much of it.
SLICE_NS = 5_000_000
#: Kernel runs whose median :func:`steady_sample` takes.
STEADY_RUNS = 5


def kernel() -> int:
    """Fixed interpreter work: dict, int and list operations, ~0.33 ms."""
    table = {}
    window = []
    acc = 0
    for i in range(900):
        key = (i * 7919) & 511
        table[key] = table.get(key, 0) + i
        acc ^= ((acc << 1) | key) & 0xFFFFFFFF
        window.append(key)
        if len(window) > 32:
            window.pop(0)
    return acc + len(table) + len(window)


def sample() -> int:
    """One timed kernel run, in nanoseconds."""
    start = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - start


def steady_sample() -> float:
    """Median of several kernel runs, for a one-off unit (an import, a
    set-up) that a single hiccupping kernel run would misjudge."""
    return statistics.median(sample() for _ in range(STEADY_RUNS))


def scale(before: int, after: int) -> float:
    """Factor from wall time to reference time for a unit timed between
    kernel runs of ``before`` and ``after`` nanoseconds."""
    return 2.0 * REFERENCE_NS / (before + after)


class Sliced:
    """Calibrate inside one long unit of work, every ``SLICE_NS``.

    A ``SIGALRM`` interval timer runs the kernel between bytecodes of the
    work; :meth:`reference_ns` scales each slice between two kernel runs on
    its own and leaves the kernel's time out.  Use as a context manager
    around the work, in the main thread.
    """

    def __init__(self):
        #: (work resumed at, kernel ns) per calibration point.
        self._marks: List[Tuple[int, int]] = []
        self._paused: List[int] = []
        self._busy = False

    def _calibrate(self, *_signal) -> None:
        if self._busy:  # a tick that lands while the kernel runs is dropped
            return
        self._busy = True
        stopped = time.perf_counter_ns()
        kernel_ns = sample()
        self._paused.append(stopped)
        self._marks.append((time.perf_counter_ns(), kernel_ns))
        self._busy = False

    def __enter__(self) -> "Sliced":
        self._previous = signal.signal(signal.SIGALRM, self._calibrate)
        kernel_ns = sample()
        self._marks = [(time.perf_counter_ns(), kernel_ns)]
        self._paused = []
        signal.setitimer(signal.ITIMER_REAL, SLICE_NS / 1e9, SLICE_NS / 1e9)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._calibrate()
        signal.signal(signal.SIGALRM, self._previous)

    def reference_ns(self) -> float:
        """The work's time at the reference speed, kernel runs excluded."""
        total = 0.0
        for (resumed, before), paused, (_, after) in zip(
            self._marks, self._paused, self._marks[1:]
        ):
            total += (paused - resumed) * scale(before, after)
        return total
