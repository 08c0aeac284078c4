"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the same pure-Python code runs up to
three-quarters again as slow, in spells from tens of milliseconds to
minutes, and the share of a run spent slow changes from run to run. A
median of wall times inherits that swing. So the harness times every
step with a ``Meter``: a fixed calibration loop runs at the step's start
and end, and, through a timer signal, every ``INTERVAL_S`` inside it. Each
stretch of wall time between two loop runs is scaled by how fast the
loop ran at its two ends:

    scaled = wall * REFERENCE_S / sqrt(loop time before * loop time after)

A scaled time is the step's time at the speed at which the loop takes
``REFERENCE_S``, about full speed on a 2.1 GHz Xeon vCPU under Python
3.11. The loop touches nothing of trailnet, so a change to the program
moves the scaled time as it moves the wall time. Time spent in the loop
counts in neither.
"""

from __future__ import annotations

import math
import signal
import time

REFERENCE_S = 0.003
INTERVAL_S = 0.1
_ITERATIONS = 30_000
_KEYS = [f"k{i}" for i in range(64)]


def calibrate() -> float:
    """Wall time of the fixed calibration loop: dict, string and int work."""
    began = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(_ITERATIONS):
        key = _KEYS[i & 63]
        counts[key] = counts.get(key, 0) + i % 7
    return time.perf_counter() - began


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time, scaled to the reference speed."""
    return seconds * REFERENCE_S / math.sqrt(before * after)


class Meter:
    """Calibration marks taken on request and, inside a ``with`` block, on a timer.

    ``interval_s=None`` takes marks only on request, so that no pause
    lands inside a traced span.
    """

    def __init__(self, interval_s: float | None = INTERVAL_S):
        self.interval_s = interval_s
        self.marks: list[tuple[float, float, float]] = []  # loop start, loop end, loop time
        self._busy = False
        self._saved_handler = None

    def __enter__(self) -> Meter:
        if self.interval_s:
            self._saved_handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._saved_handler)

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self.mark()

    def mark(self) -> int:
        """Run the calibration loop now; return the mark's index."""
        self._busy = True
        began = time.perf_counter()
        loop = calibrate()
        self.marks.append((began, time.perf_counter(), loop))
        index = len(self.marks) - 1
        self._busy = False
        return index

    def between(self, first: int, last: int) -> tuple[float, float]:
        """Wall and scaled seconds from mark ``first`` to mark ``last``, loops excluded."""
        wall = scaled = 0.0
        for (_, end, before), (start, _, after) in zip(
            self.marks[first:last], self.marks[first + 1:last + 1]
        ):
            wall += start - end
            scaled += scale(start - end, before, after)
        return wall, scaled
