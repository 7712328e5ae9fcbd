"""A fixed reference computation that tracks the host's current speed.

A shared virtual machine can run up to 2x slower under load from its
neighbours, in spells from a fraction of a second to minutes, and the
slowdown shows in the process's CPU time as well as in wall time.  So the
raw time of an operation says as much about the neighbours as about the
program.

The benchmark therefore samples the host's speed while it measures: a
timer interrupts the main thread every ``INTERVAL`` seconds and times this
kernel there.  The kernel uses only the standard library and numpy, never
the program, and mixes what the program spends its time on: interpreted
loops over dicts, deep copies of nested containers and small numpy vector
operations.  An operation's time, less the time the kernel ran inside it,
is multiplied by ``REFERENCE_MS`` over the median kernel time of the
samples within ``WINDOW`` seconds of it.  A scaled time so reads as
milliseconds on a host on which the kernel takes ``REFERENCE_MS``.  A
change to the program moves scaled times as it moves raw ones; a slow spell
of the host barely does.
"""

from __future__ import annotations

import bisect
import copy
import gc
import signal
import time

import numpy as np

# The kernel's time, in ms, on the host that scaled times refer to.
REFERENCE_MS = 1.1
INTERVAL = 0.04  # seconds between samples
WINDOW = 0.5  # seconds either side of an operation whose samples scale it


_TABLE = dict.fromkeys(range(211), 0)
_ROWS = [{"node": i, "parents": [i - 1, i - 2], "cpd": [0.25, 0.75]} for i in range(100)]
_VECTOR = np.arange(64.0)
_SCRATCH = np.empty(64)


def _kernel() -> float:
    table = _TABLE
    for i in range(3000):
        key = i % 211
        table[key] = (table[key] + i) & 0xFFFF
    vector, scratch = _VECTOR, _SCRATCH
    for _ in range(120):
        np.multiply(vector, 1.0001, out=scratch)
        np.add(scratch, 0.5, out=scratch)
        np.remainder(scratch, 7.0, out=vector)
    copied = copy.deepcopy(_ROWS)
    return float(vector[0]) + table[0] + len(copied)


def measure() -> float:
    """One kernel time in ms.

    The garbage collector is off meanwhile: a collection the kernel's
    allocations set off would walk the program's heap, whose size is not
    the host's speed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Samples the kernel from a timer signal while it is active.

    ``with sampler:`` arms the timer and disarms it on the way out, also on
    errors.  Each sample is kept as its start and end time, so the time the
    kernel took out of an operation is known exactly.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_ms: list[float] = []
        self._previous = None
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample(None, None)

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a late signal must not nest samples
            return
        self._busy = True
        try:
            start = time.perf_counter()
            ms = measure()
            self.starts.append(start)
            self.ends.append(time.perf_counter())
            self.kernel_ms.append(ms)
        finally:
            self._busy = False

    def paused_s(self, start: float, end: float) -> float:
        """Seconds the kernel ran between ``start`` and ``end``."""
        first = max(0, bisect.bisect_left(self.ends, start))
        total = 0.0
        for i in range(first, len(self.starts)):
            if self.starts[i] >= end:
                break
            total += max(0.0, min(end, self.ends[i]) - max(start, self.starts[i]))
        return total

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_MS`` over the mean kernel time near ``[start, end]``."""
        lo = bisect.bisect_left(self.starts, start - WINDOW)
        hi = bisect.bisect_right(self.starts, end + WINDOW)
        near = self.kernel_ms[lo:hi] or self.kernel_ms
        return REFERENCE_MS * len(near) / sum(near)

    def timed(self, start: float, end: float) -> tuple:
        """(raw, scaled) seconds of an operation run from ``start`` to ``end``."""
        raw = end - start - self.paused_s(start, end)
        return raw, raw * self.scale(start, end)
