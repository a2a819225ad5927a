"""Host-speed correction of the benchmark's timings.

On a shared virtual machine the CPU the benchmark gets changes speed with
the load of its neighbours: a fixed computation can run up to twice as
slowly for seconds to minutes at a time, in CPU time as well as in wall
time. Nothing in the program causes it, and it moves every timing of a run.

``HostSpeed`` measures it in the process it times: while set-up or the
timed phase runs, a ``SIGALRM`` every ``PERIOD_S`` times one fixed
reference computation, parsing a fixed JSON document; its time slows down
with the program's in the host's slow spells. An interval's corrected time
is its wall time, less the samples' own time, scaled by ``REFERENCE_S``
over the mean reference time sampled in it: the time it would have taken
had the reference run in ``REFERENCE_S``. Between the program's work the
reference runs slower than alone even on an unloaded host, so corrected
times read below wall time; they compare with each other.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time

PERIOD_S = 0.1
# The reference's time alone on an unloaded 2-core x86-64 VM (CPython 3.11); a
# constant, so that a corrected time compares across runs.
REFERENCE_S = 0.0015

_DOC = json.dumps([
    {"id": f"r{i}", "values": [0.001 * i * k for k in range(24)]} for i in range(400)
])


def reference() -> float:
    """Wall time of one reference computation."""
    t0 = time.perf_counter()
    json.loads(_DOC)
    return time.perf_counter() - t0


class HostSpeed:
    """Samples the reference every ``PERIOD_S`` inside a ``with`` block."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.times: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        self.starts.append(time.perf_counter())
        self.times.append(reference())

    def __enter__(self) -> HostSpeed:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def corrected(self, start: float, end: float) -> float:
        """Time of the interval [start, end) at reference host speed.

        Uses the samples taken in the interval; an interval too short to
        hold one uses the samples just before and just after it.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.times[lo:hi]
        near = inside or self.times[max(lo - 1, 0):lo + 1]
        if not near:
            return end - start
        return (end - start - sum(inside)) * REFERENCE_S / statistics.fmean(near)
