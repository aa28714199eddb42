"""Machine-speed sampler: times are rescaled by the speed measured during them.

The shared 2-core machine the benchmark was defined on switches between a
fast and a 1.6x slower state every second or so, on each core separately
(a fixed kernel reads 9.7 ms or 15.6 ms, rarely between).  A problem's
wall time then depends on the states it ran through, and a kernel timed
between problems sees only the state of that instant.  So a ``Sampler``
runs a ~0.1 ms pure-Python kernel (complex multiply-adds in a Taylor-sum
loop, like the program's inner loops) from a SIGALRM handler every
PERIOD_S, inside the timed calls as well as between them.  The handler runs
between bytecodes of the main thread: one process, one thread.

A span of wall time is rescaled to the reference speed as

    (wall - kernel time inside the span) * mean(REF_S / kernel time)

over the kernel runs inside the span, or the MIN_SAMPLES runs nearest to
it when the span is short.  The mean of REF_S / t is the span's mean speed
over its samples; a run stretched by a preemption counts as a stretch of
zero speed, as the program's time in it does.  The kernel is benchmark
code, so a change to the program moves rescaled time as it moves wall
time.  REF_S is the kernel's time in the fast state, so rescaled time reads
about as wall time does there.
"""

from __future__ import annotations

import bisect
import inspect
import signal
import statistics
import time
from typing import List, Tuple

PERIOD_S = 0.02
REPS = 30
REF_S = 9.5e-5
MIN_SAMPLES = 10


def kernel() -> None:
    z, acc = 0.3 + 0.4j, 0j
    d = [complex(k, -k) for k in range(17)]
    for _ in range(REPS):
        t = 1.0 + 0j
        for k in range(16):
            acc += d[k] * t
            t = t * z / (k + 1)


class Sampler:
    def __init__(self) -> None:
        self.at: List[float] = []      # perf_counter() at each kernel start
        self.took: List[float] = []    # its wall time

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescale(self, t0: float, t1: float) -> Tuple[float, float]:
        """(wall seconds of [t0, t1] without the sampler's own runs, the
        same rescaled to the reference speed), for a span that has ended."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_left(self.at, t1)
        inside = sum(self.took[lo:hi])
        if hi - lo < MIN_SAMPLES:
            # widen to the MIN_SAMPLES runs nearest the span's middle
            mid = 0.5 * (t0 + t1)
            i = bisect.bisect_left(self.at, mid)
            lo = max(0, min(i - MIN_SAMPLES // 2, len(self.at) - MIN_SAMPLES))
            hi = min(len(self.at), lo + MIN_SAMPLES)
        speed = statistics.fmean(REF_S / t for t in self.took[lo:hi])
        work = (t1 - t0) - inside
        return work, work * speed


# Run by ``python -c`` in a fresh interpreter: samples the speed while it
# imports the CLI, every quarter PERIOD_S, and prints the kernel times.
CHILD_IMPORT = "\n".join([
    "import signal, time",
    f"REPS = {REPS}",
    inspect.getsource(kernel),
    "took = []",
    "def _tick(signum, frame):",
    "    t0 = time.perf_counter()",
    "    kernel()",
    "    took.append(time.perf_counter() - t0)",
    "signal.signal(signal.SIGALRM, _tick)",
    f"signal.setitimer(signal.ITIMER_REAL, {PERIOD_S / 4!r}, {PERIOD_S / 4!r})",
    "import rgbpzeros.cli",
    "signal.setitimer(signal.ITIMER_REAL, 0)",
    "print(repr(took))",
])


def child_import_rescaled(wall: float, took: List[float]) -> float:
    """Set-up wall time of a fresh interpreter, without its sampler's runs
    and rescaled by the speed they measured during the import."""
    speed = statistics.fmean(REF_S / t for t in took)
    return (wall - sum(took)) * speed
