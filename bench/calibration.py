"""Host speed, measured with a fixed reference kernel timed during jobs.

The benchmark shares a host whose speed changes by up to 2x for seconds to
tens of seconds at a time, and this shows in the process's CPU time as much
as in wall time: the cores run slower, they are not taken away.  A run
therefore times a fixed kernel made of the same kinds of work as hkquot
(exact rational arithmetic, small dense float linear algebra, JSON and dict
bookkeeping) but none of hkquot's code, so a change to the program does not
change it.  A timer signal runs the kernel every INTERVAL seconds of job
time, inside the job, because the speed can change within a one-second job;
job times are read with ``Speedometer.clock``, which leaves the kernel's
time out.  Each job time is then scaled by ``REFERENCE_S / (kernel time
during and around that job)``: it is the job time on a host on which the
kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import contextlib
import json
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

#: seconds the kernel takes at the reference speed; it fixes the scale of
#: every reported time, and is about the kernel time on an undisturbed
#: 2-vCPU x86-64 cloud host with Python 3.11 and numpy 2
REFERENCE_S = 0.0015
#: seconds of job time between kernel samples
INTERVAL = 0.1
#: kernel samples on each side of a job that, with those taken during it,
#: give its speed
WINDOW = 4
WARMUP = 5

_RATIONAL = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(6)]
             for i in range(5)]
_A = np.array([[1.0 / (1 + i + j) + (i == j) for j in range(6)] for i in range(6)])
_RECORD = {"status": "converged", "residual": 1.5e-12,
           "x": [[0.25 * i, -0.5 * i] for i in range(8)], "supports": [[0, 1, 3], [2, 4]]}


def _rref(rows):
    rows = [row[:] for row in rows]
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return rows


def kernel() -> None:
    """A fixed amount of work of the kinds hkquot does."""
    for _ in range(2):
        _rref(_RATIONAL)
    x = np.ones(6)
    for _ in range(60):
        x = np.linalg.solve(_A, x) + 1e-3 * (_A @ x)
        x /= np.linalg.norm(x)
    for _ in range(12):
        rec = json.loads(json.dumps(_RECORD, sort_keys=True))
        index = {}
        for i, (a, b) in enumerate(rec["x"]):
            index[(i, a)] = b
        sorted(index.items())


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def kernel_median(count: int = WINDOW) -> float:
    """Median kernel time of count runs after WARMUP untimed ones, for work
    timed once rather than in a stream (set-up)."""
    for _ in range(WARMUP):
        kernel()
    return statistics.median(time_kernel() for _ in range(count))


class Speedometer:
    """Kernel samples taken by a timer signal while jobs run.

    Time each job as ``clock()`` differences inside ``with job() as marks``;
    afterwards ``factor(*marks)`` scales it to the reference speed.
    """

    def __init__(self):
        for _ in range(WARMUP):
            kernel()
        self.samples: list[float] = [time_kernel() for _ in range(2 * WINDOW)]
        self.paused = 0.0
        self.left = INTERVAL
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        # the job's work has evicted the kernel from the caches; timing a
        # cold run would make the scale depend on the program's footprint
        kernel()
        self.samples.append(time_kernel())
        self.paused += time.perf_counter() - t0

    def clock(self) -> float:
        """perf_counter without the time spent in kernel samples."""
        return time.perf_counter() - self.paused

    @contextlib.contextmanager
    def job(self):
        """Samples every INTERVAL seconds while the block runs; the timer
        keeps its phase from one job to the next.  Yields a list that holds
        the block's first and last sample marks once it has ended."""
        marks = [len(self.samples)]
        signal.setitimer(signal.ITIMER_REAL, self.left, INTERVAL)
        try:
            yield marks
        finally:
            self.left = signal.setitimer(signal.ITIMER_REAL, 0)[0] or INTERVAL
            marks.append(len(self.samples))

    def factor(self, first: int, last: int) -> float:
        """REFERENCE_S over the median kernel time of the samples taken
        during a job and the WINDOW on each side of it."""
        window = self.samples[max(0, first - WINDOW):last + WINDOW]
        return REFERENCE_S / statistics.median(window)

    def median_s(self) -> float:
        return statistics.median(self.samples)
