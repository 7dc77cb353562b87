"""A speed probe, to put times measured on a shared machine on one scale.

A shared machine's CPU can run at half speed for tens of seconds, longer
than a run, so a raw time says as much about the neighbours as about the
program.  The benchmark times a fixed kernel every PROBE_INTERVAL_S and
scales each operation's time by REFERENCE_PROBE_S / (the kernel's time
while the operation ran): the time the operation would take on a
machine where the kernel takes REFERENCE_PROBE_S.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.1
REFERENCE_PROBE_S = 0.002


def speed_kernel(n: int = 7) -> None:
    """Fixed work: exact Gauss-Jordan on an n x n rational matrix.

    Part of the benchmark, not the program, so its time changes with the
    machine's speed only.
    """
    m = [
        [Fraction((3 * i + 5 * j) % 11 + (n if i == j else 0)) for j in range(n)]
        + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = m[col][col]
        m[col] = [v / pivot for v in m[col]]
        for r in range(n):
            if r != col:
                f = m[r][col]
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]


class Speed:
    """Samples the machine's speed every PROBE_INTERVAL_S while active.

    An interval timer (SIGALRM) interrupts whatever runs, the program
    included, and times speed_kernel, so even an operation that lasts
    seconds is scaled by the speed it actually ran at.  The probes' own
    time is taken out of every interval that contains them.
    """

    def __init__(self) -> None:
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.total = [0]  # total[i] = ns spent in the first i probes

    def _probe(self, *_signal) -> None:
        t0 = time.perf_counter_ns()
        speed_kernel()
        t1 = time.perf_counter_ns()
        self.starts.append(t0)
        self.ends.append(t1)
        self.total.append(self.total[-1] + t1 - t0)

    def __enter__(self) -> "Speed":
        signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        self.resume()
        return self

    def __exit__(self, *exc) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def probe_ns(self) -> list[int]:
        return [t1 - t0 for t0, t1 in zip(self.starts, self.ends)]

    def clean_ns(self, t0: int, t1: int) -> int:
        """Nanoseconds in [t0, t1] not spent in probes."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.ends, t1)
        return t1 - t0 - (self.total[j] - self.total[i] if j > i else 0)

    def scale(self, t0: int, t1: int) -> float:
        """Factor to reference speed for work done in [t0, t1].

        From the probes inside the interval, or else the ones just
        before and after it; call after the run, once both exist.
        """
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.ends, t1)
        if j <= i:
            i, j = i - 1, i + 1
        return REFERENCE_PROBE_S * 1e9 * (j - i) / (self.total[j] - self.total[i])


def probe_seconds(repeats: int = 3) -> float:
    """Median time of a few back-to-back runs of speed_kernel."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        speed_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
