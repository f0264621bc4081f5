"""Host speed, from fixed reference kernels timed between operations.

Other tenants of a shared host slow this process by a factor of two or
more, in spells that last from milliseconds to minutes, so no run length
averages them out: five 20-second runs of the same query workload split
into two groups 1.65x apart.  The benchmark therefore times a fixed
kernel of its own before and after each stretch of work and multiplies
the stretch's times by ``nominal / kernel time``.  Every time it reports is thus
expressed on a host on which the kernel takes its nominal time; a change
in the program moves the scaled times, a change in the neighbours mostly
does not.

An operation that runs for seconds (a CLI command) sees the host change
speed while it runs, so for those the kernel is also timed every
``period_s`` seconds from a timer signal while the operation runs; the
scale uses all of these samples, and the time they take is taken out of
the operation's time.  Of two sets of eight 20-second ``sweep`` runs made
back to back, the rate varied 5.4% (coefficient of variation) with the
kernel timed only between commands and 2.8% with it also timed inside
them, every 20 ms.

Different kinds of work slow down by different factors, so each
workload uses the kernel closest to its own work: ``small`` is
interpreter work plus 2x2 numpy calls, like the per-query path and the
CLI sweeps; ``medium`` is ufuncs on 72x72 arrays, like the oracle's grid
slices; ``large`` is array work on 400k floats, like the Monte Carlo
sampler.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

_A = np.array([[1.0, 0.5], [0.5, 2.0]])
_M = np.linspace(0.0, 2.0 * math.pi, 72 * 72).reshape(72, 72)
_X = np.linspace(0.0, 1.0, 400_000)


def _small() -> float:
    s = 0.0
    for i in range(300):
        s += float(np.trace(_A @ _A + i)) + math.sqrt(i)
    return s


def _medium() -> float:
    s = 0.0
    for i in range(20):
        v = np.cos(0.5 * (_M - i)) ** 2 * np.sin(_M + i)
        s += float(np.max(np.where(v > 0.1, v, -np.inf)))
    return s


def _large() -> float:
    return float(np.sort(np.cos(_X) * _X).sum())


#: kernel and its nominal time in seconds
KERNELS = {"small": (_small, 1.0e-3), "medium": (_medium, 2.0e-3), "large": (_large, 5.0e-3)}


def kernel_seconds(kernel) -> float:
    """Median of three timed runs of ``kernel``."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scale(seconds: float, kind: str = "small") -> float:
    """``seconds`` of work just done, scaled by a kernel timed now."""
    kernel, nominal = KERNELS[kind]
    return seconds * nominal / kernel_seconds(kernel)


class HostSpeed:
    """Scale factors for successive stretches of work."""

    def __init__(self, kind: str, period_s: float | None = None):
        self._kernel, self._nominal = KERNELS[kind]
        self._period = period_s
        self.factors: list[float] = []
        self._inside: list[float] = []  # kernel times taken during operations
        self._before = self._sample()

    def _sample(self) -> float:
        return kernel_seconds(self._kernel)

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self._kernel()
        self._inside.append(perf_counter() - t0)

    def during(self, run):
        """``run()``, with the kernel timed every ``period_s`` meanwhile.

        Returns what ``run`` returned and the seconds the kernel took
        while it ran, for the caller to take out of its own timing.
        """
        if self._period is None:
            return run(), 0.0
        n = len(self._inside)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self._period, self._period)
        try:
            result = run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return result, sum(self._inside[n:])

    def factor(self) -> float:
        """Scale for the work done since the previous call (or creation)."""
        after = self._sample()
        f = self._nominal / statistics.fmean([self._before, *self._inside, after])
        self._before = after
        self._inside.clear()
        self.factors.append(f)
        return f

    def describe(self) -> str:
        f = self.factors
        return (f"host speed factor median {statistics.median(f):.3f} "
                f"(range {min(f):.3f}-{max(f):.3f}, {len(f)} samples)")
