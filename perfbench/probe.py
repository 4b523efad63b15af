"""Machine-speed probe for runs on a shared host.

On a host shared with other tenants the speed of pure-Python code drifts by
up to about 2x within seconds, so raw pass times spread far wider between
runs than any change worth measuring.  The probe samples that speed while the
program runs: every INTERVAL_S of wall time a SIGALRM handler times a fixed
pure-Python kernel (exact-rational and container work, like mustab's own).
A stretch of program time is then rescaled to the speed at which the kernel
takes NOMINAL_S.  The program's own cost still moves the rescaled time one
for one; only the host's drift cancels.  Handler time is subtracted from
the stretch it interrupted.  The kernel shares the process's caches, so a
change in the program's memory footprint can move it slightly too.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
# The kernel's duration at the reference speed; fixes the scale of every
# rescaled time.  Roughly its median on a 2-CPU cloud VM under CPython 3.11.
NOMINAL_S = 0.0003


def _kernel() -> int:
    acc = Fraction(0)
    seen: dict[tuple[int, int], int] = {}
    for i in range(1, 100):
        acc += Fraction(1, i % 7 + 1)
        seen[(i % 13, i % 5)] = i
    return len(seen) + acc.denominator


class SpeedProbe:
    """Samples kernel durations from a SIGALRM handler; main thread only."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.overhead_s = 0.0

    def _tick(self, signum, frame) -> None:
        # A collection triggered inside the kernel would charge the program's
        # garbage to the probe; with gc paused it runs in program code instead.
        paused = gc.isenabled()
        gc.disable()
        try:
            t = time.perf_counter()
            _kernel()
            now = time.perf_counter()
        finally:
            if paused:
                gc.enable()
        self.samples.append(now - t)
        self.overhead_s += time.perf_counter() - t

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.overhead_s

    def rescale(self, mark: tuple[int, float], elapsed_s: float) -> tuple[float, float]:
        """(net, rescaled) seconds of a stretch that began at ``mark``.

        The speed is the mean kernel time over the stretch with the top and
        bottom tenth of samples dropped, so that a rare preempted sample does
        not swing a whole operation.  A stretch too short to hold a sample
        uses the latest one before it.
        """
        first, overhead = mark
        net = elapsed_s - (self.overhead_s - overhead)
        during = self.samples[first:] or self.samples[-1:]
        if not during:
            self._tick(None, None)
            during = self.samples[-1:]
        during = sorted(during)
        cut = len(during) // 10
        return net, net * NOMINAL_S / statistics.fmean(during[cut:len(during) - cut])
