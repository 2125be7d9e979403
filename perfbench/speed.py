"""Host speed probe: times in reference seconds.

The host this benchmark was written on changes speed by up to a factor of two
over seconds to minutes, because other tenants share it: a pure-Python loop
ran at 8 ms in one second and 13 ms a few seconds later, and one ladder round
took 15 s or 20 s.  Measured seconds then say more about the host than about
the program.  So the benchmark keeps time on a clock that runs at the host's
speed: 20 times a second, a timer signal interrupts the run, times a fixed
kernel (about 0.2 ms of interpreter work and small numpy calls, the mix of
the program's per-leaf code), and sets the clock's rate to

    REFERENCE_S / median(last three kernel times)

reference seconds per measured second until the next probe.  A reference
second is the time the work would take on a host where the kernel takes
REFERENCE_S.  The probes' own time is not counted.  The kernel does not touch
the program, so a slower program still reads slower; only the host's drift is
divided out.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

import numpy as np

REFERENCE_S = 0.2e-3   # about the kernel's time on the reference host, unloaded
INTERVAL_S = 0.05      # time between probes
_VEC = np.arange(16.0)


def _kernel_seconds() -> float:
    t0 = time.perf_counter()
    total = 0.0
    for i in range(120):
        total += float(np.dot(_VEC, _VEC[::-1])) + _VEC[i % 16]
    return time.perf_counter() - t0


class HostClock:
    """Reference seconds since the clock was made; sampled while entered.

    Use as ``with HostClock() as clock:`` and read ``clock.now()`` around
    the work to time.  Only one clock may be entered at a time: it owns
    SIGALRM and the real-time interval timer.
    """

    def __init__(self) -> None:
        self._probes = deque((_kernel_seconds() for _ in range(3)), maxlen=3)
        self._rate = REFERENCE_S / statistics.median(self._probes)
        self._ref = 0.0
        self._last = time.perf_counter()
        self._ticks = 0

    def _tick(self, signum, frame) -> None:
        self._ref += (time.perf_counter() - self._last) * self._rate
        self._probes.append(_kernel_seconds())
        self._rate = REFERENCE_S / statistics.median(self._probes)
        self._last = time.perf_counter()
        self._ticks += 1

    def now(self) -> float:
        while True:   # retry if a probe ran while the fields were read
            ticks = self._ticks
            value = self._ref + (time.perf_counter() - self._last) * self._rate
            if ticks == self._ticks:
                return value

    def __enter__(self) -> "HostClock":
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
