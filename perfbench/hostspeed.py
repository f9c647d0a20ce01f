"""How fast the host runs, sampled while the program runs.

On a shared 2-vCPU host the same code runs up to 1.6x faster or slower
from one minute to the next: the host lends the vCPU more or less of a
core, with no steal time to show for it, in CPU time as well as wall
time.  A benchmark run of 30 s cannot average that out, so every timing
the benchmark reports is scaled to one reference host speed.

:class:`SpeedProbe` measures that speed during the very interval it
scales.  A ``SIGALRM`` handler runs a fixed pure-Python kernel every
``INTERVAL_S`` and times it.  Python runs the handler between two
bytecodes of the program, on the same CPU and under the same host
load.  Over 40 passes of ``contention_aloha`` or ``metro_sparse``
(2-vCPU Xeon VM), the log of a pass's events per second fell with the
log of the probe time at a slope of -0.84 to -0.99 (correlation
0.90-0.95), and scaling by the probe cut the spread of events per
second from 0.10-0.30 to 0.05-0.11 (IQR over median).

A probe's speed is ``REFERENCE_S`` over its time: 1.0 at the reference
speed, 2.0 on a host twice as fast; a window's speed is the mean of its
probes' speeds, the top and bottom tenth cut.  A host time ``t``
measured at speed ``v`` takes ``t * v`` at the reference speed.  The
handler's own time is subtracted from the window's time, so what is
left is the program's; the handler touches no program state, and the
benchmark's fingerprint check shows that the simulated statistics are
the same as without it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List

__all__ = ["INTERVAL_S", "REFERENCE_S", "SpeedProbe", "Window", "kernel"]

INTERVAL_S = 0.02
# The kernel's median time on a 2-vCPU Xeon VM at an ordinary moment.
REFERENCE_S = 250e-6


def kernel() -> int:
    """The fixed work each probe times: integer and dict steps."""
    table = {}
    value = 0
    for step in range(1500):
        value = (value * 31 + step) & 0xFFFF
        table[value & 63] = step
    return value + len(table)


@dataclass
class Window:
    """One timed interval: its probe times, and their cost inside it."""

    durations: List[float]
    handler_s: float = 0.0

    @property
    def speed(self) -> float:
        """The mean speed over the window, its top and bottom tenth cut.

        Probes come at even steps of host time, so their mean speed is
        the speed the program had on average; cutting the tails keeps a
        probe that a page fault or a collection stalled from counting.
        """
        speeds = sorted(REFERENCE_S / duration for duration in self.durations)
        cut = len(speeds) // 10
        return statistics.fmean(speeds[cut : len(speeds) - cut])


class SpeedProbe:
    """Samples the host speed from a ``SIGALRM`` handler."""

    def __init__(self) -> None:
        self._window: Window = Window([])

    def _probe(self, *_signal) -> None:
        began = time.perf_counter()
        kernel()
        ended = time.perf_counter()
        self._window.durations.append(ended - began)
        self._window.handler_s += time.perf_counter() - began

    @contextmanager
    def window(self):
        """Sample the host speed while the body runs; yields its Window.

        One probe before and one after the body, outside its time,
        make sure that a body shorter than ``INTERVAL_S`` has a speed.
        """
        window = self._window = Window([])
        self._probe()
        window.handler_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield window
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
            handler_s = window.handler_s
            self._probe()
            window.handler_s = handler_s
