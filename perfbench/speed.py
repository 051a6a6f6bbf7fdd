"""Wall times rescaled to a fixed machine speed.

On the shared 2-core machine the benchmark was written on, the same
pure-Python work takes either about 1x or about 1.6x as long depending on
what else the host runs, and a state holds for seconds to minutes. Raw
wall times of two 40 s runs then differ by up to 30%, which hides any
change smaller than that. So every measured interval is rescaled by the
machine's speed during that same interval:

* a probe, a fixed piece of pure-Python work of the kind the solver does
  (exact rational arithmetic, dict and tuple traffic), runs from a timer
  signal every ``PERIOD_S`` and once right before and after each
  interval;
* the interval's wall time, minus the probes that ran inside it, is
  multiplied by ``REF_PROBE_S`` times the mean of 1 / probe time, which is
  the time the same work would take at the reference speed.

``REF_PROBE_S`` is the probe's time in the fast state of that machine, so
figures read as seconds there. Raw wall times are kept next to the
rescaled ones.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.05
REF_PROBE_S = 0.0003


def probe() -> float:
    """Run the fixed probe work; returns its wall time."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    table: dict[Fraction, tuple] = {}
    for i in range(1, 40):
        q = Fraction(i % 7 + 1, i % 5 + 2)
        acc = acc + q * Fraction(3, i % 4 + 1)
        if acc > q:
            table[q] = (acc, i)
        table.get(acc)
    return time.perf_counter() - t0


class SpeedClock:
    """Context manager: while open, probes run every ``PERIOD_S`` and
    :meth:`measure` returns (result, wall seconds, reference seconds)."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn, *args, **kwargs):
        before = probe()
        first = len(self.samples)
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        inside = self.samples[first:]
        wall -= sum(inside)
        probes = [before, *inside, probe()]
        return result, wall, wall * REF_PROBE_S * sum(1.0 / p for p in probes) / len(probes)
