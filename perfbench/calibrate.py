"""Calibration: a fixed piece of pure-Python work that times the host's
speed at the moment, so that the benchmark's times can be scaled to a fixed
reference speed.

The machine this benchmark runs on may be shared, and its speed for one
process changes within tenths of a second and drifts by half within
minutes.  While an operation is timed, a timer signal runs one calibration
tick every ``TICK_INTERVAL_S`` (``worker.TickClock``), and the operation's
time is scaled by ``REFERENCE_TICK_S / mean(its ticks)``.  The reported
figure is then the operation's time at the reference speed: a change of the
program moves it, a change of the host's speed mostly does not.

The work mirrors what the program spends its time on, without calling it:
a truncated product of two series with ``Fraction`` coefficients held in
dicts keyed by ``(eps, hbar)`` tuples, and pairwise 2D segment-crossing
tests on floats.  This module imports nothing from the program.
"""

from __future__ import annotations

import math
import statistics
import time
from fractions import Fraction

# seconds one tick typically took on the host the benchmark was tuned on
# (a shared 2-vCPU Linux VM, Python 3.11.7)
REFERENCE_TICK_S = 0.0015
TICK_INTERVAL_S = 0.025  # between ticks during a timed operation
BURST = 20  # ticks per burst, around an operation too short for ticks during it

_SERIES = {(e, h): Fraction(7 * e + 3 * h + 1, 5 + h) for e in range(2) for h in range(12)}
_POINTS = [
    (math.cos(1.7 * k) * (1 + 0.01 * k), math.sin(2.3 * k) * (1 + 0.01 * k)) for k in range(40)
]


def _series_work() -> int:
    out: dict = {}
    for (ea, ha), va in _SERIES.items():
        for (eb, hb), vb in _SERIES.items():
            e, h = ea + eb, ha + hb
            if e > 1 or h > 11:
                continue
            key = (e, h)
            out[key] = out.get(key, 0) + va * vb
    return len(out)


def _segment_work() -> int:
    hits = 0
    pts = _POINTS
    for i in range(len(pts) - 1):
        a1, a2 = pts[i], pts[i + 1]
        da = (a2[0] - a1[0], a2[1] - a1[1])
        for j in range(i + 2, len(pts) - 1):
            b1, b2 = pts[j], pts[j + 1]
            db = (b2[0] - b1[0], b2[1] - b1[1])
            denom = da[0] * db[1] - da[1] * db[0]
            if abs(denom) < 1e-12 * math.hypot(*da) * math.hypot(*db):
                continue
            rhs = (b1[0] - a1[0], b1[1] - a1[1])
            t = (rhs[0] * db[1] - rhs[1] * db[0]) / denom
            s = (rhs[0] * da[1] - rhs[1] * da[0]) / denom
            if 0.0 < t < 1.0 and 0.0 < s < 1.0:
                hits += 1
    return hits


def tick() -> float:
    """Run one unit of the calibration work; return the seconds it took."""
    start = time.perf_counter()
    _series_work()
    _segment_work()
    return time.perf_counter() - start


def burst() -> list[float]:
    return [tick() for _ in range(BURST)]


def scale(seconds: float, ticks: list[float]) -> float:
    """``seconds`` at the reference speed, given the calibration ticks
    taken during them."""
    return seconds * REFERENCE_TICK_S / statistics.fmean(ticks)
