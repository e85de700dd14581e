"""One benchmark process, started by ``run.py`` in a fresh interpreter.

It imports the program from ``src/`` of the checkout it sits in, builds the
workload's inputs, prints ``READY`` (the end of set-up), runs the cold
operation and then warm operations, and prints one JSON line with the
timings, the check counts and, for a traced run, the per-layer metrics.

Modes: ``probe`` stops after ``READY``; ``cold`` stops after the cold
operation; ``timed`` repeats warm operations until ``--seconds`` have passed
since the cold operation started, and at least the workload's
``min_warm_ops`` times; ``fixed`` runs the workload's fixed number of warm
operations; ``traced`` does the same as ``fixed`` with the layer wrappers
installed.  The ``cold``
and ``timed`` modes also report each operation's time scaled to the
reference speed by calibration ticks taken during it (see ``calibrate.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(HERE, "out")

sys.path.insert(0, SRC)
import knotoidal  # noqa: E402

if not os.path.abspath(knotoidal.__file__).startswith(SRC + os.sep):
    sys.exit(f"knotoidal was imported from {knotoidal.__file__}, not from {SRC}")

import calibrate  # noqa: E402
from layers import LayerProbe  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Checker, load_reference  # noqa: E402


class TickClock:
    """Times an operation while a timer signal runs one calibration tick
    every ``calibrate.TICK_INTERVAL_S`` of it, so that the host's speed is
    sampled evenly over the operation; one more tick runs right before and
    one right after it.  The ticks' own time is not part of the
    operation's time."""

    def __init__(self):
        self.ticks: list[float] = []  # every tick of the process

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        calibrate.tick()
        self.ticks.append(time.perf_counter() - start)

    def run(self, op) -> tuple[float, float]:
        """Run ``op``; return its raw time and its time at the reference speed."""
        self._tick()
        first = len(self.ticks)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, calibrate.TICK_INTERVAL_S, calibrate.TICK_INTERVAL_S)
        start = time.perf_counter()
        try:
            op()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        raw = elapsed - sum(self.ticks[first:])
        self._tick()
        return raw, calibrate.scale(raw, self.ticks[first - 1 :])


def run_ops(workload, check: Checker, mode: str, seconds: float, clock_ticks: TickClock | None) -> dict:
    clock = time.perf_counter

    def timed(label: str, op):
        part = scaled = None

        def checked():
            nonlocal part
            try:
                part = op()
            except Exception as exc:
                traceback.print_exc()
                check.raised(label, exc)

        if clock_ticks is None:
            start = clock()
            checked()
            elapsed = clock() - start
        else:
            elapsed, scaled = clock_ticks.run(checked)
        return elapsed, scaled, elapsed if part is None else part

    def another(index: int) -> bool:
        if mode == "cold":
            return False
        if mode == "timed":
            return index < workload.min_warm_ops or clock() - t0 < seconds
        return index < workload.fixed_warm_ops

    t0 = clock()
    cold_s, cold_scaled_s, _ = timed("cold operation", workload.cold)
    warm_s, warm_scaled_s, repeat_s = [], [], []
    while another(len(warm_s)):
        index = len(warm_s)
        elapsed, scaled, part = timed(f"warm operation {index}", lambda: workload.warm(index))
        warm_s.append(elapsed)
        warm_scaled_s.append(scaled)
        repeat_s.append(part)
    return {
        "cold_s": cold_s,
        "cold_scaled_s": cold_scaled_s,
        "warm_s": warm_s,
        "warm_scaled_s": warm_scaled_s,
        "repeat_s": repeat_s,
        "wall_s": clock() - t0,
        "calibration_tick_s": statistics.fmean(clock_ticks.ticks) if clock_ticks else None,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="one benchmark process")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", required=True, choices=("probe", "cold", "timed", "fixed", "traced"))
    args = parser.parse_args()

    cls = WORKLOADS[args.workload]
    check = Checker(load_reference(cls.name))
    tracer = probe = None
    if args.mode == "traced":
        tracer = Tracer(f"{cls.name}-seed{args.seed}-pid{os.getpid()}")
        probe = LayerProbe(tracer)
    # end-to-end modes also time their operations at the reference speed
    clock_ticks = TickClock() if args.mode in ("cold", "timed") else None
    workload = cls(args.seed, check, tracer.span if tracer else None)
    print("READY", flush=True)
    if args.mode == "probe":
        return

    if probe is not None:
        probe.install()
    try:
        result = run_ops(workload, check, args.mode, args.seconds, clock_ticks)
    finally:
        if tracer is not None:
            tracer.restore()
    if probe is not None:
        result["layers"] = probe.metrics(cold_fill_s=result["cold_s"] - result["repeat_s"][0])
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write(os.path.join(TRACE_DIR, f"{cls.name}-seed{args.seed}-trace.json"))
    result.update(
        attempted=check.attempted,
        failed=check.failed,
        errors=check.errors[:20],
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
