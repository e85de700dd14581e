"""Self-test of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

Checks that two traced runs give identical counts, that the tracer puts
back every attribute it wrapped, that the calibration clock takes its ticks
out of the time and leaves no timer behind, that the reference check catches a
corrupted output and fails the run, and that ``BENCHMARK.json`` lists the
metrics and workloads this directory defines.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import time
import types
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from knotoidal import algebra, invariant, measure, rt  # noqa: E402
from knotoidal.diagram import fixtures  # noqa: E402
from knotoidal.series import Caps  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
from layers import LayerProbe  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import TickClock  # noqa: E402
from workloads import WORKLOADS, Checker, MeasureWalk512, load_reference, sha256  # noqa: E402

COUNT_METRICS = [
    name for name, unit, _ in PER_LAYER if unit in ("count", "ratio") and name != "trace_overhead_ratio"
]


def traced_layers(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--mode", "traced"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=170,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])["layers"]


def snapshot(owner) -> dict:
    return dict(vars(owner))


class TracedCountsRepeat(unittest.TestCase):
    def test_two_traced_runs_give_identical_counts(self):
        first = traced_layers("chain", 3)
        second = traced_layers("chain", 3)
        self.assertGreater(first["series.smul_calls.walk"], 0)
        self.assertGreater(first["invariant.evaluate_Z_calls"], 0)
        self.assertEqual({k: first[k] for k in COUNT_METRICS}, {k: second[k] for k in COUNT_METRICS})


class WrappersLeaveNoPatch(unittest.TestCase):
    def test_restore_puts_back_every_attribute(self):
        owners = (invariant, algebra, algebra._Context, measure, rt)
        before = [snapshot(owner) for owner in owners]
        tracer = Tracer("selftest")
        probe = LayerProbe(tracer)
        probe.install()
        self.assertIsNot(invariant.evaluate_Z, before[0]["evaluate_Z"])
        self.assertIsNot(algebra._Context.__dict__["mon_mul"], before[2]["mon_mul"])
        try:
            invariant.evaluate_Z(fixtures()["5_7"][1], Caps(1, 1))
        finally:
            tracer.restore()
        for owner, old in zip(owners, before):
            new = snapshot(owner)
            self.assertEqual(set(new), set(old), owner)
            for name, value in old.items():
                if not isinstance(value, (dict, list, set)):  # module caches may grow
                    self.assertIs(new[name], value, f"{owner}.{name}")
        self.assertEqual(tracer.counts["mon_mul"] > 0, True)
        self.assertEqual(len(tracer.spans_named("invariant.evaluate_Z")), 1)


class TickClockLeavesNoTimer(unittest.TestCase):
    def test_ticks_sample_the_operation_and_are_taken_out(self):
        clock = TickClock()
        handler = signal.getsignal(signal.SIGALRM)

        def op():
            end = time.perf_counter() + 0.3
            while time.perf_counter() < end:
                pass

        raw, scaled = clock.run(op)
        ticks = len(clock.ticks)
        self.assertGreaterEqual(ticks, 2 + int(0.3 / calibrate.TICK_INTERVAL_S) // 2)
        self.assertLess(raw, 0.3)  # the ticks during the operation are taken out
        self.assertEqual(scaled, calibrate.scale(raw, clock.ticks))
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), handler)


class ReferenceCheckCatchesCorruption(unittest.TestCase):
    def test_corrupted_estimate_is_counted_and_fails_the_run(self):
        check = Checker(load_reference(MeasureWalk512.name))
        workload = MeasureWalk512(0, check)
        workload.warm(0)
        self.assertEqual((check.attempted, check.failed), (1, 0))

        seed = workload.direction_seed
        texts = [measure.estimate_measure(c, workload.directions, seed=seed).to_json_str() for c in workload.curves]
        n = workload.directions
        corrupted = texts[0].replace(f'"samples": {n},', f'"samples": {n + 1},', 1)
        self.assertNotEqual(corrupted, texts[0])
        check.expect(("estimates", "0"), sha256("\n".join([corrupted, *texts[1:]])))
        self.assertEqual((check.attempted, check.failed), (2, 1))

        args = types.SimpleNamespace(workload=MeasureWalk512.name, seed=0, trace=0)
        result = {
            "attempted": check.attempted, "failed": check.failed, "errors": check.errors,
            "cold_s": 1.0, "cold_scaled_s": 1.0, "warm_s": [1.0], "warm_scaled_s": [1.0], "calibration_tick_s": 0.0015,
        }
        values = {name: 1.0 for name, *_ in END_TO_END}
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = run.report(args, values, [result], [1.0])
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(stdout.getvalue().strip().splitlines()[-1])["correct"])


class BenchmarkJsonMatches(unittest.TestCase):
    def test_lists_agree(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            bench = json.load(handle)
        self.assertEqual(
            bench["workloads"], [{"name": cls.name, "why": cls.why} for cls in WORKLOADS.values()]
        )
        self.assertEqual(list(run.WORKLOADS), list(WORKLOADS))
        self.assertEqual(
            run.DIRECTIONS_PER_OP,
            {name: cls.directions_per_op for name, cls in WORKLOADS.items() if hasattr(cls, "directions_per_op")},
        )
        self.assertEqual(
            bench["end_to_end"],
            [{"name": n, "unit": u, "better": b, "bound": x} for n, u, b, x in END_TO_END],
        )
        self.assertEqual(bench["per_layer"], [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER])


if __name__ == "__main__":
    unittest.main()
