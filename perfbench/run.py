"""knotoidal benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Every timed call runs in a fresh worker interpreter (``worker.py``), one at a
time, so that "cold" means empty caches.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric with its unit.

``--trace 0`` reports the end-to-end metrics: set-up probes, then one timed
worker between workers that run only the cold operation.  Their times are
scaled to a reference speed by calibration bursts (``calibrate.py``), because
the host's speed may change by half within minutes.  ``--trace 1``
reports the per-layer metrics: one untraced and one traced worker run the
same fixed operations, and their wall-time ratio is the tracing overhead.
The exit code is 0 only when every output matched the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import calibrate
from metrics import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 8  # set-up-only workers in an end-to-end run
# fresh workers whose cold operation is timed, the timed worker included
COLD_SAMPLES = {"fixtures": 3, "chain": 2, "measure_walk512": 3, "zmean_trefoil": 3}
WORKLOADS = tuple(COLD_SAMPLES)
DEADLINE_S = 170  # seconds; a run must end within 180

# the names the workloads' own end-to-end figures go by
ALIASES = {
    "fixtures": {"first_eval_s": "cold_op_s", "warm_pass_s": "warm_op_s"},
    "chain": {"chain_s": "warm_op_s"},
}
DIRECTIONS_PER_OP = {"measure_walk512": 8, "zmean_trefoil": 500}


class WorkerFailed(Exception):
    pass


class Workers:
    """Starts worker processes one at a time and makes sure each has ended."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.base = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)]
        self.live: list[subprocess.Popen] = []

    def run(self, mode: str, seconds: float = 0.0) -> tuple[float, dict | None]:
        """Run one worker; return its set-up time and its result line."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            [*self.base, "--mode", mode, "--seconds", repr(seconds)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        self.live.append(proc)
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate()
        self.live.remove(proc)
        if first.strip() != "READY" or proc.returncode != 0:
            raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
        if mode == "probe":
            return setup_s, None
        lines = out.strip().splitlines()
        if not lines:
            raise WorkerFailed(f"{mode} worker printed no result")
        return setup_s, json.loads(lines[-1])

    def stop_all(self) -> None:
        for proc in self.live:
            proc.kill()
            proc.wait()
        self.live.clear()


def setup_times(workers: Workers) -> tuple[list[float], list[float]]:
    """Raw and scaled set-up times of the probes, each scaled by the
    calibration bursts this process runs right before and after it (a
    probe is too short for ticks during it)."""
    raw, scaled = [], []
    before = calibrate.burst()
    for _ in range(SETUP_PROBES):
        setup_s = workers.run("probe")[0]
        after = calibrate.burst()
        raw.append(setup_s)
        scaled.append(calibrate.scale(setup_s, before + after))
        before = after
    return raw, scaled


def end_to_end(workers: Workers, seconds: float) -> tuple[dict, list[dict], list[float]]:
    """Medians of times scaled to the reference speed (see calibrate.py):
    the probes' set-up, the cold operation of each fresh worker, and the
    timed worker's warm operations."""
    setup_raw, setup_scaled = setup_times(workers)
    # cold workers go before and after the timed one, so that the cold
    # samples span the whole run rather than its first seconds
    extra = COLD_SAMPLES[workers.workload] - 1
    results = [workers.run("cold")[1] for _ in range(extra // 2)]
    timed = workers.run("timed", seconds)[1]
    results += [workers.run("cold")[1] for _ in range(extra - extra // 2)]
    results.append(timed)
    values = {
        "setup_s": statistics.median(setup_scaled),
        "cold_op_s": statistics.median(r["cold_scaled_s"] for r in results),
        "warm_op_s": statistics.median(timed["warm_scaled_s"]),
        "peak_rss_mib": timed["peak_rss_mib"],
    }
    return values, results, setup_raw


def per_layer(workers: Workers) -> tuple[dict, list[dict]]:
    _, plain = workers.run("fixed")
    _, traced = workers.run("traced")
    values = dict(traced["layers"])
    values["trace_overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    return values, [plain, traced]


def report(args, values: dict, results: list[dict], setup_raw: list[float]) -> int:
    """Print every metric with its unit, then the result line; 0 if correct."""
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for result in results:
        for error in result["errors"]:
            print(f"check failed: {error}", file=sys.stderr)
    units = {name: unit for name, unit, *_ in (PER_LAYER if args.trace else END_TO_END)}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    head = f"{args.workload} seed={args.seed}"
    for name, metric in metrics.items():
        print(f"{head} {name} = {metric['value']!r} {metric['unit']}")
    if not args.trace:
        for alias, name in ALIASES.get(args.workload, {}).items():
            print(f"{head} {alias} = {values[name]!r} s")
        if args.workload in DIRECTIONS_PER_OP:
            rate = DIRECTIONS_PER_OP[args.workload] / values["warm_op_s"]
            print(f"{head} directions_per_s = {rate!r} 1/s")
        timed = results[-1]
        for kind, raw, scaled in (
            ("setup", setup_raw, None),
            ("cold", [r["cold_s"] for r in results], [r["cold_scaled_s"] for r in results]),
            ("warm", timed["warm_s"], timed["warm_scaled_s"]),
        ):
            print(f"{head} {kind} raw samples = {list(raw)!r} s, median {statistics.median(raw)!r} s")
            if scaled:
                print(f"{head} {kind} scaled samples = {scaled!r} s")
        speed = calibrate.REFERENCE_TICK_S / timed["calibration_tick_s"]
        print(f"{head} host speed = {speed!r} of the reference, over the timed worker's ticks")
    print(f"{head} error_rate = {failed / max(attempted, 1)!r} ({failed} of {attempted})")
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="knotoidal benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    def out_of_time(signum, frame):
        raise WorkerFailed("the run passed its deadline")

    # interrupts a worker that hangs; stop_all then ends it
    signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(DEADLINE_S)
    workers = Workers(args.workload, args.seed)
    try:
        if args.trace:
            values, results = per_layer(workers)
            setup_raw = []
        else:
            values, results, setup_raw = end_to_end(workers, args.seconds)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        workers.stop_all()
    return report(args, values, results, setup_raw)


if __name__ == "__main__":
    sys.exit(main())
