"""Pin the outputs of the current program in ``reference.json``.

Run from the repository root against the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py [WORKLOAD ...] [--out PATH]

Sections of workloads not named are kept as they are in PATH.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import REFERENCE_PATH, WORKLOADS, Checker, _Measure  # noqa: E402


def record(name: str) -> dict:
    cls = WORKLOADS[name]
    section: dict = {}
    check = Checker(section, record=True)
    if issubclass(cls, _Measure):
        for entry in range(cls.pool):
            start = time.perf_counter()
            cls(entry, check).cold()
            print(f"{name} entry {entry}: {time.perf_counter() - start:.2f} s", flush=True)
    else:
        workload = cls(0, check)
        workload.cold()
        workload.warm(0)
    return section


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", choices=list(WORKLOADS))
    parser.add_argument("--out", default=REFERENCE_PATH)
    args = parser.parse_args()
    reference = {}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            reference = json.load(handle)
    for name in args.workloads or list(WORKLOADS):
        reference[name] = record(name)
        print(f"recorded {name}", flush=True)
    with open(args.out, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
