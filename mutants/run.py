"""Run the mutation catalogue (``mutants/catalogue.py``).

    python3 mutants/run.py [NAME ...]

Run from anywhere; the checkout is the parent of this directory.  The
package's ``src`` and ``tests`` and its ``pyproject.toml`` are copied to a
temporary directory, where the named tests must first pass unmutated.  Then
each entry, or each named one, is applied alone to that copy, its test runs
under a timeout of TIMEOUT_S seconds, and the file is restored.  One line
per entry says ``killed`` (the test failed), ``survived`` (it passed),
``hung`` (the timeout ran out) or ``stale`` (the old text does not occur
exactly once, or the test is gone).  The exit code is 0 only when every
entry run was killed.  Standard library only; pytest runs in a subprocess.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from catalogue import CATALOGUE

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


def _pytest(copy: Path, tests: list[str], timeout: float) -> int | None:
    """The exit code of pytest on ``tests`` in ``copy``, or None on timeout."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def _outcome(code: int | None) -> str:
    # pytest exits 1 when a test failed and 2 when collection failed, as an
    # import of a broken module does; 4 and 5 mean the test was not found
    if code is None:
        return "hung"
    return {0: "survived", 1: "killed", 2: "killed"}.get(code, "stale")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in CATALOGUE}
    if unknown:
        print(f"no such entries: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    entries = [m for m in CATALOGUE if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for folder in ("src", "tests"):
            shutil.copytree(ROOT / folder, copy / folder, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        tests = list(dict.fromkeys(m.test for m in entries))
        if _pytest(copy, tests, TIMEOUT_S) != 0:
            print("the named tests do not all pass on the unmutated checkout", file=sys.stderr)
            return 2
        failed = 0
        for m in entries:
            path = copy / m.file
            text = path.read_text()
            start = time.perf_counter()
            if text.count(m.old) != 1:
                outcome = "stale"
            else:
                path.write_text(text.replace(m.old, m.new))
                try:
                    outcome = _outcome(_pytest(copy, [m.test], TIMEOUT_S))
                finally:
                    path.write_text(text)
            failed += outcome != "killed"
            print(f"{outcome:8} {time.perf_counter() - start:6.1f} s  {m.name}  ({m.test})", flush=True)
    print(f"{len(entries) - failed} of {len(entries)} killed")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
