"""The outputs of ``measure.project`` on the benchmark's measure inputs,
pinned by digest.

``golden/project_digests.json`` maps a case name to the sha256 of one line per
direction: the code's render and the decomposition's render, or the
rejection reason.  The decomposition is the one ``project`` built
before it returned a key, rebuilt by ``measure_reference``, and each accepted
line also checks that the projected key is that decomposition's walk key.
The cases are the bundled trefoil at the eight direction seeds ``1000 * k``
of ``zmean_trefoil`` (500 directions each), and the eight 512-point walks of
``measure_walk512`` at their one direction.  Any change to the projection
must leave every digest as it is.  To write the file afresh from the current
program, run
``PYTHONPATH=src python tests/test_project_digests.py``.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from knotoidal.errors import DegenerateDirection
from knotoidal.measure import builtin_curve_path, load_curve, sample_directions

from invariant_reference import reference_walk, reference_walk_key
from measure_reference import reference_decomposition

DIGESTS = Path(__file__).parent / "golden" / "project_digests.json"
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

TOL = 1e-9
TREFOIL_SEEDS = [1000 * k for k in range(8)]
TREFOIL_DIRECTIONS = 500
WALK_CURVES = 8
WALK_POINTS = 512


def _benchmark_random_walk():
    """The benchmark's walk builder, loaded from its file without adding to
    ``sys.path``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.random_walk


def _line(curve, direction) -> str:
    try:
        proj, decomp = reference_decomposition(curve, direction, TOL)
    except DegenerateDirection as exc:
        return f"rejected: {exc.reason}"
    assert proj.key == reference_walk_key(reference_walk(decomp))
    decomp = decomp.render().replace("\n", "; ")
    return f"{proj.code.render()} | {decomp}"


def _cases():
    """``(name, curve, directions)`` for every pinned digest."""
    trefoil = load_curve(builtin_curve_path("open_trefoil"))
    for seed in TREFOIL_SEEDS:
        yield f"open_trefoil seed {seed}", trefoil, sample_directions(seed, TREFOIL_DIRECTIONS)
    random_walk = _benchmark_random_walk()
    for k in range(WALK_CURVES):
        key = f"measure_walk512/{k}"
        yield key, random_walk(WALK_POINTS, key), sample_directions(0, 1)


def _digests() -> dict[str, str]:
    return {
        name: hashlib.sha256("\n".join(_line(curve, d) for d in directions).encode()).hexdigest()
        for name, curve, directions in _cases()
    }


def test_projections_match_the_pinned_digests():
    want = json.loads(DIGESTS.read_text())
    got = _digests()
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(_digests(), indent=1, sort_keys=True) + "\n")
