"""The exact values of ``evaluate_Z``, pinned by digest.

``golden/z_digests.json`` maps a case name to the sha256 of
``json.dumps(evaluate_Z(d, caps).to_json(), sort_keys=True)``: the six
fixtures and their reversals at caps (0,0), (1,0), (2,0), (3,2), (2,4), (0,6)
and (1,5), the 40-crossing chain of ``5_7`` at (1,4), and the 126 distinct
strand walks of the bundled trefoil at direction seed 0 (500 directions, the
first decomposition of each walk, in first-seen order) at (1,2) and (2,3),
where rotations are a third of the steps.  Those decompositions are the ones
``project`` built before it returned a key, rebuilt by ``measure_reference``.
Any change to the walk must leave every digest as it is.  To write the file afresh from the
current program, run ``PYTHONPATH=src python tests/test_z_digests.py``.
"""

import hashlib
import json
from pathlib import Path

from knotoidal.diagram import chain_decompositions, fixtures, reverse_decomposition
from knotoidal.errors import DegenerateDirection
from knotoidal.invariant import evaluate_Z
from knotoidal.measure import builtin_curve_path, load_curve, sample_directions
from knotoidal.series import Caps

from invariant_reference import reference_walk, reference_walk_key
from measure_reference import reference_decomposition

DIGESTS = Path(__file__).parent / "golden" / "z_digests.json"

FIXTURE_CAPS = [(0, 0), (1, 0), (2, 0), (3, 2), (2, 4), (0, 6), (1, 5)]
CHAIN_CAPS = (1, 4)
CHAIN_CROSSINGS = 40
TREFOIL_SEED = 0
TREFOIL_DIRECTIONS = 500
TREFOIL_TOL = 1e-9
TREFOIL_CAPS = [(1, 2), (2, 3)]


def _trefoil_projections():
    """``(projection, decomposition)`` of each accepted direction of the
    bundled trefoil."""
    curve = load_curve(builtin_curve_path("open_trefoil"))
    out = []
    for direction in sample_directions(TREFOIL_SEED, TREFOIL_DIRECTIONS):
        try:
            out.append(reference_decomposition(curve, direction, TREFOIL_TOL))
        except DegenerateDirection:
            continue
    return out


def _trefoil_walks():
    """The first decomposition of each distinct strand walk of the bundled
    trefoil, in first-seen order."""
    walks = {}
    for _, decomp in _trefoil_projections():
        walks.setdefault(decomp.walk(), decomp)
    return list(walks.values())


def _cases():
    """``(name, decomposition, caps)`` for every pinned value."""
    fx = {name: d for name, (_, d) in fixtures().items()}
    for eps, hbar in FIXTURE_CAPS:
        for name, d in fx.items():
            yield f"{name} ({eps},{hbar})", d, Caps(eps, hbar)
            yield f"{name} reversed ({eps},{hbar})", reverse_decomposition(d), Caps(eps, hbar)
    chain = fx["5_7"]
    while len(chain.crossings()) < CHAIN_CROSSINGS:
        chain = chain_decompositions(chain, fx["5_7"])
    eps, hbar = CHAIN_CAPS
    yield f"5_7 chain {CHAIN_CROSSINGS} ({eps},{hbar})", chain, Caps(eps, hbar)
    walks = _trefoil_walks()
    for eps, hbar in TREFOIL_CAPS:
        for i, d in enumerate(walks):
            yield f"open_trefoil seed {TREFOIL_SEED} walk {i} ({eps},{hbar})", d, Caps(eps, hbar)


def _digests() -> dict[str, str]:
    return {
        name: hashlib.sha256(json.dumps(evaluate_Z(d, caps).to_json(), sort_keys=True).encode()).hexdigest()
        for name, d, caps in _cases()
    }


def test_values_match_the_pinned_digests():
    want = json.loads(DIGESTS.read_text())
    got = _digests()
    assert sorted(got) == sorted(want)
    assert [name for name in want if got[name] != want[name]] == []


def test_trefoil_walks_with_one_key_have_one_value():
    # zmean evaluates one walk per (code, rho, r) key;
    # here 126 walks fall to 90 keys, which are the keys project returns
    by_key: dict = {}
    for d in _trefoil_walks():
        by_key.setdefault(reference_walk_key(reference_walk(d)), []).append(d)
    assert (len(by_key), sum(map(len, by_key.values()))) == (90, 126)
    assert list(by_key) == list(dict.fromkeys(proj.key for proj, _ in _trefoil_projections()))
    for eps, hbar in TREFOIL_CAPS:
        for first, *rest in by_key.values():
            value = evaluate_Z(first, Caps(eps, hbar)).element
            assert [d for d in rest if evaluate_Z(d, Caps(eps, hbar)).element != value] == []


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(_digests(), indent=1, sort_keys=True) + "\n")
