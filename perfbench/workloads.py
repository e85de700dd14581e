"""Benchmark workloads: inputs built from the workload seed, timed
operations, and the exact output checks.

Every workload has a cold operation (the first timed call in a fresh
interpreter) and a warm operation that repeats while a run lasts.  Each
operation calls the program through module attributes (``invariant.evaluate_Z``,
``measure.estimate_measure``, ``rt.recovery_check``) so that the tracer's
wrappers see the calls, and checks every output against ``reference.json``.

The measure workloads draw their direction seed from a pool of ``pool``
pinned entries: the seed selects entry ``seed % pool``, whose outputs are
pinned in the reference.  Every operation of a run repeats the same input,
so that its samples time the same work.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from contextlib import nullcontext

from knotoidal import diagram, invariant, measure, rt
from knotoidal.series import Caps, ScalarSeries

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

FIXTURE_CAPS = Caps(1, 5)
FIXTURE_PAIRS = (("5_7", "5_421"), ("5_9", "5_561"), ("5_12", "5_593"))
COLD_FIXTURE = "5_7"

CHAIN_CAPS = Caps(1, 4)
CHAIN_CROSSINGS = (5, 10, 20, 40)

POOL = 8  # direction seeds of zmean_trefoil
WALK_POINTS = 512
WALK_CURVES = 8
WALK_DIRECTIONS = 1  # per curve
ZMEAN_DIRECTIONS = 500
ZMEAN_CAPS = Caps(1, 2)
TOL = 1e-9


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def value_digest(value) -> str:
    """sha256 of an ``InvariantValue.to_json()``."""
    return sha256(json.dumps(value.to_json(), sort_keys=True))


def load_reference(name: str) -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)[name]


class Checker:
    """Checks outputs against one workload's section of the reference and
    counts checked outputs and the ones that raised or mismatched.

    With ``record=True`` it stores each output in the section instead; that
    is how ``make_reference.py`` pins the outputs of the current program.
    """

    def __init__(self, section: dict, record: bool = False):
        self.section = section
        self.record = record
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def expect(self, path: tuple, actual) -> None:
        """Compare ``actual`` with the reference entry at ``path``."""
        self.attempted += 1
        node = self.section
        for key in path[:-1]:
            node = node.setdefault(key, {}) if self.record else node.get(key, {})
        if self.record:
            node[path[-1]] = actual
            return
        expected = node.get(path[-1], "<missing>")
        if actual != expected:
            self.failed += 1
            self.errors.append(f"{'/'.join(path)}: got {actual!r}, expected {expected!r}")

    def raised(self, what: str, exc: Exception) -> None:
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{what}: raised {type(exc).__name__}: {exc}")


class Workload:
    name = ""
    why = ""
    fixed_warm_ops = 1  # warm operations in a fixed-length (traced) run
    min_warm_ops = 2  # the least warm operations of a timed run

    def __init__(self, seed: int, check: Checker, span=None):
        self.seed = seed
        self.check = check
        self.span = span or (lambda name: nullcontext())

    def cold(self) -> None:
        raise NotImplementedError

    def warm(self, index: int) -> float | None:
        """Run warm operation ``index``; return the time of the part that
        repeats the cold operation when it is only a part, else None."""
        raise NotImplementedError


class Fixtures(Workload):
    name = "fixtures"
    # the first warm pass also fills the tables of the other five fixtures
    min_warm_ops = 3
    why = "cold 5_7 at caps (1,5) is mostly filling the algebra tables; the warm pass of the three tabulated pairs is mostly series products"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.decomps = {name: d for name, (_, d) in diagram.fixtures().items()}

    def _value(self, name: str):
        value = invariant.evaluate_Z(self.decomps[name], FIXTURE_CAPS)
        self.check.expect(("values", name), value_digest(value))
        return value

    def cold(self) -> None:
        with self.span("op.cold"):
            self._value(COLD_FIXTURE)

    def warm(self, index: int) -> float | None:
        repeat_s = None
        with self.span("op.warm"):
            for first, second in FIXTURE_PAIRS:
                start = time.perf_counter()
                za = self._value(first)
                if first == COLD_FIXTURE:
                    repeat_s = time.perf_counter() - start
                zb = self._value(second)
                verdict = invariant.compare(za, zb).describe()
                self.check.expect(("verdicts", f"{first} {second}"), verdict)
        return repeat_s


def acceptance8_rep(caps: Caps):
    """The d=2 generator matrices and endpoint vectors of acceptance check 8."""
    def one(v):
        return ScalarSeries.term(caps, v)

    zero = ScalarSeries.zero(caps)
    w = (ScalarSeries.one(caps) - ScalarSeries.term(caps, -1, 1, 1).exp()).shift(0, -1)
    rho = {
        "a": [[one(1), zero], [zero, zero]],
        "b": [[zero, zero], [zero, ScalarSeries.term(caps, -1, 1, 0)]],
        "x": [[zero, one(1)], [zero, zero]],
        "y": [[zero, zero], [w, zero]],
    }
    ev = rt.EndpointVectors([one(2), one(3)], [one(3), one(4)])
    return rt.derive_rep(caps, rho), rho, ev


class Chain(Workload):
    name = "chain"
    why = "the 5-to-40-crossing chain of 5_7 at caps (1,4) checked by recovery_check: walk length at low caps, and the only workload that runs rt"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        base = diagram.fixtures()[COLD_FIXTURE][1]
        chain, self.chains = base, []
        for crossings in CHAIN_CROSSINGS:
            while len(chain.crossings()) < crossings:
                chain = diagram.chain_decompositions(chain, base)
            self.chains.append(chain)
        self.rep, self.rho, self.ev = acceptance8_rep(CHAIN_CAPS)

    def _pass(self, span_name: str) -> None:
        with self.span(span_name):
            for d in self.chains:
                n = len(d.crossings())
                with self.span("rt.recovery_check"):
                    result = rt.recovery_check(d, self.rep, self.rho, self.ev)
                self.check.expect(("recovery_passed", str(n)), result.passed)

    def cold(self) -> None:
        self._pass("op.cold")

    def warm(self, index: int) -> float | None:
        self._pass("op.warm")
        return None


def random_walk(points: int, key: str):
    """Unit-step random walk in 3D, reproducible from ``key``."""
    rng = random.Random(key)
    x = y = z = 0.0
    out = [(x, y, z)]
    for _ in range(points - 1):
        dz = rng.uniform(-1.0, 1.0)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        r = math.sqrt(1.0 - dz * dz)
        x, y, z = x + r * math.cos(theta), y + r * math.sin(theta), z + dz
        out.append((x, y, z))
    return measure.OpenCurve3D(tuple(out))


class _Measure(Workload):
    pool = POOL  # direction seeds the workload seed chooses from
    directions = 0  # per curve and operation
    phi = "classes"
    caps = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entry = self.seed % self.pool
        self.direction_seed = 1000 * self.entry
        self.curves = self.make_curves()

    def make_curves(self) -> list:
        raise NotImplementedError

    def _estimate(self, span_name: str) -> None:
        with self.span(span_name):
            estimates = [
                measure.estimate_measure(
                    curve, self.directions, seed=self.direction_seed, tol=TOL, phi=self.phi, caps=self.caps
                )
                for curve in self.curves
            ]
        digest = sha256("\n".join(est.to_json_str() for est in estimates))
        self.check.expect(("estimates", str(self.entry)), digest)

    def cold(self) -> None:
        self._estimate("op.cold")

    def warm(self, index: int) -> float | None:
        self._estimate("op.warm")
        return None


class MeasureWalk512(_Measure):
    name = "measure_walk512"
    why = "classes mode on seeded 512-point random walks: projection and simplification set the cost, no exact algebra runs"
    # the same curves and directions for every seed: the cost of these few
    # projections depends on the curve and the direction, by 2x between
    # walks and by up to 25% between direction seeds, so that a seed-drawn
    # input would make the spread across seeds show the input, not the program
    pool = 1
    directions = WALK_DIRECTIONS
    directions_per_op = WALK_CURVES * WALK_DIRECTIONS

    def make_curves(self) -> list:
        return [random_walk(WALK_POINTS, f"{self.name}/{k}") for k in range(WALK_CURVES)]


class ZmeanTrefoil(_Measure):
    name = "zmean_trefoil"
    why = "zmean on the bundled trefoil at caps (1,2): many tiny evaluations on few distinct decompositions, projection about 10%"
    directions = ZMEAN_DIRECTIONS
    directions_per_op = ZMEAN_DIRECTIONS
    phi = "zmean"
    caps = ZMEAN_CAPS

    def make_curves(self) -> list:
        return [measure.load_curve(measure.builtin_curve_path("open_trefoil"))]


WORKLOADS = {cls.name: cls for cls in (Fixtures, Chain, MeasureWalk512, ZmeanTrefoil)}
