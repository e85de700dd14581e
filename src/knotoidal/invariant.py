"""Evaluation of the universal invariant of a biframed planar knotoid.

The input is a rotational tangle decomposition: the strand is walked through
its labeled segments in ascending order, every crossing deposits the two
tensor factors of the (inverse) quasitriangular structure on its over- and
under-segment, every rotation token deposits a rotation element, and the
deposits are multiplied together in walk order, each new one on the left of
the running product.  The walk order and the layout of the pending crossings
come from :meth:`RotDecomp.walk`: a crossing's second factor waits, as a
monomial in a tuple kept in opening order, from its first label to its
second.

The evaluator enumerates crossing contributions under a global h-degree
budget: a crossing term of internal degree d carries an explicit factor
hbar^d, so any combination whose total budget exceeds the cap dies by scalar
truncation and is pruned.  The number of admissible combinations grows
polynomially in the crossing count at fixed caps.

The walk carries integer terms, not rational series.  A state maps
``(monomial, e, h)`` to ``c * L**h`` for the exact coefficient ``c``, with
one scale ``L = 2 * lcm(1, ..., N+1)`` per hbar cap ``N``.  The
coefficients the algebra feeds the walk are integers once scaled: the
relation tail carries ``1/(h+1)!`` at ``hbar^h``, which divides
``lcm(1..N+1)**h``, and a rotation element carries ``1/(2**h * h!)``, which
needs the extra factor 2 (the tests check every input for eps caps 0-2 and
hbar caps 0-8).  Scaled terms stay scaled under products because
``L**a * L**b == L**(a+b)``, so a deposit is one degree check and one
integer multiply, the walk never takes a gcd, and the result is divided
back to ``Fraction(c, L**h)`` once, at the end.  Converting a coefficient
that is not integral after scaling raises :class:`NonIntegralScale`; nothing
is ever rounded.

Evaluation is a pure function; repeated runs give identical results
independent of term scheduling because coefficient arithmetic is exact.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm

from .algebra import (
    DElement,
    EDict,
    Mon,
    UNIT_MON,
    _ONE_SD,
    get_context,
    r_inverse,
    r_matrix,
    rotation_element,
)
from .diagram import RotDecomp
from .errors import CapsMismatch, NonIntegralScale
from .series import Caps, _sadd_into, _smul


@dataclass(frozen=True)
class InvariantValue:
    """A computed invariant: normal-form element plus input fingerprint."""

    element: DElement
    caps: Caps
    fingerprint: str

    def render(self) -> str:
        return self.element.render()

    def to_json(self) -> dict:
        data = self.element.to_json()
        data["fingerprint"] = self.fingerprint
        return data


def _decomposition_fingerprint(d: RotDecomp, caps: Caps) -> str:
    text = f"{d.render()}@eps{caps.eps_order},hbar{caps.hbar_order}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _walk_scale(hbar_order: int) -> int:
    """The scale ``L = 2 * lcm(1, ..., N+1)`` of the walk's integer terms."""
    return 2 * lcm(*range(1, hbar_order + 2))


def _scaled(coeff: Fraction, h: int, scale: int) -> int:
    """``coeff * scale**h`` as an int; raises if that is not an integer."""
    num = coeff * scale**h
    if num.denominator != 1:
        raise NonIntegralScale(f"{coeff} * {scale}^{h} is not an integer")
    return num.numerator


def _crossing_terms(caps: Caps):
    """Per-sign crossing deposits: lists of (over_mon, under_mon, scalar).

    The over-strand receives the first tensor factor of the (inverse)
    quasitriangular structure.
    """
    return {
        sign: [(m1, m2, sd) for (m1, m2), sd in tensor.raw().items()]
        for sign, tensor in ((1, r_matrix(caps)), (-1, r_inverse(caps)))
    }


class _Deposit:
    """An element the walk multiplies onto the left of the running product.

    ``rows[mon]`` is this element times ``mon`` in normal form, as integer
    terms ``(h, e, monomial, c * L**h)`` sorted by h-degree, so a walk step
    stops at the first term past its budget.  A row is one flat tuple of
    those four fields, term after term, which spares a tuple object per
    term.  Rows are filled on first use from the exact tables of
    :mod:`knotoidal.algebra`.
    """

    __slots__ = ("terms", "min_h", "rows", "tables")

    def __init__(self, terms: EDict, tables: "_WalkTables"):
        self.terms = terms
        self.min_h = min(h for sd in terms.values() for (_, h) in sd)
        self.rows: dict[Mon, tuple] = {}
        self.tables = tables

    def fill(self, mon: Mon) -> tuple:
        ctx, scale = self.tables.ctx, self.tables.scale
        acc: EDict = {}
        for fmon, fsd in self.terms.items():
            for pmon, psd in ctx.mon_mul(fmon, mon).items():
                # looked up in this module, where perfbench/layers.py counts it
                scal = _smul(fsd, psd, ctx.K, ctx.N)
                if scal:
                    _sadd_into(acc.setdefault(pmon, {}), scal)
        terms = sorted(
            (h, e, pmon, _scaled(c, h, scale))
            for pmon, sd in acc.items()
            for (e, h), c in sd.items()
        )
        row = self.rows[mon] = tuple(chain.from_iterable(terms))
        return row


class _WalkTables:
    """Per-caps deposits of the walk and the scale of its integer terms.

    A crossing term deposits a single monomial times a scalar; its rows are
    those of the monomial alone, shared with every other term and with the
    closing deposit on that monomial, and the scalar's integer terms
    ``(h, e, c * L**h)`` are applied during the walk.  A rotation deposits
    its whole element, so one row lookup covers all of its monomials.
    """

    def __init__(self, caps: Caps):
        self.caps = caps
        self.ctx = get_context(caps)
        self.scale = _walk_scale(caps.hbar_order)
        self.monomials: dict[Mon, _Deposit] = {}
        self.rotation = {s: _Deposit(rotation_element(s, caps).raw(), self) for s in (1, -1)}
        self.crossing = {
            sign: [(over, under, self.scalar(sd)) for over, under, sd in terms]
            for sign, terms in _crossing_terms(caps).items()
        }

    def monomial(self, mon: Mon) -> _Deposit:
        dep = self.monomials.get(mon)
        if dep is None:
            dep = self.monomials[mon] = _Deposit({mon: _ONE_SD}, self)
        return dep

    def scalar(self, sd) -> tuple:
        """A scalar series as integer terms ``(h, e, c * L**h)``, sorted by h."""
        return tuple(sorted((h, e, _scaled(c, h, self.scale)) for (e, h), c in sd.items()))

    def element(self, state: dict) -> DElement:
        powers = [self.scale**h for h in range(self.caps.hbar_order + 1)]
        terms: EDict = {}
        for (mon, e, h), c in state.items():
            terms.setdefault(mon, {})[(e, h)] = Fraction(c, powers[h])
        return DElement(self.caps, terms, _trusted=True)


_TABLES: dict[tuple[int, int], _WalkTables] = {}


def _walk_tables(caps: Caps) -> _WalkTables:
    key = (caps.eps_order, caps.hbar_order)
    tables = _TABLES.get(key)
    if tables is None:
        tables = _TABLES[key] = _WalkTables(caps)
    return tables


_UNIT_SCALAR = ((0, 0, 1),)


def _deposit(acc: dict, dep: _Deposit, scalar: tuple, main: dict, K: int, N: int) -> None:
    """Add ``scalar * dep * main`` into ``acc``, all as scaled integer terms."""
    rows, reach = dep.rows, N - dep.min_h - scalar[0][0]
    for (mmon, me, mh), mc in main.items():
        if mh > reach:
            continue
        row = rows.get(mmon)
        if row is None:
            row = dep.fill(mmon)
        for th, te, tc in scalar:
            h0 = mh + th
            if h0 > N:
                break
            e0 = me + te
            if e0 > K:
                continue
            c0, budget = mc * tc, N - h0
            it = iter(row)
            for ph, pe, pmon, pc in zip(it, it, it, it):
                if ph > budget:
                    break
                e = e0 + pe
                if e > K:
                    continue
                key = (pmon, e, h0 + ph)
                acc[key] = acc.get(key, 0) + c0 * pc


def evaluate_Z(d: RotDecomp, caps: Caps) -> InvariantValue:
    """Universal invariant of the decomposition at the given caps."""
    tables = _walk_tables(caps)
    K, N = caps.eps_order, caps.hbar_order
    # state: pending monomials, in the order their crossings opened -> main
    # element, the latter as {(monomial, e, h): coefficient * L**h}
    states: dict[tuple, dict] = {(): {(UNIT_MON, 0, 0): 1}}

    for step in d.walk():
        new_states: dict[tuple, dict] = {}
        if step[0] == "rot":
            dep = tables.rotation[step[1]]
            for pending, main in states.items():
                _deposit(new_states.setdefault(pending, {}), dep, _UNIT_SCALAR, main, K, N)
        elif step[0] == "open":
            _, sign, over_first = step
            for over_mon, under_mon, scalar in tables.crossing[sign]:
                now_mon, pend_mon = (
                    (over_mon, under_mon) if over_first else (under_mon, over_mon)
                )
                dep = tables.monomial(now_mon)
                for pending, main in states.items():
                    acc = new_states.setdefault(pending + (pend_mon,), {})
                    _deposit(acc, dep, scalar, main, K, N)
        else:  # close
            slot = step[1]
            for pending, main in states.items():
                rest = pending[:slot] + pending[slot + 1:]
                dep = tables.monomial(pending[slot])
                _deposit(new_states.setdefault(rest, {}), dep, _UNIT_SCALAR, main, K, N)
        states = {}
        for pending, acc in new_states.items():
            main = {key: c for key, c in acc.items() if c}
            if main:
                states[pending] = main
        if not states:
            break

    element = tables.element(states.get((), {}))
    return InvariantValue(element, caps, _decomposition_fingerprint(d, caps))


# ---------------------------------------------------------------------------
# comparison

@dataclass(frozen=True)
class Comparison:
    equal: bool
    witness: tuple[Mon, int, int] | None = None
    left_coeff: Fraction | None = None
    right_coeff: Fraction | None = None

    def describe(self) -> str:
        if self.equal:
            return "Equal"
        mon, e, h = self.witness
        return (
            f"Differ at monomial y^{mon[0]} b^{mon[1]} a^{mon[2]} x^{mon[3]}, "
            f"eps^{e} hbar^{h}: {self.left_coeff} vs {self.right_coeff}"
        )


def compare(a: InvariantValue, b: InvariantValue) -> Comparison:
    """Exact coefficient comparison; reports the lowest-degree mismatch.

    Witness order: e-degree first, then h-degree, then monomial degree.
    """
    if a.caps != b.caps:
        raise CapsMismatch(f"{a.caps} vs {b.caps}")
    left, right = a.element.raw(), b.element.raw()
    keys = set()
    for terms in (left, right):
        for mon, sd in terms.items():
            for (e, h) in sd:
                keys.add((e, h, sum(mon), mon))
    for e, h, _, mon in sorted(keys):
        lc = left.get(mon, {}).get((e, h), Fraction(0))
        rc = right.get(mon, {}).get((e, h), Fraction(0))
        if lc != rc:
            return Comparison(False, (mon, e, h), lc, rc)
    return Comparison(True)


def epsilon_coefficient(value: InvariantValue, k: int) -> DElement:
    """The part of the invariant of exact e-degree ``k``."""
    return value.element.epsilon_part(k)
