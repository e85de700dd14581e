"""Evaluation of the universal invariant of a biframed planar knotoid.

The input is a rotational tangle decomposition: the strand is walked through
its labeled segments in ascending order, every crossing deposits the two
tensor factors of the (inverse) quasitriangular structure on its over- and
under-segment, and the deposits are multiplied together in walk order, each
new one on the left of the running product.  The walk order and the layout of
the pending crossings come from :meth:`RotDecomp.walk`: a crossing's second
factor waits, as a monomial in a tuple kept in opening order, from its first
label to its second.  A rotation deposits nothing where it stands: with w
the y minus the x exponent, ``rot_s * M = q**(-s*w(M)) * M * rot_s``, and R
and R^-1 have w(over) + w(under) = 0, so rot_s passes the deposits to come,
of weight ``sum w(p)`` over the pending p, as the twist ``q**(s * sum w(p))``
on the state.  The net rotation r is deposited, |r| times, after the walk.

The evaluator enumerates crossing contributions under a global h-degree
budget: a crossing term of internal degree d carries an explicit factor
hbar^d, so any combination whose total budget exceeds the cap dies by scalar
truncation and is pruned.  The number of admissible combinations grows
polynomially in the crossing count at fixed caps.

The walk carries integer terms, not rational series.  A state maps
``(monomial, e, h)`` to ``c * L**h`` for the exact coefficient ``c``, at the
scale ``L = 2 * lcm(1, ..., N+1)`` of the rewriting tables of
:mod:`knotoidal.algebra`, which already hold integer terms.  The other
inputs of the walk are integers once scaled too: a crossing's scalar, and a
rotation element, which carries ``1/(2**h * h!)`` and so needs the factor 2
of ``L`` (the tests check every input for eps caps 0-2 and hbar caps 0-8).
Each deposit is scaled once, when it is built, and its rows are filled from
the tables in integer arithmetic, each once, to the h-degree that a degree
bound gives for its deepest read.  Scaled terms stay scaled under products
because ``L**a * L**b == L**(a+b)``, so a walk step is one degree check and one
integer multiply, neither the walk nor the fill takes a gcd, and the result
is divided back to ``Fraction(c, L**h)`` once, at the end.  Scaling a
coefficient that is not integral raises :class:`NonIntegralScale`; nothing
is ever rounded.

Evaluation is a pure function; repeated runs give identical results
independent of term scheduling because coefficient arithmetic is exact.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .algebra import (
    DElement,
    EDict,
    Mon,
    UNIT_MON,
    _Context,
    get_context,
    r_inverse,
    r_matrix,
    rotation_element,
)
from .diagram import RotDecomp
from .errors import CapsMismatch, CapsTooCostly
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

    ``rows[mon]`` is this element times ``mon`` in normal form, as one flat
    tuple of integer terms ``h, e, monomial, c * L**h`` sorted by h, so a
    walk step stops at the first term past its budget.  A monomial's row is
    the product from :meth:`_Context.product`; a rotation's multiplies its
    scaled ``terms`` with those.  The rows are the only memo of both.

    A row is filled once, to ``N - ceil((deg D + deg M) / 2)``, where deg is
    the total exponent, D the lowest monomial of ``terms`` (the unit for a
    rotation) and M the row's monomial.  No read asks for more.  Every term
    (mon, e, h) of a product m1*m2 has deg mon + e <= deg m1 + deg m2 + 2h;
    of R and R^-1, deg m1 + deg m2 + e <= 2h and deg m1, deg m2 <= h; of a
    rotation, deg + e <= 2h.  So a state term at hbar^h with main monomial M
    and pending P has 2h >= deg M + deg P.  A rotation read, or a close read
    on P = D, asks for N - h; an open read, whose scalar starts at
    hbar^(deg D), asks for N - deg D - h.
    """

    __slots__ = ("terms", "rows", "ctx")

    def __init__(self, terms: EDict, ctx: _Context):
        self.terms = {mon: ctx.scaled(sd) for mon, sd in terms.items()}
        self.rows: dict[Mon, tuple] = {}
        self.ctx = ctx

    def fill(self, mon: Mon) -> tuple:
        ctx = self.ctx
        budget = ctx.N - (min(map(sum, self.terms)) + sum(mon) + 1) // 2
        (fmon, fsd), *more = self.terms.items()
        if not more and fsd == {(0, 0): 1}:  # a monomial: its row is the product
            acc = ctx.product(fmon, mon, budget)
        else:
            acc = {}
            for fmon, fsd in self.terms.items():
                for pmon, psd in ctx.product(fmon, mon, budget).items():
                    # looked up in this module, where perfbench/layers.py counts it
                    scal = _smul(fsd, psd, ctx.K, budget)
                    if scal:
                        _sadd_into(acc.setdefault(pmon, {}), scal)
        terms = sorted((h, e, pmon, c) for pmon, sd in acc.items() for (e, h), c in sd.items())
        row = self.rows[mon] = tuple(chain.from_iterable(terms))
        return row


class _WalkTables:
    """Per-caps deposits of the walk, as integer terms at the tables' scale.

    A crossing term deposits a single monomial times a scalar; its rows are
    those of the monomial alone, shared with every other term and with the
    closing deposit on that monomial, and the scalar's integer terms
    ``(h, e, c * L**h)`` are applied during the walk.  A rotation step only
    twists; a whole rotation element is deposited on the final state alone.
    """

    def __init__(self, caps: Caps):
        self.caps = caps
        self.ctx = get_context(caps)
        self.monomials: dict[Mon, _Deposit] = {}
        self.rotation = {s: _Deposit(rotation_element(s, caps).raw(), self.ctx) for s in (1, -1)}
        self.crossing = {
            sign: [(over, under, self.scalar(sd)) for over, under, sd in terms]
            for sign, terms in _crossing_terms(caps).items()
        }

    def monomial(self, mon: Mon) -> _Deposit:
        dep = self.monomials.get(mon)
        if dep is None:
            dep = self.monomials[mon] = _Deposit({mon: {(0, 0): 1}}, self.ctx)
        return dep

    def twist(self, main: dict, t: int) -> dict:
        """``q**t * main`` in place; ``q`` holds ``L**k / k!`` at (eps*hbar)^k."""
        q, K, N = self.ctx.q_powers[1], self.ctx.K, self.ctx.N
        for (mon, e, h), c in list(main.items()):
            for k in range(1, min(K - e, N - h) + 1):
                main[mon, e + k, h + k] = main.get((mon, e + k, h + k), 0) + c * t**k * q[0, 0, k, k]
        return main

    def scalar(self, sd) -> tuple:
        """A scalar series as integer terms ``(h, e, c * L**h)``, sorted by h."""
        return tuple(sorted((h, e, c) for (e, h), c in self.ctx.scaled(sd).items()))

    def element(self, state: dict) -> DElement:
        powers = self.ctx.powers
        terms: EDict = {}
        for (mon, e, h), c in state.items():
            terms.setdefault(mon, {})[(e, h)] = Fraction(c, powers[h])
        return DElement(self.caps, terms, _trusted=True)


_TABLES: dict[tuple[int, int], _WalkTables] = {}

# The cold time and peak memory of a walk about double with each hbar order
# and grow at most linearly with the eps order, so the cost ``(K+1) * 2**N``
# tracks both.  Cold 5_7 on a shared 2-vCPU host: (1,8) 2.1-2.5 s at 63 MiB
# peak RSS, (1,9) 4.9-6.5 s at 111 MiB, (1,10) 12-14 s at 206 MiB.  The limit
# is the cost of (1,10), the largest caps the acceptance checks may reach; a
# diagram with more crossings costs more at the same caps.
CAPS_COST_LIMIT = 2048


def _check_cost(caps: Caps) -> None:
    """Raise :class:`CapsTooCostly` for caps past :data:`CAPS_COST_LIMIT`."""
    cost = (caps.eps_order + 1) * 2**caps.hbar_order
    if cost > CAPS_COST_LIMIT:
        raise CapsTooCostly(
            f"caps (eps {caps.eps_order}, hbar {caps.hbar_order}) cost (eps+1)*2^hbar = {cost},"
            f" past the limit {CAPS_COST_LIMIT} of caps (1,10)"
        )


def _walk_tables(caps: Caps) -> _WalkTables:
    key = (caps.eps_order, caps.hbar_order)
    tables = _TABLES.get(key)
    if tables is None:
        _check_cost(caps)
        tables = _TABLES[key] = _WalkTables(caps)
    return tables


_UNIT_SCALAR = ((0, 0, 1),)


def _deposit(acc: dict, dep: _Deposit, scalar: tuple, main: dict, K: int, N: int) -> None:
    """Add ``scalar * dep * main`` into ``acc``, all as scaled integer terms."""
    rows, reach = dep.rows, N - scalar[0][0]
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
    """Universal invariant of the decomposition at the given caps.

    Raises :class:`CapsTooCostly`, before any table is filled, for caps
    whose ``(eps_order + 1) * 2**hbar_order`` is past
    :data:`CAPS_COST_LIMIT`.
    """
    tables = _walk_tables(caps)
    K, N = caps.eps_order, caps.hbar_order
    # state: pending monomials, in the order their crossings opened -> main
    # element, the latter as {(monomial, e, h): coefficient * L**h}
    states: dict[tuple, dict] = {(): {(UNIT_MON, 0, 0): 1}}
    rotation = 0  # net rotation, deposited once the walk ends

    for step in d.walk():
        new_states: dict[tuple, dict] = {}
        if step[0] == "rot":
            rotation += step[1]
            for pending, main in states.items():
                t = step[1] * sum(p[0] - p[3] for p in pending)
                new_states[pending] = tables.twist(main, t) if t else main
        elif step[0] == "open":
            _, sign, over_first = step
            # a crossing term of h-degree d reaches only states with a term
            # of h-degree at most N - d; closing deposits start at hbar^0
            # and reach every state
            lows = [(pending, main, min(h for _, _, h in main)) for pending, main in states.items()]
            for over_mon, under_mon, scalar in tables.crossing[sign]:
                now_mon, pend_mon = (
                    (over_mon, under_mon) if over_first else (under_mon, over_mon)
                )
                dep = tables.monomial(now_mon)
                reach = N - scalar[0][0]
                for pending, main, low in lows:
                    if low <= reach:
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

    main = states.get((), {})
    for _ in range(abs(rotation)):
        _deposit(acc := {}, tables.rotation[1 if rotation > 0 else -1], _UNIT_SCALAR, main, K, N)
        main = {key: c for key, c in acc.items() if c}
    return InvariantValue(tables.element(main), caps, _decomposition_fingerprint(d, caps))


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
