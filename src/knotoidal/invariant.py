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

The walk carries integer terms, not rational series.  A state maps the
packed key of ``(monomial, e, h)`` to ``c * L**h`` for the exact coefficient
``c``, at the scale ``L = 2 * lcm(1, ..., N+1)`` of the rewriting tables of
:mod:`knotoidal.algebra`, which already hold integer terms.  The other
inputs of the walk are integers once scaled too: a crossing's scalar, and a
rotation element, which carries ``1/(2**h * h!)`` and so needs the factor 2
of ``L`` (the tests check every input for eps caps 0-2 and hbar caps 0-8).
Each deposit is scaled once, when it is built, and its rows are filled in
integer arithmetic, each once, to the h-degree that a degree bound gives for
its deepest read.  Scaled terms stay scaled under products because
``L**a * L**b == L**(a+b)``, so a walk step is one integer multiply-add per
product term, neither the walk nor the fill takes a gcd, and the result is
divided back to ``Fraction(c, L**h)`` once, at the end.  Scaling a
coefficient that is not integral raises :class:`NonIntegralScale`; nothing
is ever rounded.

A key is one int, ``id(mon) * S + e * (N+1) + h`` with ``S = (K+1)(N+1)``
and ``id`` the monomial's index in :class:`_WalkTables`.  While ``e <= K``
and ``h <= N`` the fields do not carry, so a product term's key is a row
term's key plus the state term's ``e * (N+1) + h``.  Each deposit keeps,
under a state term's own key, its row cut to the terms that state term
reaches, with that sum already added, so a walk step adds into the product
keys as they stand: no decode, no degree test, no key add, and no tuple is
built or hashed.  Keys are decoded back to monomials only when the result
is built.  Each crossing term is its own deposit, its scalar folded into its
rows, so an open step reads each state once for all the crossing terms it
reaches.

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
    get_context,
    r_inverse,
    r_matrix,
    rotation_element,
)
from .diagram import RotDecomp
from .errors import CapsMismatch, CapsTooCostly
from .series import Caps, _smul


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


_UNIT_SD = {(0, 0): 1}


def _row_budget(N: int, dmon: Mon, mon: Mon) -> int:
    """The h-degree a monomial deposit ``dmon`` fills its row at ``mon`` to."""
    return N - (sum(dmon) + sum(mon) + 1) // 2


class _Deposit:
    """An element the walk multiplies onto the left of the running product.

    The element is a sum of parts ``scalar * D``, D a monomial.  ``rows``
    maps a packed key to one flat tuple of integer terms ``key, c * L**h``.
    The full row, at ``i * S`` (e = h = 0), is the element times the
    monomial of id ``i`` in normal form, sorted by h; ``key`` packs the
    term's ``(monomial, e, h)``.  Under the key ``i * S + e * (N+1) + h`` of
    any other state term is its cut: the full row's terms (pe, ph) with
    ``ph <= N - h`` and ``pe <= K - e``, in the same order, each key shifted
    by ``e * (N+1) + h``, so that every term is a product term as it stands.
    :meth:`cut` makes it from the full row on its first read, filling the
    full row first if need be, and neither is ever replaced.  ``low`` is the
    lowest h-degree of the scalars.  The rows are the only memo of the
    walk's products.

    The row at M is kept to ``min(N, d + B)``, the least over the parts,
    with d the lowest h-degree of a part's scalar and ``B = N - ceil((deg D
    + deg M) / 2)``, deg the total exponent.  Each part adds its scalar
    times :meth:`_Context.product` of D and M, read to ``hbar^(depth - d)``:
    a scalar term at ``hbar^s``, ``s >= d``, meets product terms at
    ``hbar^(t-s)``, ``t - s <= depth - d``, so the row is exact to its
    depth.  A bare monomial (one part, unit scalar) is its product to B.

    No read asks for more.  Every term (mon, e, h) of a product m1*m2 has
    deg mon + e <= deg m1 + deg m2 + 2h; of R and R^-1, deg m1 + deg m2 + e
    <= 2h and deg m1, deg m2 <= h; of a rotation, deg + e <= 2h.  So a state
    term at hbar^h with main monomial M and pending P has 2h >= deg M +
    deg P, and a read asks for ``N - h``.  A close read, on P = D, needs
    ``N - h <= B``.  A crossing term or rotation read needs ``N - h - d <=
    B``, that is ``h + d >= ceil((deg D + deg M) / 2)``: for a crossing term
    d >= deg D and h >= deg M / 2; for a rotation d >= deg D / 2 and, on
    the final state, which has no pending, h >= deg M / 2.

    Reads often ask for less.  On cold 5_7 at (1,8), 91,740 of the 242,361
    full-row terms are in no read's cut: 80,012 lie past the deepest
    h-degree any read of their row asks for, and the other 11,728 are past
    the e-degree of every read that reaches their h-degree.
    """

    __slots__ = ("tables", "parts", "low", "rows")

    def __init__(self, tables: _WalkTables, terms: EDict):
        self.tables = tables
        self.parts = [(mon, tables.ctx.scaled(sd)) for mon, sd in terms.items()]
        self.low = min(h for _, sd in self.parts for _, h in sd)
        self.rows: dict[int, tuple] = {}

    def fill(self, mid: int) -> tuple:
        tables = self.tables
        ctx, mon, S = tables.ctx, tables.mons[mid], tables.S
        K, N = ctx.K, ctx.N
        lows = [min(h for _, h in sd) for _, sd in self.parts]
        depth = min(N, *(d + _row_budget(N, dmon, mon) for (dmon, _), d in zip(self.parts, lows)))
        acc: dict[int, int] = {}
        for (dmon, dsd), d in zip(self.parts, lows):
            unit = dsd == _UNIT_SD
            for pmon, psd in ctx.product(dmon, mon, depth - d).items():
                if not unit:
                    # looked up in this module, where perfbench/layers.py counts it
                    psd = _smul(dsd, psd, K, depth)
                base = tables.key(pmon, 0, 0)
                for (e, h), c in psd.items():
                    k = base + e * (N + 1) + h
                    acc[k] = acc.get(k, 0) + c
        terms = sorted((k % (N + 1), k % S, k, c) for k, c in acc.items() if c)
        row = self.rows[mid * S] = tuple(chain.from_iterable((k, c) for *_, k, c in terms))
        return row

    def cut(self, key: int) -> tuple:
        tables = self.tables
        S, N1 = tables.S, tables.ctx.N + 1
        mid, r = divmod(key, S)
        row = self.rows.get(mid * S)
        if row is None:
            row = self.fill(mid)
        if r:
            reach, emax = N1 - 1 - r % N1, tables.ctx.K - r // N1
            kept = []
            it = iter(row)
            for k, c in zip(it, it):
                if k % N1 > reach:
                    break
                if k % S // N1 <= emax:
                    kept += (k + r, c)
            row = self.rows[key] = tuple(kept)
        return row


class _WalkTables:
    """Per-caps deposits of the walk, and the monomial ids of its keys.

    ``mons[i]`` is the monomial of id i, given when a row first holds it;
    a key is ``i * S + e * (N+1) + h`` with ``S = (K+1)(N+1)``, and a
    deposit's rows are keyed alike: the full row at monomial i by ``i * S``,
    each cut by the key of the state term that reads it.
    ``monomials`` holds the bare monomial deposits, by monomial: those the
    close steps deposit, and the unit that R's and R^-1's unit term deposits.
    ``crossing[sign, over_first]`` lists ``(low, deposit, pending)`` for each
    term of R (sign 1) or R^-1 (sign -1), sorted by low: ``deposit`` is the
    factor the walk multiplies on now, with the scalar folded in (the unit
    term's is the bare unit monomial), ``pending`` the factor that waits.  A
    rotation step only twists; a whole rotation element is deposited on the
    final state alone.
    """

    def __init__(self, caps: Caps):
        self.caps = caps
        self.ctx = get_context(caps)
        self.S = (caps.eps_order + 1) * (caps.hbar_order + 1)
        self.ids: dict[Mon, int] = {}
        self.mons: list[Mon] = []
        self.monomials: dict[Mon, _Deposit] = {}
        self.rotation = {s: _Deposit(self, rotation_element(s, caps).raw()) for s in (1, -1)}
        self.crossing = {}
        for sign, terms in _crossing_terms(caps).items():
            for over_first in (True, False):
                deposits = []
                for over, under, sd in terms:
                    now, pend = (over, under) if over_first else (under, over)
                    dep = self.monomial(now) if sd == _UNIT_SD else _Deposit(self, {now: sd})
                    deposits.append((dep.low, dep, pend))
                self.crossing[sign, over_first] = sorted(deposits, key=lambda t: t[0])

    def key(self, mon: Mon, e: int, h: int) -> int:
        mid = self.ids.get(mon)
        if mid is None:
            mid = self.ids[mon] = len(self.mons)
            self.mons.append(mon)
        return mid * self.S + e * (self.ctx.N + 1) + h

    def monomial(self, mon: Mon) -> _Deposit:
        dep = self.monomials.get(mon)
        if dep is None:
            dep = self.monomials[mon] = _Deposit(self, {mon: _UNIT_SD})
        return dep

    def twist(self, main: dict, t: int) -> dict:
        """``q**t * main`` in place; ``q`` holds ``L**k / k!`` at (eps*hbar)^k,
        which adds ``k * (N+2)`` to a key."""
        q, K, N = self.ctx.q_powers[1], self.ctx.K, self.ctx.N
        for key, c in list(main.items()):
            e, h = divmod(key % self.S, N + 1)
            for k in range(1, min(K - e, N - h) + 1):
                tk = key + k * (N + 2)
                main[tk] = main.get(tk, 0) + c * t**k * q[0, 0, k, k]
        return main

    def element(self, state: dict) -> DElement:
        powers, mons, S, N1 = self.ctx.powers, self.mons, self.S, self.ctx.N + 1
        terms: EDict = {}
        for key, c in state.items():
            mid, r = divmod(key, S)
            e, h = divmod(r, N1)
            terms.setdefault(mons[mid], {})[(e, h)] = Fraction(c, powers[h])
        return DElement(self.caps, terms, _trusted=True)


_TABLES: dict[tuple[int, int], _WalkTables] = {}

# The cold time and peak memory of a walk about double with each hbar order
# and grow at most linearly with the eps order, so the cost ``(K+1) * 2**N``
# tracks both.  Cold 5_7, one fresh process per run, on a loaded shared
# 2-vCPU host: (1,8) 3.4-4.6 s and 68 MiB peak RSS, (1,9) 4.4-7.7 s and
# 122 MiB, (1,10) 11.5-15.0 s and 230 MiB.  The limit is the cost of
# (1,10), the largest caps the acceptance checks may reach; a diagram with
# more crossings costs more at the same caps.
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


def _deposit(targets: list, main: dict, N: int) -> None:
    """Add ``dep * main`` into ``acc`` for each ``(low, dep, acc)`` of
    ``targets``, all as packed integer terms.  ``targets`` are sorted by
    ``low``, the lowest h-degree of ``dep``, so a state term's scan stops at
    the first deposit it cannot reach; each deposit it reaches has a row
    under the term's own key whose terms are the product keys already."""
    for key, mc in main.items():
        reach = N - key % (N + 1)
        for low, dep, acc in targets:
            if low > reach:
                break
            row = dep.rows.get(key)
            if row is None:
                row = dep.cut(key)
            it = iter(row)
            for k, c in zip(it, it):
                acc[k] = acc.get(k, 0) + mc * c


def _nonzero(acc: dict) -> dict:
    """``acc`` without its zero terms; copied only if it has one."""
    return {key: c for key, c in acc.items() if c} if 0 in acc.values() else acc


def evaluate_Z(d: RotDecomp, caps: Caps) -> InvariantValue:
    """Universal invariant of the decomposition at the given caps.

    Raises :class:`CapsTooCostly`, before any table is filled, for caps
    whose ``(eps_order + 1) * 2**hbar_order`` is past
    :data:`CAPS_COST_LIMIT`.
    """
    tables = _walk_tables(caps)
    N = caps.hbar_order
    # state: pending monomials, in the order their crossings opened -> main
    # element, the latter as {key of (monomial, e, h): coefficient * L**h}
    states: dict[tuple, dict] = {(): {tables.key(UNIT_MON, 0, 0): 1}}
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
            crossing = tables.crossing[sign, over_first]
            for pending, main in states.items():
                # a crossing term of h-degree low reaches only the state terms
                # of h-degree at most N - low
                reach = N - min(key % (N + 1) for key in main)
                targets = [
                    (low, dep, new_states.setdefault(pending + (pend,), {}))
                    for low, dep, pend in crossing
                    if low <= reach
                ]
                _deposit(targets, main, N)
        else:  # close
            slot = step[1]
            for pending, main in states.items():
                rest = pending[:slot] + pending[slot + 1:]
                dep = tables.monomial(pending[slot])
                _deposit([(0, dep, new_states.setdefault(rest, {}))], main, N)
        states = {}
        for pending, acc in new_states.items():
            main = _nonzero(acc)
            if main:
                states[pending] = main

    main = states.get((), {})
    for _ in range(abs(rotation)):
        _deposit([(0, tables.rotation[1 if rotation > 0 else -1], acc := {})], main, N)
        main = _nonzero(acc)
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
