"""Evaluation of the universal invariant of a biframed planar knotoid.

The input is a rotational tangle decomposition: the strand is walked through
its labeled segments in ascending order, every crossing deposits the two
tensor factors of the (inverse) quasitriangular structure on its over- and
under-segment, and the deposits are multiplied together in walk order, each
new one on the left of the running product.  :func:`evaluate_Z` reads a
decomposition only through its key :meth:`RotDecomp.key`: its skeleton of
open and close steps, each crossing's net rotation rho between its two
labels, and the net rotation r of the walk; :func:`_scaled_walk` walks that
key.  A crossing's second factor waits, as a monomial in a tuple
kept in opening order, from its open to its close.  A rotation deposits
nothing where it stands: with w the y minus the x exponent, ``rot_s * M =
q**(-s*w(M)) * M * rot_s``, and R and R^-1 have w(over) + w(under) = 0, so
the rotations inside a crossing's span make the central twist ``q**(w(P) *
rho)`` while its P is pending.  Each crossing twists the states once, where
:func:`_twist_plan` puts it, and r is deposited, |r| times, after the walk.

:func:`_reduce_key` makes a shorter key with the same element by two local
identities of the algebra: a curl whose rho is that of a planar curl has a
central segment element, one per sign, the two inverse to each other; and a
bigon of opposite crossings whose rhos match deposits only rotations, as an
element of the tensor square.  ``zmean`` reduces and evaluates keys;
:func:`evaluate_Z` itself reduces nothing and is the oracle the reducer is
checked against.

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
integer arithmetic, each once, to the degrees its read reaches.  Scaled
terms stay scaled under products because ``L**a * L**b == L**(a+b)``, so a
walk step is one integer multiply-add per product term, neither the walk
nor the fill takes a gcd, and the result is divided back to
``Fraction(c, L**h)`` once, at the end, by :meth:`_Context.unscaled`.
Scaling a coefficient that is not integral raises
:class:`NonIntegralScale`; nothing is ever rounded.

A key is one int, ``id(mon) * S + e * (N+1) + h`` with ``S = (K+1)(N+1)``
and ``id`` the monomial's index in :class:`_WalkTables`.  While ``e <= K``
and ``h <= N`` the fields do not carry, so a product term's key is a row
term's key plus the state term's ``e * (N+1) + h``.  Each deposit keeps,
under a state term's own key, its row cut to the terms that state term
reaches, with that sum already added, so a walk step adds into the product
keys as they stand: no decode, no degree test, no key add, and no tuple is
built or hashed.  Keys are decoded back to monomials only when the result
is built.  The terms of R (or R^-1) at one kind of crossing but ``1 (x) 1``
are one deposit, their scalars folded into its rows, each term tagged with
the index g of its pending monomial among the kind's distinct ones, and a
row is split by tag: it holds, for each tag it reaches, that tag's own
flat terms.  So an open step reads one row per state term for all those
terms and adds each tag's products straight into that tag's child: it
builds only the children that receive terms and makes no split pass.
Every other term of R and R^-1 has two factors that are not the unit, so
the unit branch moves by reference: an open's child of tag 0, whose
pending monomial is the unit, is the parent's own main element, and a
close of a unit pending monomial moves the main element to its new state
as it is, unless that state already has one to add into.  Each main
element has one owner, so a twist may change it in place.  The pending
monomials of a state are their ids too, so a state's key is a tuple of
small ints, which the twist reads ``w`` from and a close finds its
deposit by.

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
from .diagram import RotDecomp, walk_key
from .errors import CapsTooCostly, DegreeOutOfRange, InvalidArgument
from .series import Caps, _smul, require_same_caps


@dataclass(frozen=True)
class InvariantValue:
    """A computed invariant: normal-form element plus input fingerprint."""

    element: DElement
    fingerprint: str

    @property
    def caps(self) -> Caps:
        return self.element.caps

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
    """Per-sign crossing terms: lists of (over_mon, under_mon, scalar).

    The over-strand receives the first tensor factor of the (inverse)
    quasitriangular structure.
    """
    return {
        sign: [(m1, m2, sd) for (m1, m2), sd in tensor.raw().items()]
        for sign, tensor in ((1, r_matrix(caps)), (-1, r_inverse(caps)))
    }


_UNIT_SD = {(0, 0): 1}
# the id of the unit monomial in every _WalkTables
_UNIT_ID = 0


class _Deposit:
    """An element the walk multiplies onto the left of the running product.

    The element is a sum of parts ``scalar * D``, D a monomial, each part
    tagged with a g in ``range(tags)``.  ``rows`` maps the packed key ``i *
    S + e * (N+1) + h`` of a state term to its row: the element times the
    monomial of id ``i``, in normal form, cut to the terms (pe, ph) the
    state term reaches, ``ph <= N - h`` and ``pe <= K - e``, split by tag:
    for each tag whose parts leave a term, one flat tuple ``terms`` of
    integer terms ``k, c * L**ph``, ``k`` the packed ``(monomial, e + pe, h
    + ph)`` of a product term, parts of one tag summed, so that every term
    is a product term of its tag as it stands.  A crossing kind is one
    deposit holding every term of R or R^-1 but ``1 (x) 1``, tagged by its
    pending monomial, and its row is a tuple of ``(g, terms)``, g
    ascending; a close step's monomial and a rotation element have one tag,
    and a row of theirs is that tag's ``terms`` alone.

    :meth:`fill` makes a row at e = 0: a part of lowest scalar h-degree
    d <= N - h adds its scalar times :meth:`_Context.product` of D and the
    monomial, read to ``hbar^(N - h - d)``; a part with d > N - h adds
    nothing.  The product is read once per row for all parts of D, to the
    least d among them, and a larger d is truncated by the scalar product.
    Each tag's terms are sorted by h.  :meth:`cut` makes every other row on
    its first read, from the row at e = 0 of the same monomial at the least
    ``h0 <= h`` made so far, filled at h if there is none: its terms with
    ``ph <= N - h`` and ``pe <= K - e``, tag by tag in the same order, each
    key shifted by ``e * (N+1) + h - h0``.  No row is ever replaced, and the
    rows are the only memo of the walk's products.  A term past the caps
    would carry out of a field of its key into the next, so both raise
    :class:`DegreeOutOfRange` for one rather than go on with a wrong key.
    """

    __slots__ = ("tables", "parts", "lows", "tags", "rows")

    def __init__(self, tables: _WalkTables, parts, tags: int = 1):
        """``parts`` are ``(D, scalar, g)``, the scalar an exact series."""
        self.tables = tables
        self.parts, self.lows = [], {}
        for mon, sd, g in parts:
            d = min(h for _, h in sd)
            self.parts.append((mon, tables.ctx.scaled(sd), d, g))
            self.lows[mon] = min(d, self.lows.get(mon, d))
        self.tags = tags
        self.rows: dict[int, tuple] = {}

    def fill(self, key: int) -> tuple:
        """Fill the row under ``key``, the key of a state term at e = 0."""
        tables = self.tables
        ctx, S, ids = tables.ctx, tables.S, tables.ids
        K, N = ctx.K, ctx.N
        mid, h = divmod(key, S)
        mon, reach = tables.mons[mid], N - h
        products: dict[Mon, EDict] = {}
        accs: dict[int, dict[int, int]] = {}
        for dmon, dsd, d, g in self.parts:
            if d > reach:
                continue
            product = products.get(dmon)
            if product is None:
                product = products[dmon] = ctx.product(dmon, mon, reach - self.lows[dmon])
            unit = dsd == _UNIT_SD
            acc = accs.get(g)
            if acc is None:
                acc = accs[g] = {}
            for pmon, psd in product.items():
                if not unit:
                    # looked up in this module, where perfbench/layers.py counts it
                    psd = _smul(dsd, psd, K, reach)
                pid = ids.get(pmon)
                base = tables.key(pmon, 0, h) if pid is None else pid * S + h
                for (e, ph), c in psd.items():
                    if h + ph > N or e > K:
                        raise DegreeOutOfRange(f"row term (e, h) = ({e}, {h + ph}) is past the caps")
                    k = base + e * (N + 1) + ph
                    acc[k] = acc.get(k, 0) + c
        split = []
        for g in sorted(accs):
            terms = sorted((k % (N + 1), k, c) for k, c in accs[g].items() if c)
            if terms:
                split.append((g, tuple(chain.from_iterable((k, c) for _, k, c in terms))))
        row = self.rows[key] = self._row(split)
        return row

    def cut(self, key: int) -> tuple:
        """Make the row under ``key``, read for the first time."""
        tables = self.tables
        rows, S, N1 = self.rows, tables.S, tables.ctx.N + 1
        mid, r = divmod(key, S)
        e, h = divmod(r, N1)
        base = mid * S
        for h0 in range(h + 1):
            row = rows.get(base + h0)
            if row is not None:
                break
        else:
            h0, row = h, self.fill(base + h)
        if h0 == h and not e:
            return row
        top, emax, shift = N1 - 1 - h + h0, tables.ctx.K - e, r - h0
        cut = []
        for g, terms in row if self.tags > 1 else [(0, row)]:
            kept = []
            it = iter(terms)
            for k, c in zip(it, it):
                if k % N1 > top:
                    break
                if k % S // N1 <= emax:
                    # a term past the caps would carry out of a field of its
                    # key and leave that field below the state term's own
                    k += shift
                    if k % N1 < h or k % S // N1 < e:
                        raise DegreeOutOfRange(f"cut row term of key {key} is past the caps")
                    kept += (k, c)
            if kept:
                cut.append((g, tuple(kept)))
        row = rows[key] = self._row(cut)
        return row

    def _row(self, split: list) -> tuple:
        """The row of ``split``, its ``(g, terms)`` in ascending g: as it is
        for a deposit of more than one tag, else the terms alone."""
        if self.tags > 1:
            return tuple(split)
        return split[0][1] if split else ()

    def children(self, main: dict) -> dict[int, dict]:
        """This element times ``main`` as ``{g: child}``, each tag's packed
        integer terms added straight into that tag's child, which is made
        on its tag's first term.  Each state term reads the row under its
        own key, whose terms are the product keys already."""
        rows, kids = self.rows, {}
        for key, mc in main.items():
            row = rows.get(key)
            if row is None:
                row = self.cut(key)
            for g, terms in row:
                acc = kids.get(g)
                if acc is None:
                    acc = kids[g] = {}
                it = iter(terms)
                for k, c in zip(it, it):
                    acc[k] = acc.get(k, 0) + mc * c
        return kids

    def times(self, main: dict, acc: dict) -> None:
        """Add this element of one tag times ``main`` into ``acc``, as
        :meth:`children` adds into the child of a tag."""
        rows = self.rows
        for key, mc in main.items():
            row = rows.get(key)
            if row is None:
                row = self.cut(key)
            it = iter(row)
            for k, c in zip(it, it):
                acc[k] = acc.get(k, 0) + mc * c


class _WalkTables:
    """Per-caps deposits of the walk, and the monomial ids of its keys.

    ``mons[i]`` is the monomial of id i, given when a row or a crossing kind
    first holds it, the unit first, as id :data:`_UNIT_ID`; ``w[i]`` is its
    y minus its x exponent.  A key is ``i * S + e * (N+1) + h`` with ``S =
    (K+1)(N+1)``, and a deposit keeps each row under the key of the state
    term that reads it.  A state's pending monomials are ids as well.
    ``monomials`` holds the bare monomial deposits the close steps deposit,
    by id.  ``crossing[sign, over_first]`` is ``(deposit, pending)`` for R
    (sign 1) or R^-1 (sign -1): ``pending`` lists the ids of the unit and
    then of the distinct factors that wait, and ``deposit`` holds the
    factor the walk multiplies on now of every term but ``1 (x) 1``, with
    its scalar folded in, tagged by the index of its waiting factor in
    ``pending``; no part has tag 0, the unit's, whose child the walk takes
    by reference.  There is no rotation deposit in the walk:
    :func:`evaluate_Z` reads a decomposition only through its key,
    twists each crossing once by ``q**(w(P) * rho)``, and deposits a whole
    rotation element on the final state alone.
    """

    def __init__(self, caps: Caps):
        self.caps = caps
        self.ctx = get_context(caps)
        K, N = caps.eps_order, caps.hbar_order
        self.S = (K + 1) * (N + 1)
        # the highest power of q's eps*hbar a term at ``e * (N+1) + h`` takes
        self.reach = [min(K - e, N - h) for e in range(K + 1) for h in range(N + 1)]
        self.ids: dict[Mon, int] = {UNIT_MON: _UNIT_ID}
        self.mons: list[Mon] = [UNIT_MON]
        self.w: list[int] = [0]
        self.monomials: dict[int, _Deposit] = {}
        self.rotation = {
            s: _Deposit(self, [(mon, sd, 0) for mon, sd in rotation_element(s, caps).raw().items()])
            for s in (1, -1)
        }
        self.crossing = {}
        for sign, terms in _crossing_terms(caps).items():
            terms.remove((UNIT_MON, UNIT_MON, _UNIT_SD))
            for over_first in (True, False):
                split = [(over, under, sd) if over_first else (under, over, sd) for over, under, sd in terms]
                pending = (UNIT_MON, *dict.fromkeys(pend for _, pend, _ in split))
                tag = {pend: g for g, pend in enumerate(pending)}
                parts = [(now, sd, tag[pend]) for now, pend, sd in split]
                # the id of a monomial is its key at e = h = 0 over S
                ids = tuple(self.key(pend, 0, 0) // self.S for pend in pending)
                self.crossing[sign, over_first] = (_Deposit(self, parts, len(pending)), ids)

    def key(self, mon: Mon, e: int, h: int) -> int:
        mid = self.ids.get(mon)
        if mid is None:
            mid = self.ids[mon] = len(self.mons)
            self.mons.append(mon)
            self.w.append(mon[0] - mon[3])
        return mid * self.S + e * (self.ctx.N + 1) + h

    def monomial(self, mid: int) -> _Deposit:
        dep = self.monomials.get(mid)
        if dep is None:
            dep = self.monomials[mid] = _Deposit(self, [(self.mons[mid], _UNIT_SD, 0)])
        return dep

    def twist(self, main: dict, t: int) -> None:
        """``q**t * main`` in place; ``q`` holds ``L**k / k!`` at (eps*hbar)^k,
        which adds ``k * (N+2)`` to a key."""
        q, S, N2, reach = self.ctx.q, self.S, self.ctx.N + 2, self.reach
        for key, c in list(main.items()):
            for k in range(1, reach[key % S] + 1):
                tk = key + k * N2
                if new := main.get(tk, 0) + c * t**k * q[0, 0, k, k]:
                    main[tk] = new
                else:
                    del main[tk]

    def terms(self, state: dict) -> EDict:
        """The exact terms of the scaled ``state``, a zero term kept as 0."""
        mons, S, N1 = self.mons, self.S, self.ctx.N + 1
        terms: EDict = {}
        for key, c in state.items():
            mid, r = divmod(key, S)
            e, h = divmod(r, N1)
            terms.setdefault(mons[mid], {})[(e, h)] = c
        return self.ctx.unscaled(terms)


_TABLES: dict[tuple[int, int], _WalkTables] = {}

# The cold time and peak memory of a walk about double with each hbar order
# and grow at most linearly with the eps order, so the cost ``(K+1) * 2**N``
# tracks both.  Cold 5_7, one fresh process per run, on a shared 2-vCPU
# host: (1,8) 1.6-2.4 s and 54 MiB peak RSS, (1,9) 4.2-4.5 s and 91-92 MiB,
# (1,10) 8.6-9.2 s and 166 MiB.  The limit is the cost of
# (1,10), the largest caps the acceptance checks may reach; a diagram with
# more crossings costs more at the same caps.
CAPS_COST_LIMIT = 2048


def _check_cost(caps: Caps) -> None:
    """Raise :class:`CapsTooCostly` for caps past :data:`CAPS_COST_LIMIT`.

    An eps order of ``2**64`` or more, or an hbar order of 64 or more, is
    past the limit whatever the other order is.  The cost of such caps is
    not built, and an order of ``2**64`` or more is written as its bit
    length: ``2**hbar`` takes seconds to build from hbar ~ 1e8, and ``str``
    refuses an int of more than 4300 digits.
    """
    eps, hbar = caps.eps_order, caps.hbar_order
    small = eps < 2**64 and hbar < 64
    if small and (eps + 1) << hbar <= CAPS_COST_LIMIT:
        return
    orders = [n if n < 2**64 else f"{n.bit_length()} bits" for n in (eps, hbar)]
    cost = f"= {(eps + 1) << hbar}" if small else ">= 2^64"
    raise CapsTooCostly(
        f"caps (eps {orders[0]}, hbar {orders[1]}) cost (eps+1)*2^hbar {cost},"
        f" past the limit {CAPS_COST_LIMIT} of caps (1,10)"
    )


def _walk_tables(caps: Caps) -> _WalkTables:
    key = (caps.eps_order, caps.hbar_order)
    tables = _TABLES.get(key)
    if tables is None:
        _check_cost(caps)
        tables = _TABLES[key] = _WalkTables(caps)
    return tables


def _twist_plan(skeleton: tuple, rhos: tuple) -> dict[int, list]:
    """Where the walk twists: step index -> ``[(slot, rho)]``.

    Each crossing whose net rotation rho (from ``rhos``, in close order) is
    not 0 is twisted once, by ``q**(w(P) * rho)``, before the first step of
    its span, after its open up to its close, at which the fewest crossings
    are pending.  Fewer crossings pending means fewer states to twist.
    """
    plan: dict[int, list] = {}
    spans: list[list] = []  # per pending crossing: fewest pending so far, at (step, slot)
    closes = iter(rhos)
    for i, step in enumerate(skeleton):
        for slot, span in enumerate(spans):
            if len(spans) < span[0]:
                span[:] = len(spans), i, slot
        if step[0] == "open":
            # its span starts at the next step, with it pending in the last slot
            spans.append([len(spans) + 1, i + 1, len(spans)])
        else:
            _, at, slot = spans.pop(step[1])
            rho = next(closes)
            if rho:
                plan.setdefault(at, []).append((slot, rho))
    return plan


def _reduce_key(key: tuple) -> tuple:
    """A ``(code, rho, r)`` key with fewer crossings and the same element.

    Write ``rho*(s, f) = -s if f else s`` for a crossing of sign s whose
    first pass is its over-pass iff f: the net rotation of a planar curl.
    Two moves are repeated, the first one along the skeleton each time,
    until neither applies; both are identities of the algebra, so they hold
    for any key, realizable or not:

    - *Curl.* An open followed at once by its own close, with ``rho ==
      rho*``.  Its segment element is then central, and equal to one
      ``C_s`` per sign whichever f, with ``C_+ C_- = 1``.  Deleting it
      subtracts rho* from r and from the rho of every crossing whose span
      contains it.
    - *Bigon.* Two adjacent opens of kinds (s, f) and (-s, f) whose closes
      are adjacent too.  If the closes come in opening order and ``rho_1 ==
      rho_2``, or in reverse order and ``rho_1 - rho_2 == rho*`` of the
      first open, the four deposits are rotations only, ``rot^tA (x)
      rot^tB`` in the tensor square, and the two crossings are deleted;
      nothing else changes.

    The deleted curls, n with sign + less those with sign -, are central
    and put back as |n| canonical curls ``open(sgn n, True), close(0)`` at
    the front, each with rho = -sgn n, and r gains -n.
    """
    skeleton, rhos, r = key
    # passes as (crossing, opens), crossings numbered in opening order
    passes, kinds, rho, pending = [], [], {}, []
    closes = iter(rhos)
    for step in skeleton:
        if step[0] == "open":
            pending.append(len(kinds))
            kinds.append(step[1:])
            passes.append((pending[-1], True))
        else:
            c = pending.pop(step[1])
            rho[c] = next(closes)
            passes.append((c, False))
    curls = 0
    while True:
        at = {p: k for k, p in enumerate(passes)}
        for k, (c, opens) in enumerate(passes[:-1]):
            if not opens:
                continue
            s, f = kinds[c]
            star = -s if f else s
            d, next_opens = passes[k + 1]
            if d == c:
                if rho[c] == star:
                    curls += s
                    r -= star
                    for e, e_opens in passes[:k]:
                        if e_opens and at[e, False] > k:
                            rho[e] -= star
                    drop = (k, k)
                    break
            elif next_opens and kinds[d] == (-s, f):
                i, j = at[c, False], at[d, False]
                if abs(i - j) == 1 and (rho[c] == rho[d] if i < j else rho[c] - rho[d] == star):
                    drop = (min(i, j), min(i, j), k, k)
                    break
        else:
            break
        for k in drop:
            del passes[k]
    # re-encoded with mark 0 at each open and rho at each close, curls first
    sign = 1 if curls > 0 else -1
    marked = [(-n, sign, True, mark) for n in range(1, abs(curls) + 1) for mark in (0, -sign)]
    marked += [(c, *kinds[c], 0 if opens else rho[c]) for c, opens in passes]
    return walk_key(marked, r - curls)


def evaluate_Z(d: RotDecomp, caps: Caps) -> InvariantValue:
    """Universal invariant of the decomposition's key at the given caps.

    Raises :class:`InvalidArgument` for caps that are not a :class:`Caps`
    or a decomposition that is not a :class:`RotDecomp`, and
    :class:`CapsTooCostly` for caps whose ``(eps_order + 1) *
    2**hbar_order`` is past :data:`CAPS_COST_LIMIT`, before any table is
    filled.
    """
    for arg, kind in ((caps, Caps), (d, RotDecomp)):
        if not isinstance(arg, kind):
            raise InvalidArgument(f"evaluate_Z needs a {kind.__name__}, got {arg!r}")
    element = _evaluate_key(d.key(), caps)
    return InvariantValue(element, _decomposition_fingerprint(d, caps))


def _evaluate_key(key: tuple, caps: Caps) -> DElement:
    """The element of every walk whose ``(code, rho, r)`` key is ``key``."""
    return DElement(caps, _walk_tables(caps).terms(_scaled_walk(key, caps)))


def _scaled_walk(key: tuple, caps: Caps) -> dict:
    """The final state of the walk of ``key``: ``{packed key of (monomial,
    e, h): c * L**h}``, no term zero."""
    skeleton, rhos, rotation = key
    tables = _walk_tables(caps)
    # state: ids of the pending monomials, in the order their crossings
    # opened -> main element, as {key of (monomial, e, h): coefficient * L**h}
    states: dict[tuple, dict] = {(): {tables.key(UNIT_MON, 0, 0): 1}}
    plan = _twist_plan(skeleton, rhos)
    w = tables.w

    for i, step in enumerate(skeleton):
        twists = plan.get(i)
        if twists:
            for pending, main in states.items():
                t = 0
                for slot, rho in twists:
                    t += rho * w[pending[slot]]
                if t:
                    tables.twist(main, t)
        if step[0] == "open":
            # one read of each state term for all the crossing's terms but
            # 1 (x) 1, each tag's products in its own child, zeros dropped;
            # the unit's child, first, is the parent's main
            dep, pends = tables.crossing[step[1], step[2]]
            new_states = {}
            for pending, main in states.items():
                new_states[pending + (_UNIT_ID,)] = main
                for g, kid in dep.children(main).items():
                    if 0 in kid.values():
                        kid = {key: c for key, c in kid.items() if c}
                        if not kid:
                            continue
                    new_states[pending + (pends[g],)] = kid
            states = new_states
            continue
        slot = step[1]
        new_states = {}
        for pending, main in states.items():
            rest = pending[:slot] + pending[slot + 1:]
            acc = new_states.get(rest)
            if acc is None:
                # closing the unit pending monomial is the identity
                if pending[slot] == _UNIT_ID:
                    new_states[rest] = main
                    continue
                acc = new_states[rest] = {}
            tables.monomial(pending[slot]).times(main, acc)
        states = {}
        for pending, acc in new_states.items():
            if 0 in acc.values():
                acc = {key: c for key, c in acc.items() if c}
            if acc:
                states[pending] = acc

    main = states.get((), {})
    for _ in range(abs(rotation)):
        tables.rotation[1 if rotation > 0 else -1].times(main, acc := {})
        main = {key: c for key, c in acc.items() if c}
    return main


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
    require_same_caps(a, b)
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
