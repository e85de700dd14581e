"""Slow, independent reference for the rewriting tables (test-only).

This is the original ``Fraction`` rewriting of ``knotoidal.algebra._Context``:
the same recursion for ``x * mon`` and for monomial products, on
``{(e, h): Fraction}`` series with no scale, and the slotwise tensor product
on top of it.  The property tests require the integer tables, divided by
``L**h``, to equal it term for term, and ``tests/invariant_reference.py``
walks on it, so that the reference walk shares no table with the package.
It also holds :func:`yang_baxter_holds`, a check on the package's own
tensor product that only the tests run.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial

from knotoidal.algebra import UNIT_MON, EDict, Mon, _tensor_mul, get_context, r_matrix
from knotoidal.series import Caps, ScalarSeries, _sadd_into, _smul


def _eadd_into(dst: EDict, src: EDict, scal, K: int, N: int) -> None:
    for mon, sd in src.items():
        inc = _smul(sd, scal, K, N)
        if inc:
            cur = dst.setdefault(mon, {})
            _sadd_into(cur, inc)
            if not cur:
                del dst[mon]


def shifted_ba(j: int, k: int, shift: int, K: int):
    """Terms ``(b_exp, a_exp, eps_extra, coeff)`` of (b - eps*shift)^j (a - shift)^k."""
    out = []
    for t in range(j + 1):
        e_extra = j - t
        if e_extra > K:
            continue
        for s in range(k + 1):
            coeff = Fraction(comb(j, t) * comb(k, s)) * (-shift) ** (e_extra + k - s)
            if coeff:
                out.append((t, s, e_extra, coeff))
    return out


def relation_tail(K: int, N: int) -> EDict:
    """(1 - exp(-eps*hbar*a - hbar*b)) / hbar in normal form."""
    out: EDict = {}
    for r in range(1, N + 2):
        for s in range(min(r, K) + 1):
            coeff = Fraction(-((-1) ** r) * comb(r, s), factorial(r))
            out.setdefault((0, r - s, s, 0), {})[(s, r - 1)] = coeff
    return out


class FractionContext:
    """Memoized rewriting on exact ``Fraction`` series, one per caps."""

    def __init__(self, K: int, N: int):
        self.K = K
        self.N = N
        self.q = ScalarSeries.term(Caps(K, N), 1, 1, 1).exp().coeffs
        self.tail = relation_tail(K, N)
        self.left_x: dict[Mon, EDict] = {}
        self.mul: dict[tuple[Mon, Mon], EDict] = {}

    def left_x_mon(self, mon: Mon) -> EDict:
        """x * mon in normal form."""
        hit = self.left_x.get(mon)
        if hit is not None:
            return hit
        i, j, k, l = mon
        out: EDict = {}
        if i == 0:
            for t, s, e_extra, coeff in shifted_ba(j, k, 1, self.K):
                out.setdefault((0, t, s, l + 1), {})[(e_extra, 0)] = coeff
        else:
            rest = (i - 1, j, k, l)
            # x*y = q*y*x + tail, applied to x*(y*rest)
            lifted = {(m[0] + 1, m[1], m[2], m[3]): sd for m, sd in self.left_x_mon(rest).items()}
            _eadd_into(out, lifted, self.q, self.K, self.N)
            for tmon, tsd in self.tail.items():
                _eadd_into(out, self.mon_mul(tmon, rest), tsd, self.K, self.N)
        self.left_x[mon] = out
        return out

    def mon_mul(self, m1: Mon, m2: Mon) -> EDict:
        """m1 * m2 in normal form."""
        key = (m1, m2)
        hit = self.mul.get(key)
        if hit is not None:
            return hit
        i1, j1, k1, l1 = m1
        i2, j2, k2, l2 = m2
        out: EDict = {}
        if l1 == 0:
            for t, s, e_extra, coeff in shifted_ba(j1, k1, i2, self.K):
                _sadd_into(out.setdefault((i1 + i2, t + j2, s + k2, l2), {}), {(e_extra, 0): coeff})
        elif i2 == 0:
            for t, s, e_extra, coeff in shifted_ba(j2, k2, l1, self.K):
                _sadd_into(out.setdefault((i1, j1 + t, k1 + s, l1 + l2), {}), {(e_extra, 0): coeff})
        else:
            cur: EDict = {m2: {(0, 0): Fraction(1)}}
            for _ in range(l1):
                nxt: EDict = {}
                for mon, sd in cur.items():
                    _eadd_into(nxt, self.left_x_mon(mon), sd, self.K, self.N)
                cur = nxt
            head = (i1, j1, k1, 0)
            for mon, sd in cur.items():
                _eadd_into(out, self.mon_mul(head, mon), sd, self.K, self.N)
        out = {m: sd for m, sd in out.items() if sd}
        self.mul[key] = out
        return out

    def elem_mul(self, e1: EDict, e2: EDict) -> EDict:
        out: EDict = {}
        for m1, s1 in e1.items():
            for m2, s2 in e2.items():
                _eadd_into(out, self.mon_mul(m1, m2), _smul(s1, s2, self.K, self.N), self.K, self.N)
        return out

    def tensor_mul(self, a: dict, b: dict) -> dict:
        """Slotwise product of two elements keyed by tuples of monomials."""
        out: dict = {}
        for ka, sa in a.items():
            for kb, sb in b.items():
                partial = {(): _smul(sa, sb, self.K, self.N)}
                for ma, mb in zip(ka, kb):
                    nxt: dict = {}
                    for key, sd in partial.items():
                        prod = self.mon_mul(ma, mb)
                        _eadd_into(nxt, {key + (m,): s for m, s in prod.items()}, sd, self.K, self.N)
                    partial = nxt
                _eadd_into(out, partial, {(0, 0): Fraction(1)}, self.K, self.N)
        return out


@cache
def reference_context(caps: Caps) -> FractionContext:
    return FractionContext(caps.eps_order, caps.hbar_order)


def reference_r_inverse(caps: Caps) -> dict:
    """R^-1 as the geometric series in R - 1 (x) 1, on the reference tables."""
    ctx = reference_context(caps)
    unit = {(UNIT_MON, UNIT_MON): {(0, 0): Fraction(1)}}
    pert = {pair: dict(sd) for pair, sd in r_matrix(caps).raw().items()}
    _eadd_into(pert, unit, {(0, 0): Fraction(-1)}, ctx.K, ctx.N)
    out, power = {pair: dict(sd) for pair, sd in unit.items()}, unit
    for n in range(1, caps.hbar_order + 1):
        power = ctx.tensor_mul(power, pert)
        _eadd_into(out, power, {(0, 0): Fraction((-1) ** n)}, ctx.K, ctx.N)
    return out


def yang_baxter_holds(caps: Caps) -> bool:
    """Check R12 R13 R23 = R23 R13 R12 in the truncated triple tensor algebra."""
    ctx = get_context(caps)
    rmat = r_matrix(caps).raw()

    def place(positions):
        out = {}
        for (m1, m2), sd in rmat.items():
            key = [UNIT_MON, UNIT_MON, UNIT_MON]
            key[positions[0]] = m1
            key[positions[1]] = m2
            out[tuple(key)] = dict(sd)
        return out

    r12, r13, r23 = place((0, 1)), place((0, 2)), place((1, 2))
    lhs = _tensor_mul(_tensor_mul(r12, r13, ctx), r23, ctx)
    rhs = _tensor_mul(_tensor_mul(r23, r13, ctx), r12, ctx)
    return lhs == rhs
