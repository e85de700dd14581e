"""Exact truncated arithmetic in the ribbon Hopf algebra behind the invariant.

The algebra is generated by ``y, b, a, x`` over the truncated coefficient ring
of :mod:`knotoidal.series`, subject to

    x*y = q*y*x + (1 - exp(-eps*hbar*a - hbar*b)) / hbar,      q = exp(eps*hbar)
    [a, x] = x,   [b, x] = eps*x,   [a, y] = -y,   [b, y] = -eps*y,   [a, b] = 0.

Every element is kept in the normal form spanned by the ordered monomials
``y^i b^j a^k x^l`` (the order mirrors the factor shapes of the quasitriangular
structure, which keeps its terms already normal-ordered).  Division by hbar in
the defining relation is performed symbolically: the exponential is expanded,
the constant term cancels identically, and no negative powers ever arise.
h-degrees and e-degrees never decrease under rewriting, so truncated products
are exact truncations of the full products.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial

from .errors import CapsMismatch, DegreeOutOfRange
from .series import (
    Caps,
    ScalarSeries,
    SDict,
    _sadd_into,
    _smul,
    _sscale,
    q_factorial,
)

Mon = tuple[int, int, int, int]  # exponents of y^i b^j a^k x^l
EDict = dict[Mon, SDict]

UNIT_MON: Mon = (0, 0, 0, 0)

GENERATOR_INDEX = {"y": 0, "b": 1, "a": 2, "x": 3}

_ONE_SD: SDict = {(0, 0): Fraction(1)}


# ---------------------------------------------------------------------------
# raw element helpers

def _eadd_into(dst: EDict, src: EDict, scal: SDict | None = None, K: int = 0, N: int = 0) -> None:
    for mon, sd in src.items():
        inc = sd if scal is None else _smul(sd, scal, K, N)
        if not inc:
            continue
        cur = dst.get(mon)
        if cur is None:
            dst[mon] = dict(inc)
        else:
            _sadd_into(cur, inc)
            if not cur:
                del dst[mon]


@cache
def _shifted_ba(j: int, k: int, shift: int, K: int):
    """Expansion of b^j a^k y^s (or x^s b^j a^k) commutation shifts.

    Returns the terms of (b - eps*shift)^j (a - shift)^k as a list of
    ``(b_exp, a_exp, eps_extra, coeff)``.
    """
    out = []
    for t in range(j + 1):
        e_extra = j - t
        if e_extra > K:
            continue
        cb = Fraction(comb(j, t) * (-shift) ** e_extra)
        if not cb:
            continue
        for s in range(k + 1):
            ca = Fraction(comb(k, s) * (-shift) ** (k - s))
            if not ca:
                continue
            out.append((t, s, e_extra, cb * ca))
    return out


def _exp_ab_raw(ca: Fraction, cb: Fraction, K: int, N: int) -> EDict:
    """exp(ca*eps*hbar*a + cb*hbar*b) as a raw element (a, b commute)."""
    out: EDict = {}
    for r in range(N + 1):
        base = Fraction(1, factorial(r))
        for s in range(min(r, K) + 1):
            coeff = base * comb(r, s) * ca**s * cb ** (r - s)
            if not coeff:
                continue
            mon = (0, r - s, s, 0)
            out.setdefault(mon, {})[(s, r)] = (
                out.get(mon, {}).get((s, r), Fraction(0)) + coeff
            )
    return {m: {k: v for k, v in sd.items() if v} for m, sd in out.items() if sd}


def _relation_tail(K: int, N: int) -> EDict:
    """(1 - exp(-eps*hbar*a - hbar*b)) / hbar in normal form."""
    out: EDict = {}
    for r in range(1, N + 2):
        base = Fraction(-((-1) ** r), factorial(r))
        for s in range(min(r, K) + 1):
            coeff = base * comb(r, s)
            mon = (0, r - s, s, 0)
            out.setdefault(mon, {})[(s, r - 1)] = coeff
    return out


class _Context:
    """Per-caps workspace holding memoized rewriting tables."""

    def __init__(self, K: int, N: int):
        self.K = K
        self.N = N
        self.q: SDict = ScalarSeries.term(Caps(K, N), 1, 1, 1).exp().coeffs
        self.tail: EDict = _relation_tail(K, N)
        self.left_x: dict[Mon, EDict] = {}
        self.mul: dict[tuple[Mon, Mon], EDict] = {}
        self.antipode_mon: dict[Mon, EDict] = {}
        self.antipode_gen_powers: dict[Mon, list[EDict]] = {}

    # -- x * mon, the only rewriting that branches

    def left_x_mon(self, mon: Mon) -> EDict:
        hit = self.left_x.get(mon)
        if hit is not None:
            return hit
        i, j, k, l = mon
        out: EDict = {}
        if i == 0:
            for t, s, e_extra, coeff in _shifted_ba(j, k, 1, self.K):
                out.setdefault((0, t, s, l + 1), {})[(e_extra, 0)] = coeff
        else:
            rest = (i - 1, j, k, l)
            # x*y = q*y*x + tail, applied to x*(y*rest)
            for m2, sd in self.left_x_mon(rest).items():
                lifted = (m2[0] + 1, m2[1], m2[2], m2[3])
                inc = _smul(sd, self.q, self.K, self.N)
                if inc:
                    cur = out.setdefault(lifted, {})
                    _sadd_into(cur, inc)
            for tmon, tsd in self.tail.items():
                prod = self.mon_mul(tmon, rest)
                _eadd_into(out, prod, tsd, self.K, self.N)
        out = {m: sd for m, sd in out.items() if sd}
        self.left_x[mon] = out
        return out

    def mon_mul(self, m1: Mon, m2: Mon) -> EDict:
        key = (m1, m2)
        hit = self.mul.get(key)
        if hit is not None:
            return hit
        i1, j1, k1, l1 = m1
        i2, j2, k2, l2 = m2
        out: EDict = {}
        if l1 == 0:
            for t, s, e_extra, coeff in _shifted_ba(j1, k1, i2, self.K):
                mon = (i1 + i2, t + j2, s + k2, l2)
                sd = out.setdefault(mon, {})
                keyd = (e_extra, 0)
                sd[keyd] = sd.get(keyd, Fraction(0)) + coeff
        elif i2 == 0:
            for t, s, e_extra, coeff in _shifted_ba(j2, k2, l1, self.K):
                mon = (i1, j1 + t, k1 + s, l1 + l2)
                sd = out.setdefault(mon, {})
                keyd = (e_extra, 0)
                sd[keyd] = sd.get(keyd, Fraction(0)) + coeff
        else:
            cur: EDict = {m2: dict(_ONE_SD)}
            for _ in range(l1):
                nxt: EDict = {}
                for mon, sd in cur.items():
                    _eadd_into(nxt, self.left_x_mon(mon), sd, self.K, self.N)
                cur = nxt
            head = (i1, j1, k1, 0)
            for mon, sd in cur.items():
                _eadd_into(out, self.mon_mul(head, mon), sd, self.K, self.N)
        out = {m: {k: v for k, v in sd.items() if v} for m, sd in out.items()}
        out = {m: sd for m, sd in out.items() if sd}
        self.mul[key] = out
        return out

    def elem_mul(self, e1: EDict, e2: EDict) -> EDict:
        out: EDict = {}
        for m1, s1 in e1.items():
            for m2, s2 in e2.items():
                scal = _smul(s1, s2, self.K, self.N)
                if scal:
                    _eadd_into(out, self.mon_mul(m1, m2), scal, self.K, self.N)
        return out

    # -- antipode -----------------------------------------------------------

    def _antipode_gen_power(self, gen: Mon, ca: int, cb: int, power: int) -> EDict:
        """``power``-th power of the antipode image
        ``-gen * exp(ca*eps*hbar*a + cb*hbar*b)`` of a single generator."""
        powers = self.antipode_gen_powers.setdefault(gen, [{UNIT_MON: dict(_ONE_SD)}])
        if len(powers) == 1 and power:
            image = self.elem_mul({gen: dict(_ONE_SD)}, _exp_ab_raw(ca, cb, self.K, self.N))
            powers.append({m: _sscale(sd, Fraction(-1)) for m, sd in image.items()})
        while len(powers) <= power:
            powers.append(self.elem_mul(powers[-1], powers[1]))
        return powers[power]

    def antipode(self, mon: Mon) -> EDict:
        """Anti-homomorphism with S(y) = -y*exp(hbar*b), S(b) = -b, S(a) = -a,
        S(x) = -x*exp(eps*hbar*a).

        The generator images are pinned by requiring compatibility with the
        defining relations and inversion of the quasitriangular structure;
        both are enforced by tests.
        """
        hit = self.antipode_mon.get(mon)
        if hit is not None:
            return hit
        i, j, k, l = mon
        out = self._antipode_gen_power((0, 0, 0, 1), 1, 0, l)
        mid: Mon = (0, j, k, 0)
        sign = Fraction((-1) ** (j + k))
        out = self.elem_mul(out, {mid: {(0, 0): sign}})
        if i:
            out = self.elem_mul(out, self._antipode_gen_power((1, 0, 0, 0), 0, 1, i))
        self.antipode_mon[mon] = out
        return out


_CONTEXTS: dict[tuple[int, int], _Context] = {}


def get_context(caps: Caps) -> _Context:
    key = (caps.eps_order, caps.hbar_order)
    ctx = _CONTEXTS.get(key)
    if ctx is None:
        ctx = _Context(*key)
        _CONTEXTS[key] = ctx
    return ctx


# ---------------------------------------------------------------------------
# public element types

def _mon_degree_key(mon: Mon):
    return (sum(mon), mon)


def render_monomial(mon: Mon) -> str:
    if mon == UNIT_MON:
        return "1"
    parts = []
    for name, exp in zip("ybax", mon):
        if exp == 1:
            parts.append(name)
        elif exp > 1:
            parts.append(f"{name}^{exp}")
    return "*".join(parts)


class DElement:
    """An algebra element in normal form: map monomial -> scalar series."""

    __slots__ = ("caps", "_terms")

    def __init__(self, caps: Caps, terms: EDict | None = None, _trusted: bool = False):
        self.caps = caps
        if _trusted:
            self._terms = terms or {}
            return
        clean: EDict = {}
        for mon, sd in (terms or {}).items():
            filtered = {
                k: Fraction(v)
                for k, v in sd.items()
                if caps.admits(*k) and Fraction(v)
            }
            if filtered:
                clean[mon] = filtered
        self._terms = clean

    # -- constructors

    @classmethod
    def zero(cls, caps: Caps) -> "DElement":
        return cls(caps, {}, _trusted=True)

    @classmethod
    def unit(cls, caps: Caps) -> "DElement":
        return cls(caps, {UNIT_MON: dict(_ONE_SD)}, _trusted=True)

    @classmethod
    def generator(cls, caps: Caps, name: str, power: int = 1) -> "DElement":
        mon = [0, 0, 0, 0]
        mon[GENERATOR_INDEX[name]] = power
        return cls(caps, {tuple(mon): dict(_ONE_SD)}, _trusted=True)

    @classmethod
    def monomial(cls, caps: Caps, mon: Mon, coeff: ScalarSeries | None = None) -> "DElement":
        sd = dict(_ONE_SD) if coeff is None else dict(coeff.coeffs)
        return cls(caps, {tuple(mon): sd})

    # -- structure

    @property
    def terms(self) -> dict[Mon, ScalarSeries]:
        return {
            mon: ScalarSeries(self.caps, dict(sd))
            for mon, sd in sorted(self._terms.items(), key=lambda kv: _mon_degree_key(kv[0]))
        }

    def raw(self) -> EDict:
        return self._terms

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return (
            isinstance(other, DElement)
            and self.caps == other.caps
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash(
            (
                self.caps,
                tuple(
                    (mon, tuple(sorted(sd.items())))
                    for mon, sd in sorted(self._terms.items())
                ),
            )
        )

    def __add__(self, other: "DElement") -> "DElement":
        if self.caps != other.caps:
            raise CapsMismatch(f"{self.caps} vs {other.caps}")
        out = {m: dict(sd) for m, sd in self._terms.items()}
        _eadd_into(out, other._terms)
        return DElement(self.caps, out, _trusted=True)

    def __sub__(self, other: "DElement") -> "DElement":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "DElement":
        if isinstance(c, ScalarSeries):
            ctx = get_context(self.caps)
            out = {
                m: _smul(sd, c.coeffs, ctx.K, ctx.N) for m, sd in self._terms.items()
            }
        else:
            out = {m: _sscale(sd, Fraction(c)) for m, sd in self._terms.items()}
        return DElement(self.caps, {m: sd for m, sd in out.items() if sd}, _trusted=True)

    def __mul__(self, other: "DElement") -> "DElement":
        if not isinstance(other, DElement):
            return NotImplemented
        if self.caps != other.caps:
            raise CapsMismatch(f"{self.caps} vs {other.caps}")
        ctx = get_context(self.caps)
        return DElement(self.caps, ctx.elem_mul(self._terms, other._terms), _trusted=True)

    def epsilon_part(self, k: int) -> "DElement":
        """The sub-element collecting exactly e-degree ``k`` terms."""
        if k < 0 or k > self.caps.eps_order:
            raise DegreeOutOfRange(f"eps degree {k} outside caps {self.caps}")
        out: EDict = {}
        for mon, sd in self._terms.items():
            filtered = {key: v for key, v in sd.items() if key[0] == k}
            if filtered:
                out[mon] = filtered
        return DElement(self.caps, out, _trusted=True)

    # -- canonical rendering: the equality witness in golden tests

    def canonical_terms(self):
        """Flat term list sorted by (total degree, monomial, e-deg, h-deg)."""
        out = []
        for mon in sorted(self._terms, key=_mon_degree_key):
            for (e, h) in sorted(self._terms[mon]):
                out.append((mon, e, h, self._terms[mon][(e, h)]))
        return out

    def render(self) -> str:
        if not self._terms:
            return "0"
        lines = []
        for mon, e, h, coeff in self.canonical_terms():
            factors = [str(coeff)]
            if e:
                factors.append("eps" if e == 1 else f"eps^{e}")
            if h:
                factors.append("hbar" if h == 1 else f"hbar^{h}")
            mtxt = render_monomial(mon)
            if mtxt != "1":
                factors.append(mtxt)
            lines.append(" * ".join(factors))
        return "\n".join(lines)

    def __repr__(self):
        n = len(self._terms)
        return f"DElement({n} monomials at caps {self.caps})"

    def to_json(self) -> dict:
        return {
            "caps": {"eps_order": self.caps.eps_order, "hbar_order": self.caps.hbar_order},
            "terms": [
                {"monomial": list(mon), "eps": e, "hbar": h, "coeff": str(coeff)}
                for mon, e, h, coeff in self.canonical_terms()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DElement":
        caps = Caps(data["caps"]["eps_order"], data["caps"]["hbar_order"])
        terms: EDict = {}
        for item in data["terms"]:
            mon = tuple(item["monomial"])
            terms.setdefault(mon, {})[(item["eps"], item["hbar"])] = Fraction(item["coeff"])
        return cls(caps, terms)


def _tensor_mul(a: dict, b: dict, ctx: _Context) -> dict:
    """Slotwise product of two tensor-power elements.

    Keys are tuples of monomials, one per tensor factor, of the same length
    in both operands; slot ``i`` of a product term is the normal-formed
    product of slot ``i`` of the two factors.
    """
    K, N = ctx.K, ctx.N
    out: dict[tuple, SDict] = {}
    for ka, sa in a.items():
        for kb, sb in b.items():
            scal = _smul(sa, sb, K, N)
            if not scal:
                continue
            partial = [((), scal)]
            for ma, mb in zip(ka, kb):
                prod = ctx.mon_mul(ma, mb)
                partial = [
                    (key + (m,), p)
                    for key, sd in partial
                    for m, s in prod.items()
                    if (p := _smul(sd, s, K, N))
                ]
            for key, sd in partial:
                cur = out.setdefault(key, {})
                _sadd_into(cur, sd)
                if not cur:
                    del out[key]
    return out


class DTensor:
    """An element of the two-fold tensor square, normal-formed per factor."""

    __slots__ = ("caps", "_terms")

    def __init__(self, caps: Caps, terms: dict[tuple[Mon, Mon], SDict] | None = None):
        self.caps = caps
        self._terms = {
            pair: {k: v for k, v in sd.items() if v}
            for pair, sd in (terms or {}).items()
        }
        self._terms = {pair: sd for pair, sd in self._terms.items() if sd}

    @classmethod
    def unit(cls, caps: Caps) -> "DTensor":
        return cls(caps, {(UNIT_MON, UNIT_MON): dict(_ONE_SD)})

    @property
    def terms(self):
        return {
            pair: ScalarSeries(self.caps, dict(sd))
            for pair, sd in sorted(self._terms.items())
        }

    def raw(self):
        return self._terms

    def is_zero(self):
        return not self._terms

    def __eq__(self, other):
        return (
            isinstance(other, DTensor)
            and self.caps == other.caps
            and self._terms == other._terms
        )

    def __add__(self, other: "DTensor") -> "DTensor":
        if self.caps != other.caps:
            raise CapsMismatch(f"{self.caps} vs {other.caps}")
        out = {p: dict(sd) for p, sd in self._terms.items()}
        for p, sd in other._terms.items():
            cur = out.setdefault(p, {})
            _sadd_into(cur, sd)
            if not cur:
                del out[p]
        return DTensor(self.caps, out)

    def scale(self, c: Fraction) -> "DTensor":
        return DTensor(self.caps, {p: _sscale(sd, Fraction(c)) for p, sd in self._terms.items()})

    def __sub__(self, other: "DTensor") -> "DTensor":
        return self + other.scale(Fraction(-1))

    def __mul__(self, other: "DTensor") -> "DTensor":
        if not isinstance(other, DTensor):
            return NotImplemented
        if self.caps != other.caps:
            raise CapsMismatch(f"{self.caps} vs {other.caps}")
        ctx = get_context(self.caps)
        return DTensor(self.caps, _tensor_mul(self._terms, other._terms, ctx))

    def map_slot(self, func, slot: int) -> "DTensor":
        """Apply a DElement -> DElement map to one tensor factor (0 or 1)."""
        ctx = get_context(self.caps)
        out: dict[tuple[Mon, Mon], SDict] = {}
        for (m1, m2), sd in self._terms.items():
            target = m1 if slot == 0 else m2
            image = func(DElement(self.caps, {target: dict(_ONE_SD)}, _trusted=True))
            for mon, isd in image.raw().items():
                scal = _smul(sd, isd, ctx.K, ctx.N)
                if not scal:
                    continue
                pair = (mon, m2) if slot == 0 else (m1, mon)
                cur = out.setdefault(pair, {})
                _sadd_into(cur, scal)
                if not cur:
                    del out[pair]
        return DTensor(self.caps, out)


# ---------------------------------------------------------------------------
# named operations

def r_matrix(caps: Caps) -> DTensor:
    """The quasitriangular structure, truncated to the h-degree cap.

    Terms are hbar^(m+n) / ([m]_q! n!) * y^m b^n (x) a^n x^m over all
    m + n <= hbar cap; higher terms cannot contribute within the caps.
    """
    N = caps.hbar_order
    terms: dict[tuple[Mon, Mon], SDict] = {}
    inv_qfact = [q_factorial(m, caps).invert() for m in range(N + 1)]
    for m in range(N + 1):
        for n in range(N + 1 - m):
            scal = inv_qfact[m].coeffs
            scal = _sscale(scal, Fraction(1, factorial(n)))
            scal = {
                (e, h + m + n): v
                for (e, h), v in scal.items()
                if h + m + n <= N
            }
            if not scal:
                continue
            terms[((m, n, 0, 0), (0, 0, n, m))] = scal
    return DTensor(caps, terms)


def r_inverse(caps: Caps) -> DTensor:
    """Two-sided inverse of the quasitriangular structure.

    Computed order by order as a geometric series in (R - 1 (x) 1), which is
    nilpotent at any finite h-degree cap.  No closed form is assumed; the
    antipode identity (S (x) id)(R) = R^(-1) is checked separately in tests.
    """
    rmat = r_matrix(caps)
    pert = rmat - DTensor.unit(caps)
    out = DTensor.unit(caps)
    power = DTensor.unit(caps)
    sign = 1
    for _ in range(caps.hbar_order):
        power = power * pert
        sign = -sign
        if power.is_zero():
            break
        out = out + power.scale(Fraction(sign))
    return out


def rotation_element(sign: int, caps: Caps) -> DElement:
    """Value of a full rotation: ``sign=+1`` counter-clockwise, ``-1`` clockwise.

    A counter-clockwise full rotation carries ``exp(+(eps*hbar*a + hbar*b)/2)``
    and a clockwise one its inverse.  That exponent sign is calibrated so that
    rotation insertion pairs cancel, the worked two-crossing example composes
    correctly, and the five-crossing pair that the invariant cannot separate
    indeed evaluates equal.
    """
    if sign not in (1, -1):
        raise ValueError("rotation sign must be +1 or -1")
    c = Fraction(sign, 2)
    return DElement(caps, _exp_ab_raw(c, c, caps.eps_order, caps.hbar_order), _trusted=True)


def antipode(u: DElement) -> DElement:
    """The antipode, an anti-homomorphism extended from the generator images."""
    ctx = get_context(u.caps)
    out: EDict = {}
    for mon, sd in u.raw().items():
        _eadd_into(out, ctx.antipode(mon), sd, ctx.K, ctx.N)
    return DElement(u.caps, out, _trusted=True)


# ---------------------------------------------------------------------------
# consistency checks used by the test suite

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
