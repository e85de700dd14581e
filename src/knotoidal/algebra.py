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

Normal ordering is closed.  With ``T`` the relation tail above and ``P``,
``Q`` commutative polynomials in ``b, a``, the relations give

    P(b, a) * y = y * P(b - eps, a - 1),      x * P(b, a) = P(b - eps, a - 1) * x,
    x * y^m = q^m * y^m * x + y^(m-1) * F_m(b, a),
        F_m = sum_{t<m} q^t * T(b - (m-1-t)*eps, a - (m-1-t)),
    x * (y^m Q x^s) = q^m * y^m * Q(b - eps, a - 1) * x^(s+1) + y^(m-1) * (F_m Q) * x^s.

The last rule, one x at a time, fills a table keyed by ``(l, i)`` with the
``Q_r`` of ``x^l * y^i = sum_r y^(i-r) * Q_r(b, a) * x^(l-r)``, and the first
moves the outer factors of a product onto it:

    y^i1 b^j1 a^k1 x^l1 * y^i2 b^j2 a^k2 x^l2 = sum_r y^(i1+i2-r)
        * (b - (i2-r)*eps)^j1 (a - (i2-r))^k1 * Q_r * (b - (l1-r)*eps)^j2 (a - (l1-r))^k2
        * x^(l1-r+l2).

The rewriting tables of :class:`_Context` hold integers, not fractions: a
coefficient ``c`` at ``hbar^h`` is stored as ``c * L**h`` for the one scale
``L = 2 * lcm(1, ..., N+1)`` per hbar cap ``N``.  Their inputs scale to
integers (``q = exp(eps*hbar)`` carries ``1/h!`` at ``hbar^h``, the relation
tail ``1/(h+1)!``, and the commutation shifts are integers at ``hbar^0``), and
products keep the scale because ``L**a * L**b == L**(a+b)``, so filling the
tables never takes a gcd.  The tables are built from ``q`` and the relation
tail, each scaled once when a :class:`_Context` is made, and
:meth:`_Context.product` reads them into a scaled monomial product.  The
strand walk of :mod:`knotoidal.invariant` works at the same scale, scaling
its inputs with :meth:`_Context.scaled` and dividing its result back with
:meth:`_Context.unscaled`, so :class:`_Context` alone converts to and from
the scale; :meth:`_Context.mon_mul` and :meth:`_Context.left_x_mon` divide
each term back by ``L**h`` once and return the exact product, which
``mon_mul`` memoizes.  Everything
else here, the element and tensor products of :func:`_tensor_mul` and the
antipode, multiplies exact ``Fraction`` terms, so only the tables and the
walk know the scale.  A coefficient that is not an integer after scaling
raises :class:`NonIntegralScale`; nothing is ever rounded.

Every element and tensor, whoever builds it, goes through one construction
path, the normalising constructor of ``_Terms``.

All values are immutable after construction and all operations are pure
functions, so everything here is safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, lcm

from .errors import CapsMismatch, DegreeOutOfRange, InvalidArgument, NonIntegralScale
from .series import (
    Caps,
    ScalarSeries,
    SDict,
    _power_factors,
    _sadd_into,
    _smul,
    _sscale,
    q_factorial,
    require_same_caps,
)

Mon = tuple[int, int, int, int]  # exponents of y^i b^j a^k x^l
EDict = dict[Mon, SDict]
# a commutative polynomial in b, a: (b_exp, a_exp, e, h) -> c * L**h
Poly = dict[tuple[int, int, int, int], int]

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


def _walk_scale(hbar_order: int) -> int:
    """The scale ``L = 2 * lcm(1, ..., N+1)`` of the tables and the walk."""
    return 2 * lcm(*range(1, hbar_order + 2))


def _scaled(coeff: Fraction, h: int, scale: int) -> int:
    """``coeff * scale**h`` as an int; raises if that is not an integer."""
    num = coeff * scale**h
    if num.denominator != 1:
        raise NonIntegralScale(f"{coeff} * {scale}^{h} is not an integer")
    return num.numerator


@cache
def _shifted_ba(j: int, k: int, shift: int, K: int) -> Poly:
    """``(b - eps*shift)^j (a - shift)^k`` as a polynomial with integer
    coefficients at ``hbar^0``."""
    out = {}
    for t in range(j + 1):
        e_extra = j - t
        if e_extra > K:
            continue
        cb = comb(j, t) * (-shift) ** e_extra
        if not cb:
            continue
        for s in range(k + 1):
            ca = comb(k, s) * (-shift) ** (k - s)
            if ca:
                out[(t, s, e_extra, 0)] = cb * ca
    return out


def _poly_mul(p: Poly, r: Poly, K: int, N: int) -> Poly:
    """Product of two polynomials in ``b, a``, truncated to the caps."""
    if len(r) == 1:
        [((j2, k2, e2, h2), c2)] = r.items()
        if c2 == 1 and not e2 and not h2:  # a monomial b^j2 a^k2
            return {(j1 + j2, k1 + k2, e1, h1): c1 for (j1, k1, e1, h1), c1 in p.items()}
    out: Poly = {}
    for (j1, k1, e1, h1), c1 in p.items():
        for (j2, k2, e2, h2), c2 in r.items():
            e, h = e1 + e2, h1 + h2
            if e > K or h > N:
                continue
            key = (j1 + j2, k1 + k2, e, h)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def _poly_shift(p: Poly, shift: int, K: int) -> Poly:
    """``P(b - eps*shift, a - shift)``."""
    out: Poly = {}
    for (j, k, e, h), c in p.items():
        for (t, s, e_extra, _), coeff in _shifted_ba(j, k, shift, K).items():
            e_new = e + e_extra
            if e_new <= K:
                key = (t, s, e_new, h)
                out[key] = out.get(key, 0) + c * coeff
    return {key: c for key, c in out.items() if c}


def _exp_ab_raw(ca: Fraction, cb: Fraction, K: int, N: int) -> EDict:
    """exp(ca*eps*hbar*a + cb*hbar*b) as a raw element (a, b commute)."""
    out: EDict = {}
    for r in range(N + 1):
        base = Fraction(1, factorial(r))
        for s in range(min(r, K) + 1):
            coeff = base * comb(r, s) * ca**s * cb ** (r - s)
            if coeff:
                out[(0, r - s, s, 0)] = {(s, r): coeff}
    return out


def _relation_tail(K: int, N: int) -> EDict:
    """(1 - exp(-eps*hbar*a - hbar*b)) / hbar in normal form."""
    return {
        mon: {(e, h - 1): -c for (e, h), c in sd.items()}
        for mon, sd in _exp_ab_raw(-1, -1, K, N + 1).items()
        if mon != UNIT_MON
    }


class _Context:
    """Per-caps workspace holding memoized rewriting tables.

    ``q``, ``tail``, ``tail_sums`` (the ``F_m``) and ``left_x`` hold
    integer terms ``c * L**h`` at the scale ``L = self.scale``; ``mul``,
    ``antipode_mon`` and ``antipode_gen_powers`` hold exact ``Fraction``
    elements.  ``left_x[(l, i)]`` is the list of the ``Q_r`` of
    ``x^l * y^i``; ``mul`` memoizes the monomial products of element and
    tensor products, not those of the strand walk, whose rows are their
    own memo.
    """

    def __init__(self, K: int, N: int):
        self.K = K
        self.N = N
        self.scale = _walk_scale(N)
        self.powers = [self.scale**h for h in range(N + 1)]
        # q = exp(eps*hbar) = sum_k (eps*hbar)^k / k!
        self.q: Poly = {
            (0, 0, k, k): _scaled(Fraction(1, factorial(k)), k, self.scale)
            for k in range(min(K, N) + 1)
        }
        self.tail: Poly = {
            (j, k, e, h): c
            for (_, j, k, _), sd in _relation_tail(K, N).items()
            for (e, h), c in self.scaled(sd).items()
        }
        self.tail_sums: list[Poly] = [{}]
        self.left_x: dict[tuple[int, int], list[Poly]] = {}
        self.mul: dict[tuple[Mon, Mon], EDict] = {}
        self.antipode_mon: dict[Mon, EDict] = {}
        self.antipode_gen_powers: dict[Mon, list[EDict]] = {}

    # -- the scale

    def scaled(self, sd: SDict) -> SDict:
        """The integer terms ``c * L**h`` of an exact series; raises if one is not an integer."""
        return {(e, h): _scaled(c, h, self.scale) for (e, h), c in sd.items()}

    def unscaled(self, terms: EDict) -> EDict:
        """The exact ``Fraction`` terms of integer terms ``c * L**h``."""
        powers = self.powers
        return {
            key: {(e, h): Fraction(c, powers[h]) for (e, h), c in sd.items()}
            for key, sd in terms.items()
        }

    # -- normal ordering

    def q_power(self, m: int) -> Poly:
        """``q^m = sum_k m^k (eps*hbar)^k / k!`` as a constant polynomial."""
        return {key: m ** key[2] * c for key, c in self.q.items() if m or not key[2]}

    def tail_sum(self, m: int) -> Poly:
        """``F_m``, the polynomial with ``x * y^m = q^m y^m x + y^(m-1) F_m``."""
        sums = self.tail_sums
        while len(sums) <= m:
            n = len(sums)
            f = _poly_mul(self.q, sums[-1], self.K, self.N)
            _sadd_into(f, _poly_shift(self.tail, n - 1, self.K))
            sums.append(f)
        return sums[m]

    def x_power_y_power(self, l: int, i: int) -> list[Poly]:
        """The ``Q_r`` of ``x^l * y^i = sum_r y^(i-r) Q_r(b, a) x^(l-r)``."""
        entry = self.left_x.get((l, i))
        if entry is not None:
            return entry
        if l == 0:
            entry = [{(0, 0, 0, 0): 1}]
        else:
            K, N = self.K, self.N
            # x * y^m Q x^s = q^m y^m Q(b-eps, a-1) x^(s+1) + y^(m-1) (F_m Q) x^s
            entry = [{} for _ in range(min(l, i) + 1)]
            for r, q_r in enumerate(self.x_power_y_power(l - 1, i)):
                m = i - r
                _sadd_into(entry[r], _poly_mul(self.q_power(m), _poly_shift(q_r, 1, K), K, N))
                if m:
                    _sadd_into(entry[r + 1], _poly_mul(self.tail_sum(m), q_r, K, N))
        self.left_x[(l, i)] = entry
        return entry

    def product(self, m1: Mon, m2: Mon, hbar_cap: int | None = None) -> EDict:
        """``m1 * m2`` in normal form to ``hbar^hbar_cap`` (default: the cap), not memoized."""
        i1, j1, k1, l1 = m1
        i2, j2, k2, l2 = m2
        K, N = self.K, self.N if hbar_cap is None else hbar_cap
        out: EDict = {}
        for r, q_r in enumerate(self.x_power_y_power(l1, i2)):
            # y^i1 b^j1 a^k1 y^(i2-r) Q_r x^(l1-r) b^j2 a^k2 x^l2
            ba = _poly_mul(_shifted_ba(j1, k1, i2 - r, K), q_r, K, N)
            ba = _poly_mul(ba, _shifted_ba(j2, k2, l1 - r, K), K, N)
            i, l = i1 + i2 - r, l1 - r + l2
            for (j, k, e, h), c in ba.items():
                out.setdefault((i, j, k, l), {})[(e, h)] = c
        return out

    def mon_mul(self, m1: Mon, m2: Mon) -> EDict:
        """``m1 * m2`` in normal form with exact terms, memoized in ``mul``."""
        key = (m1, m2)
        hit = self.mul.get(key)
        if hit is None:
            hit = self.mul[key] = self.unscaled(self.product(m1, m2))
        return hit

    def left_x_mon(self, mon: Mon) -> EDict:
        """``x * mon`` in normal form with exact terms."""
        return self.unscaled(self.product((0, 0, 0, 1), mon))

    def elem_mul(self, e1: EDict, e2: EDict) -> EDict:
        """Product of two exact elements: :func:`_tensor_mul` with one slot."""
        out = _tensor_mul(
            {(m,): sd for m, sd in e1.items()}, {(m,): sd for m, sd in e2.items()}, self
        )
        return {m: sd for (m,), sd in out.items()}

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
        ctx = _CONTEXTS[key] = _Context(*key)
    return ctx


# ---------------------------------------------------------------------------
# public element types

def _mon_degree_key(mon: Mon):
    return (sum(mon), mon)


def _monomial(mon) -> Mon:
    """``mon`` as a monomial: a tuple or list of four non-negative int
    exponents of ``y, b, a, x``; anything else raises :class:`InvalidArgument`."""
    if (
        not isinstance(mon, (tuple, list))
        or len(mon) != 4
        or any(type(n) is not int or n < 0 for n in mon)
    ):
        raise InvalidArgument(f"need four non-negative int exponents of y, b, a, x, got {mon!r}")
    return tuple(mon)


def render_monomial(mon: Mon) -> str:
    return "*".join(_power_factors("ybax", mon)) or "1"


class _Terms:
    """Exact terms at one caps: a map from a key (a monomial, or a tuple of
    them) to a scalar series, with no zero coefficient and no degree
    outside the caps.

    The constructor is the one construction path of every :class:`DElement`
    and :class:`DTensor`: it converts each coefficient that is not yet a
    ``Fraction`` and drops it if it is zero or at a degree the caps do not
    admit, so the producers here pass raw terms and filter nothing."""

    __slots__ = ("caps", "_terms")
    # the order of :attr:`terms`: a sort key of the keys, or None for their own order
    _key_order = None

    def __init__(self, caps: Caps, terms: dict | None = None):
        self.caps = caps
        K, N = caps.eps_order, caps.hbar_order
        clean = {}
        for key, sd in (terms or {}).items():
            kept = {}
            for (e, h), v in sd.items():
                if type(v) is not Fraction:
                    v = Fraction(v)
                if v and 0 <= e <= K and 0 <= h <= N:
                    kept[(e, h)] = v
            if kept:
                clean[key] = kept
        self._terms = clean

    def raw(self) -> dict:
        return self._terms

    @property
    def terms(self) -> dict:
        """The terms as scalar series, their keys in ``_key_order``."""
        return {
            key: ScalarSeries(self.caps, dict(self._terms[key]))
            for key in sorted(self._terms, key=self._key_order)
        }

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.caps == other.caps
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash(
            (
                self.caps,
                tuple(
                    (key, tuple(sorted(sd.items())))
                    for key, sd in sorted(self._terms.items())
                ),
            )
        )

    def __add__(self, other):
        require_same_caps(self, other)
        out = {key: dict(sd) for key, sd in self._terms.items()}
        _eadd_into(out, other._terms)
        return type(self)(self.caps, out)

    def __sub__(self, other):
        return self + other.scale(Fraction(-1))

    def scale(self, c):
        if isinstance(c, ScalarSeries):
            require_same_caps(self, c)
        else:
            c = ScalarSeries.term(self.caps, c)
        K, N = self.caps.eps_order, self.caps.hbar_order
        out = {key: _smul(sd, c.coeffs, K, N) for key, sd in self._terms.items()}
        return type(self)(self.caps, out)

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        require_same_caps(self, other)
        return type(self)(self.caps, self._product(get_context(self.caps), other._terms))


class DElement(_Terms):
    """An algebra element in normal form: map monomial -> scalar series."""

    __slots__ = ()
    _key_order = staticmethod(_mon_degree_key)

    # -- constructors

    @classmethod
    def zero(cls, caps: Caps) -> "DElement":
        return cls(caps)

    @classmethod
    def unit(cls, caps: Caps) -> "DElement":
        return cls(caps, {UNIT_MON: _ONE_SD})

    @classmethod
    def generator(cls, caps: Caps, name: str, power: int = 1) -> "DElement":
        """``name^power`` for ``name`` one of ``y, b, a, x`` and ``power >= 0``."""
        if type(name) is not str or name not in GENERATOR_INDEX:
            raise InvalidArgument(f"unknown generator {name!r}, need one of y, b, a, x")
        mon = [0, 0, 0, 0]
        mon[GENERATOR_INDEX[name]] = power
        return cls.monomial(caps, mon)

    @classmethod
    def monomial(cls, caps: Caps, mon: Mon, coeff: ScalarSeries | None = None) -> "DElement":
        """``coeff * y^i b^j a^k x^l`` for ``mon = (i, j, k, l)``; see :func:`_monomial`.

        A ``coeff`` that is not a :class:`ScalarSeries` raises :class:`InvalidArgument`."""
        if coeff is not None and not isinstance(coeff, ScalarSeries):
            raise InvalidArgument(f"need a ScalarSeries coefficient, got {coeff!r}")
        if coeff is not None and coeff.caps != caps:
            raise CapsMismatch(f"{coeff.caps} vs {caps}")
        return cls(caps, {_monomial(mon): _ONE_SD if coeff is None else coeff.coeffs})

    # -- structure

    def _product(self, ctx: _Context, other: EDict) -> EDict:
        return ctx.elem_mul(self._terms, other)

    def epsilon_part(self, k: int) -> "DElement":
        """The sub-element collecting exactly e-degree ``k`` terms."""
        if k < 0 or k > self.caps.eps_order:
            raise DegreeOutOfRange(f"eps degree {k} outside caps {self.caps}")
        out = {mon: {key: v for key, v in sd.items() if key[0] == k} for mon, sd in self._terms.items()}
        return DElement(self.caps, out)

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
            factors = [str(coeff), *_power_factors(("eps", "hbar"), (e, h))]
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
            "caps": self.caps.to_json(),
            "terms": [
                {"monomial": list(mon), "eps": e, "hbar": h, "coeff": str(coeff)}
                for mon, e, h, coeff in self.canonical_terms()
            ],
        }


def _tensor_mul(a: dict, b: dict, ctx: _Context) -> dict:
    """Slotwise product of two tensor-power elements.

    Keys are tuples of monomials, one per tensor factor, of the same length
    in both operands; slot ``i`` of a product term is the normal-formed
    product of slot ``i`` of the two factors; with one slot this is the
    element product.
    """
    K, N = ctx.K, ctx.N
    out: dict[tuple, SDict] = {}
    for ka, sa in a.items():
        for kb, sb in b.items():
            scal = _smul(sa, sb, K, N)
            if not scal:
                continue
            partial = {(): scal}
            for ma, mb in zip(ka, kb):
                prod = ctx.mon_mul(ma, mb)
                partial = {
                    key + (m,): p
                    for key, sd in partial.items()
                    for m, s in prod.items()
                    if (p := _smul(sd, s, K, N))
                }
            _eadd_into(out, partial)
    return out


class DTensor(_Terms):
    """An element of the two-fold tensor square, normal-formed per factor."""

    __slots__ = ()

    @classmethod
    def unit(cls, caps: Caps) -> "DTensor":
        return cls(caps, {(UNIT_MON, UNIT_MON): _ONE_SD})

    def _product(self, ctx: _Context, other: dict) -> dict:
        return _tensor_mul(self._terms, other, ctx)

    def map_slot(self, func, slot: int) -> "DTensor":
        """Apply a DElement -> DElement map to one tensor factor (0 or 1)."""
        out: dict[tuple[Mon, Mon], SDict] = {}
        for (m1, m2), sd in self._terms.items():
            target = m1 if slot == 0 else m2
            image = func(DElement(self.caps, {target: _ONE_SD}))
            placed = {
                ((mon, m2) if slot == 0 else (m1, mon)): isd for mon, isd in image.raw().items()
            }
            _eadd_into(out, placed, sd, self.caps.eps_order, self.caps.hbar_order)
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
            scal = _sscale(inv_qfact[m].coeffs, Fraction(1, factorial(n)))
            terms[((m, n, 0, 0), (0, 0, n, m))] = {(e, h + m + n): v for (e, h), v in scal.items()}
    return DTensor(caps, terms)


def r_inverse(caps: Caps) -> DTensor:
    """Two-sided inverse of the quasitriangular structure, ``(S (x) id)(R)``.

    Tests check it three ways that do not assume this identity: R times it
    is 1 (x) 1, ``(id (x) S)`` maps it back to R, and it equals the
    geometric series in ``R - 1 (x) 1`` (nilpotent at any finite h-degree
    cap) computed on the ``Fraction`` oracle.
    """
    return r_matrix(caps).map_slot(antipode, 0)


def rotation_element(sign: int, caps: Caps) -> DElement:
    """Value of a full rotation: ``sign=+1`` counter-clockwise, ``-1`` clockwise.

    A counter-clockwise full rotation carries ``exp(+(eps*hbar*a + hbar*b)/2)``
    and a clockwise one its inverse.  That exponent sign is calibrated so that
    rotation insertion pairs cancel, the worked two-crossing example composes
    correctly, and the five-crossing pair that the invariant cannot separate
    indeed evaluates equal.
    """
    if sign not in (1, -1):
        raise InvalidArgument("rotation sign must be +1 or -1")
    c = Fraction(sign, 2)
    return DElement(caps, _exp_ab_raw(c, c, caps.eps_order, caps.hbar_order))


def antipode(u: DElement) -> DElement:
    """The antipode, an anti-homomorphism extended from the generator images."""
    ctx = get_context(u.caps)
    out: EDict = {}
    for mon, sd in u.raw().items():
        _eadd_into(out, ctx.antipode(mon), sd, ctx.K, ctx.N)
    return DElement(u.caps, out)


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
