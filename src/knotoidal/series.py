"""Truncated bivariate power series with exact rational coefficients.

A :class:`ScalarSeries` is an element of Q[e][[h]] truncated to e-degree <= K
and h-degree <= N, where ``e`` is the deformation variable and ``h`` the
expansion variable of the coefficient ring.  All arithmetic is exact; there is
no floating point anywhere in this module.

The raw representation is a dict ``{(e_deg, h_deg): Fraction}`` with no zero
entries.  The low-level ``_s*`` helpers operate on raw dicts and are shared
with the noncommutative layer in :mod:`knotoidal.algebra`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import CapsMismatch, ExpDomain, NotInvertible, SqrtDomain

SKey = tuple[int, int]
SDict = dict[SKey, Fraction]


@dataclass(frozen=True)
class Caps:
    """Truncation caps: ``eps_order`` = max e-degree K, ``hbar_order`` = max h-degree N."""

    eps_order: int
    hbar_order: int

    def __post_init__(self):
        if self.eps_order < 0 or self.hbar_order < 0:
            raise ValueError("caps must be non-negative")

    def admits(self, e: int, h: int) -> bool:
        return 0 <= e <= self.eps_order and 0 <= h <= self.hbar_order


def require_same_caps(a, b):
    if a.caps != b.caps:
        raise CapsMismatch(f"{a.caps} vs {b.caps}")


# ---------------------------------------------------------------------------
# raw-dict helpers

def _sadd_into(dst: SDict, src: SDict, mult: Fraction = Fraction(1)) -> None:
    for key, val in src.items():
        new = dst.get(key, 0) + val * mult
        if new:
            dst[key] = new
        else:
            dst.pop(key, None)


def _smul(a: SDict, b: SDict, K: int, N: int) -> SDict:
    out: SDict = {}
    for (ea, ha), va in a.items():
        for (eb, hb), vb in b.items():
            e, h = ea + eb, ha + hb
            if e > K or h > N:
                continue
            key = (e, h)
            new = out.get(key, 0) + va * vb
            if new:
                out[key] = new
            else:
                del out[key]
    return out


def _sscale(a: SDict, c: Fraction) -> SDict:
    if not c:
        return {}
    return {key: val * c for key, val in a.items()}


def _sshift(a: SDict, de: int, dh: int, K: int, N: int) -> SDict:
    out: SDict = {}
    for (e, h), val in a.items():
        e, h = e + de, h + dh
        if 0 <= e <= K and 0 <= h <= N:
            out[(e, h)] = val
    return out


def _spow(a: SDict, n: int, K: int, N: int) -> SDict:
    out: SDict = {(0, 0): Fraction(1)}
    for _ in range(n):
        out = _smul(out, a, K, N)
    return out


# ---------------------------------------------------------------------------
# public series type

class ScalarSeries:
    """Exact truncated series in ``e`` and ``h``; the coefficient ring of everything."""

    __slots__ = ("caps", "coeffs")

    def __init__(self, caps: Caps, coeffs: SDict | None = None):
        self.caps = caps
        clean: SDict = {}
        for (e, h), v in (coeffs or {}).items():
            if not caps.admits(e, h):
                raise ValueError(f"degree ({e},{h}) outside caps {caps}")
            v = Fraction(v)
            if v:
                clean[(e, h)] = v
        self.coeffs = clean

    # -- constructors

    @classmethod
    def zero(cls, caps: Caps) -> "ScalarSeries":
        return cls(caps, {})

    @classmethod
    def one(cls, caps: Caps) -> "ScalarSeries":
        return cls(caps, {(0, 0): Fraction(1)})

    @classmethod
    def term(cls, caps: Caps, value, e: int = 0, h: int = 0) -> "ScalarSeries":
        if not caps.admits(e, h):
            return cls.zero(caps)
        return cls(caps, {(e, h): Fraction(value)})

    @classmethod
    def hbar(cls, caps: Caps) -> "ScalarSeries":
        return cls.term(caps, 1, 0, 1)

    @classmethod
    def eps(cls, caps: Caps) -> "ScalarSeries":
        return cls.term(caps, 1, 1, 0)

    # -- ring structure

    def __add__(self, other: "ScalarSeries") -> "ScalarSeries":
        require_same_caps(self, other)
        out = dict(self.coeffs)
        _sadd_into(out, other.coeffs)
        return ScalarSeries(self.caps, out)

    def __sub__(self, other: "ScalarSeries") -> "ScalarSeries":
        require_same_caps(self, other)
        out = dict(self.coeffs)
        _sadd_into(out, other.coeffs, Fraction(-1))
        return ScalarSeries(self.caps, out)

    def __neg__(self) -> "ScalarSeries":
        return ScalarSeries(self.caps, _sscale(self.coeffs, Fraction(-1)))

    def __mul__(self, other) -> "ScalarSeries":
        if isinstance(other, ScalarSeries):
            require_same_caps(self, other)
            return ScalarSeries(
                self.caps,
                _smul(self.coeffs, other.coeffs, self.caps.eps_order, self.caps.hbar_order),
            )
        return ScalarSeries(self.caps, _sscale(self.coeffs, Fraction(other)))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ScalarSeries)
            and self.caps == other.caps
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.caps, tuple(sorted(self.coeffs.items()))))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, e: int, h: int) -> Fraction:
        return self.coeffs.get((e, h), Fraction(0))

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs.get((0, 0), Fraction(0))

    def shift(self, de: int, dh: int) -> "ScalarSeries":
        """Multiply by e^de * h^dh, dropping whatever leaves the caps."""
        return ScalarSeries(
            self.caps, _sshift(self.coeffs, de, dh, self.caps.eps_order, self.caps.hbar_order)
        )

    def pow(self, n: int) -> "ScalarSeries":
        if n < 0:
            return self.invert().pow(-n)
        return ScalarSeries(
            self.caps, _spow(self.coeffs, n, self.caps.eps_order, self.caps.hbar_order)
        )

    # -- analytic operations on the truncated ring

    def invert(self) -> "ScalarSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        c = self.constant_term
        if not c:
            raise NotInvertible("series has zero constant term")
        K, N = self.caps.eps_order, self.caps.hbar_order
        # 1/s = (1/c) * sum_k (1 - s/c)^k; (1 - s/c) is nilpotent here.
        rest = _sscale(self.coeffs, Fraction(1) / c)
        del rest[(0, 0)]
        rest = _sscale(rest, Fraction(-1))
        out: SDict = {(0, 0): Fraction(1)}
        power: SDict = {(0, 0): Fraction(1)}
        for _ in range(K + N + 1):
            power = _smul(power, rest, K, N)
            if not power:
                break
            _sadd_into(out, power)
        return ScalarSeries(self.caps, _sscale(out, Fraction(1) / c))

    def exp(self) -> "ScalarSeries":
        """exp of a series with zero constant term (so the sum terminates)."""
        if self.constant_term:
            raise ExpDomain("exp requires zero constant term")
        K, N = self.caps.eps_order, self.caps.hbar_order
        out: SDict = {(0, 0): Fraction(1)}
        power: SDict = {(0, 0): Fraction(1)}
        for k in range(1, K + N + 2):
            power = _smul(power, self.coeffs, K, N)
            if not power:
                break
            _sadd_into(out, power, Fraction(1, factorial(k)))
        return ScalarSeries(self.caps, out)

    def sqrt(self) -> "ScalarSeries":
        """Square root of a series with constant term 1."""
        if self.constant_term != 1:
            raise SqrtDomain("sqrt requires constant term 1")
        K, N = self.caps.eps_order, self.caps.hbar_order
        rest = dict(self.coeffs)
        del rest[(0, 0)]
        out: SDict = {(0, 0): Fraction(1)}
        power: SDict = {(0, 0): Fraction(1)}
        binom = Fraction(1)
        for k in range(1, K + N + 2):
            binom *= Fraction(2 * (1 - k) + 1, 2 * k)  # binom(1/2, k) recursion
            power = _smul(power, rest, K, N)
            if not power:
                break
            _sadd_into(out, power, binom)
        return ScalarSeries(self.caps, out)

    # -- rendering

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (e, h) in sorted(self.coeffs):
            val = self.coeffs[(e, h)]
            factors = [str(val)]
            if e:
                factors.append("eps" if e == 1 else f"eps^{e}")
            if h:
                factors.append("hbar" if h == 1 else f"hbar^{h}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"ScalarSeries({self.render()})"

    def to_json(self) -> dict:
        return {f"{e},{h}": str(v) for (e, h), v in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, caps: Caps, data: dict) -> "ScalarSeries":
        coeffs: SDict = {}
        for key, sval in data.items():
            e, h = (int(p) for p in key.split(","))
            coeffs[(e, h)] = Fraction(sval)
        return cls(caps, coeffs)


# ---------------------------------------------------------------------------
# q-combinatorics used by the quasitriangular structure

def q_integer(k: int, caps: Caps) -> ScalarSeries:
    """[k]_q = 1 + q + ... + q^(k-1) with q = exp(eps*hbar), truncated."""
    out = ScalarSeries.zero(caps)
    for j in range(k):
        out = out + ScalarSeries.term(caps, j, 1, 1).exp()
    return out


def q_factorial(m: int, caps: Caps) -> ScalarSeries:
    """[m]_q! = [1]_q [2]_q ... [m]_q; reduces to m! at h-degree zero."""
    if m < 0:
        raise ValueError("q_factorial requires m >= 0")
    out = ScalarSeries.one(caps)
    for k in range(2, m + 1):
        out = out * q_integer(k, caps)
    return out
