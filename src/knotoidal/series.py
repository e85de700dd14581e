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
from itertools import accumulate, count, repeat
from math import factorial

from .errors import (
    CapsMismatch,
    DegreeOutOfRange,
    ExpDomain,
    InvalidArgument,
    NotInvertible,
    ParseError,
    SqrtDomain,
)

SKey = tuple[int, int]
SDict = dict[SKey, Fraction]
_EXACT = (int, Fraction)


@dataclass(frozen=True)
class Caps:
    """Truncation caps: ``eps_order`` = max e-degree K, ``hbar_order`` = max h-degree N."""

    eps_order: int
    hbar_order: int

    def __post_init__(self):
        if type(self.eps_order) is not int or type(self.hbar_order) is not int:
            raise InvalidArgument(f"caps must be ints, got {self.eps_order!r}, {self.hbar_order!r}")
        if self.eps_order < 0 or self.hbar_order < 0:
            raise InvalidArgument("caps must be non-negative")

    def to_json(self) -> dict:
        return {"eps_order": self.eps_order, "hbar_order": self.hbar_order}

    def admits(self, e: int, h: int) -> bool:
        return 0 <= e <= self.eps_order and 0 <= h <= self.hbar_order


def _ascii_number(text: str, kind: type = int):
    """``kind(text)``, ``int`` or ``float``, for the text loaders: ASCII only
    and no underscores, so ``"1_0"`` and non-ASCII digits raise
    ``ValueError`` rather than read as 10 or as their ASCII values."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an ASCII number: {text!r}")
    return kind(text)


def _read_text(path) -> str:
    """The text of a file for the text loaders, which must be UTF-8; other
    bytes raise :class:`ParseError` naming the file."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _power_factors(names, exponents) -> list[str]:
    """The factors ``name^exp`` of a product of powers: ``name`` alone at
    exponent 1, and nothing at exponent 0."""
    return [name if exp == 1 else f"{name}^{exp}" for name, exp in zip(names, exponents) if exp]


def require_same_caps(a, b):
    if a.caps != b.caps:
        raise CapsMismatch(f"{a.caps} vs {b.caps}")


# ---------------------------------------------------------------------------
# raw-dict helpers

def _sadd_into(dst: SDict, src: SDict, mult: Fraction | int = 1) -> None:
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


# ---------------------------------------------------------------------------
# public series type

class ScalarSeries:
    """Exact truncated series in ``e`` and ``h``; the coefficient ring of everything."""

    __slots__ = ("caps", "coeffs")

    def __init__(self, caps: Caps, coeffs: SDict | None = None):
        """``coeffs`` maps int degrees ``(e, h)`` within ``caps`` to int or
        ``Fraction`` coefficients; anything else raises :class:`InvalidArgument`
        (``Fraction`` would take a float's binary value, and would expand a
        string such as ``"1e10000000"`` exactly, for seconds)."""
        self.caps = caps
        clean: SDict = {}
        try:
            for (e, h), v in (coeffs or {}).items():
                if type(e) is not int or type(h) is not int or type(v) not in _EXACT:
                    raise TypeError
                if not caps.admits(e, h):
                    raise DegreeOutOfRange(f"degree ({e},{h}) outside caps {caps}")
                if v:
                    clean[(e, h)] = v if type(v) is Fraction else Fraction(v)
        except (AttributeError, TypeError, ValueError):
            raise InvalidArgument(
                "series coefficients must map (int, int) degrees to ints or Fractions"
            ) from None
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
        return self + -other

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
            self.caps,
            {
                (e + de, h + dh): val
                for (e, h), val in self.coeffs.items()
                if self.caps.admits(e + de, h + dh)
            },
        )

    def pow(self, n: int) -> "ScalarSeries":
        if n < 0:
            return self.invert().pow(-n)
        K, N = self.caps.eps_order, self.caps.hbar_order
        out: SDict = {(0, 0): Fraction(1)}
        for _ in range(n):
            out = _smul(out, self.coeffs, K, N)
        return ScalarSeries(self.caps, out)

    # -- analytic operations on the truncated ring

    def _power_sum(self, rest: SDict, coeffs) -> "ScalarSeries":
        """``sum_k c_k * rest**k`` for the coefficients ``c_0, c_1, ...`` of
        ``coeffs``; ``rest`` has zero constant term, so its powers truncate
        to zero after at most ``K + N`` steps and the sum stops there."""
        K, N = self.caps.eps_order, self.caps.hbar_order
        out: SDict = {}
        power: SDict = {(0, 0): Fraction(1)}
        for c in coeffs:
            _sadd_into(out, power, c)
            power = _smul(power, rest, K, N)
            if not power:
                break
        return ScalarSeries(self.caps, out)

    def invert(self) -> "ScalarSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        c = self.constant_term
        if not c:
            raise NotInvertible("series has zero constant term")
        # 1/s = (1/c) * sum_k (1 - s/c)^k; (1 - s/c) is nilpotent here.
        rest = {key: -v / c for key, v in self.coeffs.items() if key != (0, 0)}
        return self._power_sum(rest, repeat(1 / c))

    def exp(self) -> "ScalarSeries":
        """exp of a series with zero constant term (so the sum terminates)."""
        if self.constant_term:
            raise ExpDomain("exp requires zero constant term")
        return self._power_sum(self.coeffs, (Fraction(1, factorial(k)) for k in count()))

    def sqrt(self) -> "ScalarSeries":
        """Square root of a series with constant term 1."""
        if self.constant_term != 1:
            raise SqrtDomain("sqrt requires constant term 1")
        rest = {key: v for key, v in self.coeffs.items() if key != (0, 0)}
        # binom(1/2, k) = binom(1/2, k-1) * (3 - 2k) / (2k)
        binoms = accumulate(
            count(1), lambda c, k: c * Fraction(3 - 2 * k, 2 * k), initial=Fraction(1)
        )
        return self._power_sum(rest, binoms)

    # -- rendering

    def render(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(
            "*".join([str(val), *_power_factors(("eps", "hbar"), key)])
            for key, val in sorted(self.coeffs.items())
        )

    def __repr__(self):
        return f"ScalarSeries({self.render()})"


# ---------------------------------------------------------------------------
# q-combinatorics used by the quasitriangular structure

def q_integer(k: int, caps: Caps) -> ScalarSeries:
    """[k]_q = 1 + q + ... + q^(k-1) with q = exp(eps*hbar), truncated: the
    coefficient of (eps*hbar)^m is ``sum_{j<k} j^m / m!``."""
    top = min(caps.eps_order, caps.hbar_order)
    return ScalarSeries(
        caps, {(m, m): Fraction(sum(j**m for j in range(k)), factorial(m)) for m in range(top + 1)}
    )


def q_factorial(m: int, caps: Caps) -> ScalarSeries:
    """[m]_q! = [1]_q [2]_q ... [m]_q; reduces to m! at h-degree zero."""
    if m < 0:
        raise InvalidArgument("q_factorial requires m >= 0")
    out = ScalarSeries.one(caps)
    for k in range(2, m + 1):
        out = out * q_integer(k, caps)
    return out
