"""Representation-valued invariants via state sums, plus the recovery cross-check.

A representation is supplied as raw matrix data over the truncated scalar
ring: the braiding matrix ``R`` of a positive crossing and the rotation weight
``h`` (the image of the clockwise rotation element); :class:`RepData` derives
the rest.  The state sum over index assignments is evaluated by sequential
tensor contraction along the strand, so the cost is polynomial in the number
of segments for a fixed dimension; the full state space is never
materialized.  The walk is :meth:`RotDecomp.walk`, the skeleton of the key
that :func:`knotoidal.invariant.evaluate_Z` reads plus the rotation steps: an
open crossing waits as an ``(enter, exit)`` pair in a tuple in opening order.

The state sum carries integer amplitudes over one common denominator per
call.  The two endpoint vectors, and the weights of each step kind the walk
meets (from ``R``, ``R^-1``, ``h`` or ``h_inv``), are turned once per call
into int coefficient dicts times the least common denominator ``d`` of their
entries; the weights list only the nonzero entries, per current index.  At
each step every state takes an entry of the same matrix, so all states
share one denominator ``D = d_eta * prod(d_step) * d_eps``, and the sum is
divided by it once, at the end.
The state sum shares no table with :mod:`knotoidal.algebra` or
:mod:`knotoidal.invariant`, so it checks the universal invariant
independently; its own oracles are the sum over every edge labeling
(``brute_force_state_sum`` in ``tests/test_rt.py``) and the original
:class:`ScalarSeries` state sum, kept in ``tests/rt_reference.py``.

Index convention for ``R``: entry ``R[i*d+j][k*d+l]`` is the weight of an
upward crossing with top-left edge ``i``, top-right ``j``, bottom-left ``k``
and bottom-right ``l``.  For a positive crossing the over-strand runs from
bottom-left to top-right; for a negative crossing the matrix inverse of ``R``
is used and the over-strand runs from bottom-right to top-left.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from .algebra import DElement, r_matrix, rotation_element
from .diagram import RotDecomp
from .errors import CapsMismatch, DimensionMismatch, InvalidArgument, NotInvertible
from .series import Caps, ScalarSeries, _sadd_into, _smul

Matrix = list[list[ScalarSeries]]


# ---------------------------------------------------------------------------
# matrices over the scalar ring

def matrix_identity(caps: Caps, d: int) -> Matrix:
    return [
        [ScalarSeries.one(caps) if r == c else ScalarSeries.zero(caps) for c in range(d)]
        for r in range(d)
    ]


def matrix_mul(A: Matrix, B: Matrix) -> Matrix:
    n, mid, m = len(A), len(B), len(B[0])
    out = []
    for r in range(n):
        row = []
        for c in range(m):
            acc = ScalarSeries.zero(A[0][0].caps)
            for k in range(mid):
                ark = A[r][k]
                if ark.is_zero():
                    continue
                acc = acc + ark * B[k][c]
            row.append(acc)
        out.append(row)
    return out


def matrix_inverse(A: Matrix) -> Matrix:
    """Inverse by Gauss-Jordan elimination over the truncated series ring.

    A series is a unit exactly when its constant term is nonzero, so such an
    entry can always serve as a pivot.  Taking constant terms is a ring
    homomorphism, so the constant terms of the rows follow Gaussian
    elimination over Q with the same pivots: a pivot is missing exactly when
    the constant-term matrix is singular, and then ``A`` has no inverse.
    """
    n = len(A)
    if not A or any(len(row) != n for row in A):
        raise DimensionMismatch("only a non-empty square matrix has an inverse")
    identity = matrix_identity(A[0][0].caps, n)
    work = [A[r] + identity[r] for r in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col].constant_term), None)
        if pivot is None:
            raise NotInvertible("constant term of matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = work[col][col].invert()
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            factor = work[r][col]
            if r != col and not factor.is_zero():
                work[r] = [v - factor * p for v, p in zip(work[r], work[col])]
    return [row[n:] for row in work]


# ---------------------------------------------------------------------------
# representation data

def _checked_caps(entries: list, what: str, caps: Caps | None = None) -> Caps:
    """The caps of ``entries``, once each is checked to be a
    :class:`ScalarSeries` at ``caps``, or at the first entry's caps."""
    for entry in entries:
        if not isinstance(entry, ScalarSeries):
            raise InvalidArgument(f"{what} entries must be ScalarSeries, got {entry!r}")
        if caps is None:
            caps = entry.caps
        elif entry.caps != caps:
            raise CapsMismatch(f"{what} entry at {entry.caps}, expected {caps}")
    return caps


class RepData:
    """Matrix data of a finite-dimensional representation at fixed caps.

    The inputs are ``R``, d^2 x d^2, and ``h``, d x d, every entry a
    :class:`ScalarSeries` at one caps.  The dimension ``dim``, the ``caps``
    and ``h_inv`` are derived from them; ``R^-1`` is derived on first use,
    by :meth:`r_inverse`.  Raises :class:`DimensionMismatch` for an empty
    or non-square ``h`` or an ``R`` of another shape,
    :class:`InvalidArgument` for a matrix or row that is not a list or
    tuple, or an entry that is not a series,
    :class:`CapsMismatch` for entries at different caps, and
    :class:`NotInvertible` for a singular ``h``.
    """

    def __init__(self, R: Matrix, h: Matrix):
        for M in (R, h):
            if not isinstance(M, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in M):
                raise InvalidArgument(f"a rep matrix must be a list or tuple of rows, got {M!r}")
        dim = len(h)
        if dim < 1 or any(len(row) != dim for row in h):
            raise DimensionMismatch("h must be a non-empty square matrix")
        if len(R) != dim * dim or any(len(row) != dim * dim for row in R):
            raise DimensionMismatch("R must be d^2 x d^2")
        caps = _checked_caps([e for M in (R, h) for row in M for e in row], "rep matrix")
        self.dim = dim
        self.caps = caps
        self.R = R
        self.h = h
        self.h_inv = matrix_inverse(h)
        self._r_inv: Matrix | None = None

    def r_inverse(self) -> Matrix:
        if self._r_inv is None:
            self._r_inv = matrix_inverse(self.R)
        return self._r_inv


@dataclass
class EndpointVectors:
    """Generic endpoint contractions: eta enters at the leg, eps_ leaves at the head."""

    eta: list[ScalarSeries]
    eps_: list[ScalarSeries]


# ---------------------------------------------------------------------------
# state-sum evaluation by sequential contraction

def _scaled(entries: list[ScalarSeries]) -> tuple[list[dict], int]:
    """The coefficient dicts of ``entries`` times their least common
    denominator ``d``, so with int values, and ``d``."""
    d = lcm(*(c.denominator for s in entries for c in s.coeffs.values()))
    return [{key: c.numerator * (d // c.denominator) for key, c in s.coeffs.items()} for s in entries], d


def _endpoint(vector: list, rep: RepData) -> tuple[list[dict], int]:
    """An endpoint vector scaled by :func:`_scaled`, once it is checked to
    have ``rep.dim`` entries, each a :class:`ScalarSeries` at ``rep.caps``."""
    if len(vector) != rep.dim:
        raise DimensionMismatch("endpoint vectors must have length dim")
    _checked_caps(vector, "endpoint vector", rep.caps)
    return _scaled(vector)


def _step_weights(rep: RepData, step: tuple) -> tuple[list[list], int]:
    """The weights of a ``("rot", sign)`` or ``("open", sign, over_first)``
    step: per current index, the nonzero entries ``(out, extra, w)`` of its
    matrix, with ``w`` an int dict, ``d`` times the entry, and ``extra`` the
    ``(enter, exit)`` pair the step leaves pending, ``()`` for a rotation;
    and ``d``, the least common denominator of the whole matrix."""
    dim = rep.dim
    if step[0] == "rot":
        M = rep.h_inv if step[1] > 0 else rep.h
        picks = [(cur, out, (), M[out][cur]) for cur in range(dim) for out in range(dim)]
    else:
        _, sign, over_first = step
        M = rep.R if sign > 0 else rep.r_inverse()
        # the walk enters bottom-left and exits top-right on the over-pass
        # of a positive or the under-pass of a negative crossing, and enters
        # bottom-right and exits top-left otherwise
        left_to_right = (sign > 0) == over_first
        picks = [
            (
                cur,
                out,
                ((enter, exit_),),
                M[exit_ * dim + out][cur * dim + enter]
                if left_to_right
                else M[out * dim + exit_][enter * dim + cur],
            )
            for cur, out, enter, exit_ in product(range(dim), repeat=4)
        ]
    ws, d = _scaled([entry for *_, entry in picks])
    table: list[list] = [[] for _ in range(dim)]
    for (cur, out, extra, _), w in zip(picks, ws):
        if w:
            table[cur].append((out, extra, w))
    return table, d


def rt_evaluate(d: RotDecomp, rep: RepData, ev: EndpointVectors) -> ScalarSeries:
    """State sum over edge labelings, contracted along the strand.

    Raises :class:`DimensionMismatch` for an endpoint vector whose length is
    not ``rep.dim``, :class:`InvalidArgument` for an entry of one that is not
    a :class:`ScalarSeries`, and :class:`CapsMismatch` for one at other caps.
    """
    eta, d_eta = _endpoint(ev.eta, rep)
    eps_, d_eps = _endpoint(ev.eps_, rep)
    K, N = rep.caps.eps_order, rep.caps.hbar_order

    # state: (current edge index, pending (enter, exit) index pairs in the
    # order their crossings opened) -> int amplitude, D times the true one;
    # each amplitude has one owner, so a close may add into it in place
    states: dict[tuple, dict] = {(idx, ()): amp for idx, amp in enumerate(eta) if amp}
    D = d_eta
    weights: dict[tuple, tuple] = {}
    for step in d.walk():
        new_states: dict[tuple, dict] = {}
        if step[0] == "close":
            slot = step[1]
            for (cur, pending), amp in states.items():
                enter, exit_ = pending[slot]
                if enter == cur:
                    key = (exit_, pending[:slot] + pending[slot + 1:])
                    acc = new_states.get(key)
                    if acc is None:
                        new_states[key] = amp
                    else:
                        _sadd_into(acc, amp)
        else:
            if step not in weights:
                weights[step] = _step_weights(rep, step)
            table, d_step = weights[step]
            for (cur, pending), amp in states.items():
                for out, extra, w in table[cur]:
                    prod = _smul(amp, w, K, N)
                    if not prod:
                        continue
                    key = (out, pending + extra)
                    acc = new_states.get(key)
                    if acc is None:
                        new_states[key] = prod
                    else:
                        _sadd_into(acc, prod)
            # every state took an entry of the same matrix
            D *= d_step
        states = {key: amp for key, amp in new_states.items() if amp}

    total: dict = {}
    for (cur, _), amp in states.items():
        _sadd_into(total, _smul(amp, eps_[cur], K, N))
    D *= d_eps
    return ScalarSeries(rep.caps, {key: Fraction(c, D) for key, c in total.items()})


# ---------------------------------------------------------------------------
# deriving rep data from generator matrices, and the recovery cross-check

def matrix_of_element(element: DElement, rho: dict[str, Matrix]) -> Matrix:
    """Apply a generator-matrix assignment to a normal-form element."""
    caps = element.caps
    dim = len(rho["y"])
    powers: dict[str, list[Matrix]] = {}

    def power(name: str, exp: int) -> Matrix:
        cache = powers.get(name)
        if cache is None:
            cache = powers[name] = [matrix_identity(caps, dim)]
        while len(cache) <= exp:
            cache.append(matrix_mul(cache[-1], rho[name]))
        return cache[exp]

    out = [[ScalarSeries.zero(caps) for _ in range(dim)] for _ in range(dim)]
    for mon, coeff in element.terms.items():
        M = power("y", mon[0])
        for name, exp in zip("bax", mon[1:]):
            if exp:
                M = matrix_mul(M, power(name, exp))
        for r in range(dim):
            for c in range(dim):
                if not M[r][c].is_zero():
                    out[r][c] = out[r][c] + coeff * M[r][c]
    return out


def derive_rep(caps: Caps, rho: dict[str, Matrix]) -> RepData:
    """Build crossing and rotation weights from generator matrices.

    The crossing matrix entry for top indices (i, j) and bottom indices (k, l)
    is the sum over the quasitriangular terms of rho(first)[j][k] *
    rho(second)[i][l]; the rotation weight is the image of the clockwise
    rotation element.
    """
    dim = len(rho["y"])
    rmat = r_matrix(caps)
    R = [[ScalarSeries.zero(caps) for _ in range(dim * dim)] for _ in range(dim * dim)]
    for (m1, m2), coeff in rmat.terms.items():
        A = matrix_of_element(DElement.monomial(caps, m1), rho)
        B = matrix_of_element(DElement.monomial(caps, m2), rho)
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    for l in range(dim):
                        inc = coeff * A[j][k] * B[i][l]
                        if not inc.is_zero():
                            R[i * dim + j][k * dim + l] = R[i * dim + j][k * dim + l] + inc
    return RepData(R, matrix_of_element(rotation_element(-1, caps), rho))


@dataclass(frozen=True)
class RecoveryResult:
    passed: bool
    details: str = ""


def recovery_check(
    d: RotDecomp, rep: RepData, rho: dict[str, Matrix], ev: EndpointVectors
) -> RecoveryResult:
    """Check that the state sum equals the contracted universal invariant.

    The left side is :func:`rt_evaluate`; the right side applies the generator
    matrices to the universal invariant of the decomposition and contracts
    with the endpoint vectors.  Exact equality is required.
    """
    from .invariant import evaluate_Z

    state_sum = rt_evaluate(d, rep, ev)
    universal = evaluate_Z(d, rep.caps)
    M = matrix_of_element(universal.element, rho)
    contracted = ScalarSeries.zero(rep.caps)
    for r in range(rep.dim):
        for c in range(rep.dim):
            contracted = contracted + ev.eps_[r] * M[r][c] * ev.eta[c]
    if state_sum == contracted:
        return RecoveryResult(True)
    return RecoveryResult(
        False,
        f"state sum {state_sum.render()} != contracted universal value {contracted.render()}",
    )
