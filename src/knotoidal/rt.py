"""Representation-valued invariants via state sums, plus the recovery cross-check.

A representation is supplied as raw matrix data over the truncated scalar
ring: the braiding matrix ``R`` of a positive crossing and the rotation weight
``h`` (the image of the clockwise rotation element) with its inverse.  The
state sum over index assignments is evaluated by sequential tensor contraction
along the strand, so the cost is polynomial in the number of segments for a
fixed dimension; the full state space is never materialized.  The walk is the
one of :meth:`RotDecomp.walk`, which :func:`knotoidal.invariant.evaluate_Z`
also follows: an open crossing waits as an ``(enter, exit)`` index pair in a
tuple kept in opening order.

Index convention for ``R``: entry ``R[i*d+j][k*d+l]`` is the weight of an
upward crossing with top-left edge ``i``, top-right ``j``, bottom-left ``k``
and bottom-right ``l``.  For a positive crossing the over-strand runs from
bottom-left to top-right; for a negative crossing the matrix inverse of ``R``
is used and the over-strand runs from bottom-right to top-left.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import DElement, r_matrix, rotation_element
from .diagram import RotDecomp
from .errors import CapsMismatch, DimensionMismatch, NotInvertible
from .series import Caps, ScalarSeries

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


def matrix_eq(A: Matrix, B: Matrix) -> bool:
    return all(A[r][c] == B[r][c] for r in range(len(A)) for c in range(len(A[0])))


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

class RepData:
    """Matrix data of a finite-dimensional representation at fixed caps."""

    def __init__(self, dim: int, R: Matrix, h: Matrix, h_inv: Matrix):
        if dim < 1:
            raise DimensionMismatch("dimension must be positive")
        if len(R) != dim * dim or any(len(row) != dim * dim for row in R):
            raise DimensionMismatch("R must be d^2 x d^2")
        if any(len(M) != dim or any(len(row) != dim for row in M) for M in (h, h_inv)):
            raise DimensionMismatch("h and h_inv must be d x d")
        caps = h[0][0].caps
        if not matrix_eq(matrix_mul(h, h_inv), matrix_identity(caps, dim)):
            raise DimensionMismatch("h * h_inv must be the identity")
        if not all(e.caps == caps for M in (R, h, h_inv) for row in M for e in row):
            raise CapsMismatch("all rep matrices must share one caps")
        self.dim = dim
        self.caps = caps
        self.R = R
        self.h = h
        self.h_inv = h_inv
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

def rt_evaluate(d: RotDecomp, rep: RepData, ev: EndpointVectors) -> ScalarSeries:
    """State sum over edge labelings, contracted along the strand."""
    if len(ev.eta) != rep.dim or len(ev.eps_) != rep.dim:
        raise DimensionMismatch("endpoint vectors must have length dim")
    caps = rep.caps
    dim = rep.dim

    # state: (current edge index, pending (enter, exit) index pairs in the
    # order their crossings opened)
    states: dict[tuple, ScalarSeries] = {}
    for idx, amp in enumerate(ev.eta):
        if not amp.is_zero():
            states[(idx, ())] = amp

    for step in d.walk():
        new_states: dict[tuple, ScalarSeries] = {}

        def bump(key, amp):
            if amp.is_zero():
                return
            cur = new_states.get(key)
            new_states[key] = amp if cur is None else cur + amp

        if step[0] == "rot":
            M = rep.h_inv if step[1] > 0 else rep.h
            for (cur, pending), amp in states.items():
                for out in range(dim):
                    bump((out, pending), amp * M[out][cur])
        elif step[0] == "open":
            _, sign, over_first = step
            M = rep.R if sign > 0 else rep.r_inverse()
            # the walk enters bottom-left and exits top-right on the
            # over-pass of a positive or the under-pass of a negative
            # crossing, and enters bottom-right and exits top-left otherwise
            left_to_right = (sign > 0) == over_first
            for (cur, pending), amp in states.items():
                for out in range(dim):
                    for enter in range(dim):
                        for exit_ in range(dim):
                            if left_to_right:
                                w = M[exit_ * dim + out][cur * dim + enter]
                            else:
                                w = M[out * dim + exit_][enter * dim + cur]
                            if w.is_zero():
                                continue
                            bump((out, pending + ((enter, exit_),)), amp * w)
        else:  # close
            slot = step[1]
            for (cur, pending), amp in states.items():
                enter, exit_ = pending[slot]
                if enter == cur:
                    bump((exit_, pending[:slot] + pending[slot + 1:]), amp)
        states = new_states

    total = ScalarSeries.zero(caps)
    for (cur, _), amp in states.items():
        total = total + amp * ev.eps_[cur]
    return total


# ---------------------------------------------------------------------------
# deriving rep data from generator matrices, and the recovery cross-check

def matrix_of_element(element: DElement, rho: dict[str, Matrix]) -> Matrix:
    """Apply a generator-matrix assignment to a normal-form element."""
    caps = element.caps
    dim = len(rho["y"])
    powers: dict[str, list[Matrix]] = {}

    def power(name: str, exp: int) -> Matrix:
        cache = powers.setdefault(name, [matrix_identity(caps, dim)])
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
    h = matrix_of_element(rotation_element(-1, caps), rho)
    h_inv = matrix_of_element(rotation_element(1, caps), rho)
    return RepData(dim, R, h, h_inv)


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
