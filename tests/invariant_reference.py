"""Slow, independent reference for the strand walk (test-only).

This is the original walker of ``knotoidal.invariant.evaluate_Z``: every
state carries ``{monomial: {(e, h): Fraction}}`` dicts, and every deposit is
a truncated ``Fraction`` series product followed by a rewritten monomial
product.  The property tests require the integer-scaled walk to produce
exactly what this produces.
"""

from __future__ import annotations

from fractions import Fraction

from knotoidal.algebra import (
    DElement,
    EDict,
    Mon,
    UNIT_MON,
    _eadd_into,
    get_context,
    r_inverse,
    r_matrix,
    rotation_element,
)
from knotoidal.diagram import Crossing, RotDecomp, Rotation
from knotoidal.errors import KnotoidalError
from knotoidal.series import Caps, _smul


class InvalidDecomposition(KnotoidalError):
    """A decomposition this walker cannot follow."""


def reference_crossing_terms(caps: Caps):
    """Per-sign crossing deposits: lists of (over_mon, under_mon, scalar)."""
    return {
        sign: [(m1, m2, sd) for (m1, m2), sd in tensor.raw().items()]
        for sign, tensor in ((1, r_matrix(caps)), (-1, r_inverse(caps)))
    }


def reference_evaluate(d: RotDecomp, caps: Caps) -> DElement:
    """Universal invariant of the decomposition, walked on Fraction dicts."""
    ctx = get_context(caps)
    plan: dict[int, tuple] = {}
    for tok in d.tokens:
        if isinstance(tok, Crossing):
            first, second = sorted((tok.over, tok.under))
            plan[first] = ("open", tok)
            plan[second] = ("close", tok)
        elif isinstance(tok, Rotation):
            plan[tok.label] = ("rot", tok)
        else:
            raise InvalidDecomposition(f"unknown token {tok!r}")

    crossing_terms = reference_crossing_terms(caps)
    rot_raw = {s: rotation_element(s, caps).raw() for s in (1, -1)}

    def mul_into(acc: EDict, factor_mon: Mon, main_mon: Mon, scal) -> None:
        prod = ctx.mon_mul(factor_mon, main_mon)
        _eadd_into(acc, prod, scal, ctx.K, ctx.N)

    # state: pending tuple of (crossing token id, monomial) -> main element
    states: dict[tuple, EDict] = {(): {UNIT_MON: {(0, 0): Fraction(1)}}}
    token_ids = {id(tok): n for n, tok in enumerate(d.tokens)}

    for label in range(1, d.labels + 1):
        action = plan.get(label)
        if action is None:
            continue
        kind, tok = action
        new_states: dict[tuple, EDict] = {}
        if kind == "rot":
            factor = rot_raw[tok.sign]
            for pending, main in states.items():
                acc = new_states.setdefault(pending, {})
                for fmon, fsd in factor.items():
                    for mmon, msd in main.items():
                        scal = _smul(fsd, msd, ctx.K, ctx.N)
                        if scal:
                            mul_into(acc, fmon, mmon, scal)
        elif kind == "open":
            cid = token_ids[id(tok)]
            over_first = tok.over < tok.under
            for over_mon, under_mon, tsd in crossing_terms[tok.sign]:
                now_mon, pend_mon = (
                    (over_mon, under_mon) if over_first else (under_mon, over_mon)
                )
                entry = (cid, pend_mon)
                for pending, main in states.items():
                    new_pending = tuple(sorted(pending + (entry,)))
                    acc = new_states.setdefault(new_pending, {})
                    for mmon, msd in main.items():
                        scal = _smul(tsd, msd, ctx.K, ctx.N)
                        if scal:
                            mul_into(acc, now_mon, mmon, scal)
        else:  # close
            cid = token_ids[id(tok)]
            for pending, main in states.items():
                match = [entry for entry in pending if entry[0] == cid]
                if not match:
                    raise InvalidDecomposition(
                        f"crossing closes at label {label} without being open"
                    )
                pend_mon = match[0][1]
                rest = tuple(entry for entry in pending if entry[0] != cid)
                acc = new_states.setdefault(rest, {})
                for mmon, msd in main.items():
                    mul_into(acc, pend_mon, mmon, msd)
        states = {p: m for p, m in new_states.items() if m}
        if not states:
            states = {(): {}}
            break

    leftover = [p for p in states if p]
    if leftover:
        raise InvalidDecomposition("crossing opened but never closed")
    return DElement(caps, states.get((), {}), _trusted=True)
