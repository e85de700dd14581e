"""Slow, independent reference for the RT state sum (test-only).

This is the original state sum of ``knotoidal.rt.rt_evaluate``: every
amplitude is a validated :class:`ScalarSeries` of ``Fraction`` coefficients,
every product and every sum builds a new one, and an open step tries every
``(out, enter, exit)`` triple of the weight matrix.  The property tests
require the integer state sum to produce exactly what this produces.
"""

from __future__ import annotations

from knotoidal.diagram import RotDecomp
from knotoidal.errors import DimensionMismatch
from knotoidal.rt import EndpointVectors, RepData
from knotoidal.series import ScalarSeries


def reference_rt_evaluate(d: RotDecomp, rep: RepData, ev: EndpointVectors) -> ScalarSeries:
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
