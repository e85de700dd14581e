"""Hypothesis strategies for random rotational decompositions (test-only)."""

from __future__ import annotations

from hypothesis import strategies as st

from knotoidal.diagram import Crossing, RotDecomp, Rotation


@st.composite
def small_decomposition_st(draw, max_slots: int = 8):
    """Up to ``max_slots`` labels with tokens, plus up to two without.

    Crossings take two random labels and rotations one.  The labels left
    without a token make the walk skip labels.
    """
    slots = draw(st.integers(1, max_slots))
    labels = slots + draw(st.integers(0, 2))
    order = draw(st.permutations(list(range(1, labels + 1))))
    tokens = []
    idx = 0
    while idx < slots:
        if slots - idx >= 2 and draw(st.booleans()):
            tokens.append(
                Crossing(draw(st.sampled_from([1, -1])), order[idx], order[idx + 1])
            )
            idx += 2
        else:
            tokens.append(Rotation(draw(st.sampled_from([1, -1])), order[idx]))
            idx += 1
    return RotDecomp(labels, tokens)
