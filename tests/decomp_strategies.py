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


@st.composite
def rotations_inside_crossings_st(draw):
    """One to three crossings, with each rotation placed while a crossing is
    open and a net rotation of 0, +-1 or +-3."""
    n = draw(st.integers(1, 3))
    seq = list(draw(st.permutations([c for c in range(n) for _ in (0, 1)])))
    net = draw(st.sampled_from([0, 1, -1, 3, -3]))
    for sign in [1 if net > 0 else -1] * abs(net) + draw(st.sampled_from([[], [1, -1]])):
        inside = [i for i in range(1, len(seq)) if any(seq[:i].count(c) == 1 for c in range(n))]
        seq.insert(draw(st.sampled_from(inside)), ("rot", sign))
    ends: dict[int, list[int]] = {}
    tokens = []
    for label, item in enumerate(seq, 1):
        if isinstance(item, tuple):
            tokens.append(Rotation(item[1], label))
        else:
            ends.setdefault(item, []).append(label)
    for first, second in ends.values():
        over, under = (first, second) if draw(st.booleans()) else (second, first)
        tokens.append(Crossing(draw(st.sampled_from([1, -1])), over, under))
    return RotDecomp(len(seq), tokens)
