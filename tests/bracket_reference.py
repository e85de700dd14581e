"""The normalized Kauffman bracket of a knotoid, as a test-side oracle.

``f = (-A^3)^(-w) * <K>`` (Turaev, *Knotoids*, Osaka J. Math. 49, 2012) is an
invariant of knotoids, computed here from an oriented Gauss code by a state
sum over its 2^n smoothings, so it suits codes of up to about 14 crossings.
It shares no code with the package: a simplification or projection that
changes ``f`` changed the knotoid.

Laurent polynomials in ``A`` are ``{exponent: int coefficient}`` dicts with
no zero coefficients.

The code's passes are numbered 0..2n-1; arc ``a`` runs from pass ``a - 1`` to
pass ``a``, so arc 0 starts at the leg and arc 2n ends at the head.  The end
``s`` of arc ``a`` (0 its tail, 1 its head) is the half-edge ``2 * a + s``.
Around a crossing with over pass i and under pass j, counter-clockwise under
``project``'s sign convention (over x under > 0 is +1), the half-edges are
over-out ``(i + 1, 0)``, under-out ``(j + 1, 0)``, over-in ``(i, 1)``,
under-in ``(j, 1)`` for sign +1, and over-out, under-in, over-in, under-out
for sign -1.
"""

from itertools import product


def _mul(p: dict, q: dict) -> dict:
    out: dict[int, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def normalized_bracket(code) -> dict:
    """``f`` of an ``OrientedGaussCode``: the empty code gives ``{0: 1}``."""
    passes = code.passes
    ends = 2 * (len(passes) + 1)  # two half-edges per arc
    over, under = {}, {}
    for p, (cid, role) in enumerate(passes):
        (over if role == "over" else under)[cid] = p
    # each crossing's half-edges (over-out, h1, over-in, h3), counter-clockwise
    corners = []
    for cid, sign in code.signs.items():
        i, j = over[cid], under[cid]
        under_out, under_in = 2 * (j + 1), 2 * j + 1
        h1, h3 = (under_out, under_in) if sign == 1 else (under_in, under_out)
        corners.append((2 * (i + 1), h1, 2 * i + 1, h3))

    # loops per number of B-smoothings; the A-smoothing joins over-out to h3
    # and h1 to over-in, the B-smoothing over-out to h1 and over-in to h3
    states: dict[tuple, int] = {}
    for choice in product((False, True), repeat=len(corners)):
        mate = [-1] * ends  # the leg 0 and the head ends - 1 keep no mate
        for b, (oo, h1, oi, h3) in zip(choice, corners):
            pairs = ((oo, h1), (oi, h3)) if b else ((oo, h3), (h1, oi))
            for x, y in pairs:
                mate[x], mate[y] = y, x
        # follow each component along its arcs (x ^ 1 is the arc's other
        # end) and smoothings; the leg's, traced first, is the long segment
        seen = bytearray(ends)
        components = 0
        for start in range(ends):
            if seen[start]:
                continue
            components += 1
            x = start
            while x >= 0 and not seen[x]:
                seen[x] = seen[x ^ 1] = 1
                x = mate[x ^ 1]
        key = (sum(choice), components - 1)
        states[key] = states.get(key, 0) + 1

    n = len(corners)
    loop = {2: -1, -2: -1}  # d = -A^2 - A^-2
    bracket: dict[int, int] = {}
    for (b, loops), count in states.items():
        term = {n - 2 * b: count}
        for _ in range(loops):
            term = _mul(term, loop)
        for e, c in term.items():
            bracket[e] = bracket.get(e, 0) + c
    w = sum(code.signs.values())
    return _mul(bracket, {-3 * w: 1 if w % 2 == 0 else -1})  # (-A^3)^(-w)
