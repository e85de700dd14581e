import random
import sys
import time
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from knotoidal import algebra, invariant
from knotoidal.algebra import (
    DElement,
    UNIT_MON,
    _exp_ab_raw,
    _scaled,
    _walk_scale,
    antipode,
    rotation_element,
)
from knotoidal.diagram import (
    TRIVIAL_DECOMP,
    Crossing,
    RotDecomp,
    Rotation,
    chain_decompositions,
    fixtures,
    insert_r2_pair,
    insert_rotation_pair,
    parse_decomposition,
    reverse_decomposition,
    table_rows,
)
from knotoidal.errors import (
    CapsMismatch,
    CapsTooCostly,
    DegreeOutOfRange,
    InvalidArgument,
    KnotoidalError,
    NonIntegralScale,
)
from knotoidal.invariant import _crossing_terms, compare, evaluate_Z
from knotoidal.series import Caps, _sadd_into, _smul

from algebra_reference import reference_context
from decomp_strategies import rotations_inside_crossings_st, small_decomposition_st
from invariant_reference import reference_evaluate, reference_walk, reference_walk_key

GOLDEN = Path(__file__).parent / "golden"

CAPS = Caps(1, 3)


@pytest.fixture(scope="module")
def fixture_values():
    fx = fixtures()
    return {name: evaluate_Z(decomp, CAPS) for name, (_, decomp) in fx.items()}


def test_trivial_is_unit():
    value = evaluate_Z(TRIVIAL_DECOMP, CAPS)
    assert value.element == DElement.unit(CAPS)


def test_cancelling_rotations_give_unit():
    d = parse_decomposition("labels 2; C+ 1; C- 2")
    assert evaluate_Z(d, CAPS).element == DElement.unit(CAPS)


def test_single_rotation_matches_rotation_element():
    from knotoidal.algebra import rotation_element

    d = parse_decomposition("labels 1; C- 1")
    assert evaluate_Z(d, CAPS).element == rotation_element(-1, CAPS)


def test_rotation_pair_insertion_invariance(fixture_values):
    fx = fixtures()
    for name, (_, decomp) in fx.items():
        modified = insert_rotation_pair(decomp, 1)
        assert evaluate_Z(modified, CAPS).element == fixture_values[name].element, name


def test_r2_insertion_invariance(fixture_values):
    fx = fixtures()
    for name, (_, decomp) in fx.items():
        for sign in (1, -1):
            modified = insert_r2_pair(decomp, 1, decomp.labels, sign)
            assert evaluate_Z(modified, CAPS).element == fixture_values[name].element, name


def test_reversal_is_antipode(fixture_values):
    fx = fixtures()
    for name, (_, decomp) in fx.items():
        reversed_value = evaluate_Z(reverse_decomposition(decomp), CAPS)
        assert reversed_value.element == antipode(fixture_values[name].element), name


def test_double_reversal_fixed(fixture_values):
    fx = fixtures()
    for name, (_, decomp) in fx.items():
        twice = reverse_decomposition(reverse_decomposition(decomp))
        assert evaluate_Z(twice, CAPS).element == fixture_values[name].element, name


def test_antipode_squared_fixes_values(fixture_values):
    for name, value in fixture_values.items():
        assert antipode(antipode(value.element)) == value.element, name


def test_determinism(fixture_values):
    again = evaluate_Z(fixtures()["5_561"][1], CAPS)
    assert again.element.render() == fixture_values["5_561"].element.render()
    assert again.fingerprint == fixture_values["5_561"].fingerprint


def test_compare_self_equal(fixture_values):
    assert compare(fixture_values["5_9"], fixture_values["5_9"]).equal


def test_compare_caps_mismatch(fixture_values):
    other = evaluate_Z(TRIVIAL_DECOMP, Caps(1, 2))
    with pytest.raises(CapsMismatch):
        compare(fixture_values["5_9"], other)


def test_compare_witness_at_eps_one(fixture_values):
    verdict = compare(fixture_values["5_9"], fixture_values["5_561"])
    assert not verdict.equal
    mon, eps_deg, hbar_deg = verdict.witness
    assert eps_deg == 1
    assert "Differ" in verdict.describe()


def test_undistinguished_pair_equal(fixture_values):
    assert compare(fixture_values["5_7"], fixture_values["5_421"]).equal


def test_epsilon_coefficient_trivial():
    value = evaluate_Z(TRIVIAL_DECOMP, CAPS)
    assert value.element.epsilon_part(0) == DElement.unit(CAPS)
    assert value.element.epsilon_part(1).is_zero()
    with pytest.raises(DegreeOutOfRange):
        value.element.epsilon_part(2)


def test_leading_normalization_of_5_7(fixture_values):
    # the generator-free part of the eps^0 coefficient is exp(-hbar*b/2):
    # the prefactor normalization of the five-crossing examples
    eps0 = fixture_values["5_7"].element.epsilon_part(0)
    b_only = {
        mon: sd for mon, sd in eps0.raw().items() if mon[0] == mon[2] == mon[3] == 0
    }
    expected = _exp_ab_raw(Fraction(0), Fraction(-1, 2), CAPS.eps_order, CAPS.hbar_order)
    assert b_only == expected
    assert eps0.raw()[(0, 0, 0, 0)][(0, 0)] == 1


def test_golden_rendering_of_5_7(fixture_values):
    golden = (GOLDEN / "z_5_7_caps_1_3.txt").read_text()
    assert fixture_values["5_7"].element.render() + "\n" == golden


@settings(max_examples=15, deadline=None)
@given(small_decomposition_st())
def test_reversal_law_on_random_decompositions(d):
    caps = Caps(1, 2)
    assert evaluate_Z(reverse_decomposition(d), caps).element == antipode(
        evaluate_Z(d, caps).element
    )


@settings(max_examples=15, deadline=None)
@given(small_decomposition_st())
def test_antipode_squared_fixes_random_values(d):
    caps = Caps(1, 2)
    value = evaluate_Z(d, caps).element
    assert antipode(antipode(value)) == value


def test_invariant_json_layout(fixture_values):
    data = fixture_values["5_9"].to_json()
    assert data["caps"] == {"eps_order": 1, "hbar_order": 3}
    assert {"monomial", "eps", "hbar", "coeff"} <= set(data["terms"][0])
    assert data["terms"] == sorted(
        data["terms"],
        key=lambda t: (sum(t["monomial"]), t["monomial"], t["eps"], t["hbar"]),
    )


# ---------------------------------------------------------------------------
# the integer-scaled walk against the Fraction walker, and its scale


@pytest.mark.parametrize("caps", [Caps(0, 3), Caps(1, 2), Caps(1, 4), Caps(2, 2)], ids=str)
@settings(max_examples=20, deadline=None)
@given(d=small_decomposition_st())
def test_walk_matches_fraction_walker(caps, d):
    assert evaluate_Z(d, caps).element.to_json() == reference_evaluate(d, caps).to_json()


def test_walk_matches_fraction_walker_on_fixtures():
    # (1,4), then the corners of the packed keys: N = 0, K = 0 and K > 1
    for caps in (Caps(1, 4), Caps(0, 0), Caps(1, 0), Caps(2, 0), Caps(3, 2)):
        for name, (_, decomp) in fixtures().items():
            value = evaluate_Z(decomp, caps)
            assert value.element.to_json() == reference_evaluate(decomp, caps).to_json(), (caps, name)


@pytest.mark.parametrize("caps", [Caps(0, 3), Caps(1, 4), Caps(2, 3)], ids=str)
@settings(max_examples=20, deadline=None)
@given(d=rotations_inside_crossings_st())
@example(d=parse_decomposition("labels 5; R+ 1 5; C+ 2; R- 3 4"))
@example(d=parse_decomposition("labels 6; R- 6 1; C+ 2; R+ 3 5; C- 4"))
@example(d=parse_decomposition("labels 7; R- 1 7; C- 2; R+ 3 6; C- 4; C- 5"))
@example(d=parse_decomposition("labels 5; R+ 1 4; C+ 2; R- 3 5"))
@example(d=parse_decomposition("labels 9; R+ 1 6; R- 2 7; C+ 3; R+ 4 8; R- 5 9"))
@example(d=parse_decomposition("labels 5; R+ 1 5; C+ 2; C+ 3; C+ 4"))
def test_walk_matches_fraction_walker_with_rotations_inside_crossings(caps, d):
    # the walk twists each crossing's states once, by the net rotation
    # between its two labels, where the fewest crossings are pending in its
    # span, and deposits the net rotation of the walk once at the end; the
    # Fraction walker deposits each rotation in place.  The fourth example
    # twists before its second open, and the fifth twists two crossings
    # before two opens; the last one's q**(3 * w(P)) reaches its k = 2 term
    # at (2,3)
    assert evaluate_Z(d, caps).element.to_json() == reference_evaluate(d, caps).to_json()


def test_rotations_that_cancel_inside_a_crossing_cost_no_twist(monkeypatch):
    def no_twist(self, main, t):
        raise AssertionError(f"twisted by q**{t}")

    monkeypatch.setattr(invariant._WalkTables, "twist", no_twist)
    d, caps = parse_decomposition("labels 4; R+ 1 4; C+ 2; C- 3"), Caps(1, 4)
    assert evaluate_Z(d, caps).element.to_json() == reference_evaluate(d, caps).to_json()


def test_twist_drops_the_terms_it_cancels():
    # q**t * (1 - t * q_1 * eps*hbar) at caps (1,1): the eps*hbar term
    # cancels and leaves main, which stays the same dict
    tables = invariant._WalkTables(Caps(1, 1))
    t, q1 = 3, tables.ctx.q[0, 0, 1, 1]
    unit, cancelled = tables.key(UNIT_MON, 0, 0), tables.key(UNIT_MON, 1, 1)
    main = {unit: 1, cancelled: -t * q1}
    tables.twist(main, t)
    assert main == {unit: 1}


def test_twists_leave_no_zero_term_in_the_walk(monkeypatch):
    # the six fixtures at (1,3) twist 315 times, and 16 of those twists
    # cancel a term to zero
    twist, zeros = invariant._WalkTables.twist, []

    def checked(self, main, t):
        twist(self, main, t)
        zeros.append(0 in main.values())

    monkeypatch.setattr(invariant._WalkTables, "twist", checked)
    monkeypatch.setattr(invariant, "_TABLES", {})
    for _, d in fixtures().values():
        evaluate_Z(d, CAPS)
    assert zeros and not any(zeros)


def _handed_on(d, caps) -> list:
    """``(kind, states)`` for each step of the walk of ``d``: the kind of
    the step and the states it hands on, read from the walk's frame."""
    code, skeleton = invariant._evaluate_key.__code__, _key(d)[0]
    handed: list = []

    def step_line(frame, event, arg):
        # the walk's locals at the first line of step i hold what step i - 1
        # handed on, and on return what the last step handed on
        if event == "return" or frame.f_locals.get("i") == len(handed) + 1:
            states = frame.f_locals["states"]
            handed.append((skeleton[len(handed)][0], {p: dict(main) for p, main in states.items()}))
        return step_line

    sys.settrace(lambda frame, event, arg: step_line if frame.f_code is code else None)
    try:
        evaluate_Z(d, caps)
    finally:
        sys.settrace(None)
    assert len(handed) == len(skeleton)
    return handed


def test_walk_hands_on_no_empty_state_and_no_zero_term(monkeypatch):
    # an open adds each tag's products into its child and drops the zeros
    # of each child there, a close drops those of the states it adds into;
    # the six fixtures at (1,3) cancel terms to zero at both kinds of step
    children, zero_kids = invariant._Deposit.children, []

    def counted(self, main):
        kids = children(self, main)
        zero_kids.extend(kid for kid in kids.values() if 0 in kid.values())
        return kids

    monkeypatch.setattr(invariant._Deposit, "children", counted)
    kinds = set()
    for _, d in fixtures().values():
        for kind, states in _handed_on(d, CAPS):
            kinds.add(kind)
            assert all(main and 0 not in main.values() for main in states.values()), kind
    assert kinds == {"open", "close"} and zero_kids


@pytest.mark.parametrize(
    "text, plan",
    [
        # one pending before the second open, two at the close
        ("labels 5; R+ 1 4; C+ 2; R- 3 5", {1: [(0, 1)]}),
        # each of the first two twists before the next open: one and two pending
        ("labels 9; R+ 1 6; R- 2 7; C+ 3; R+ 4 8; R- 5 9", {1: [(0, 1)], 2: [(1, 1)]}),
        # twisted once, by the net rotation, at the close
        ("labels 5; R+ 1 5; C+ 2; C+ 3; C+ 4", {1: [(0, 3)]}),
        ("labels 4; R+ 1 4; C+ 2; C- 3", {}),
    ],
)
def test_each_crossing_twists_once_where_fewer_crossings_are_pending(text, plan):
    assert invariant._twist_plan(*_key(parse_decomposition(text))[:2]) == plan


@settings(max_examples=50, deadline=None)
@given(d=small_decomposition_st())
@example(d=parse_decomposition("labels 9; R+ 1 6; R- 2 7; C+ 3; R+ 4 8; R- 5 9"))
def test_twists_lie_in_their_spans_with_no_more_crossings_pending(d):
    # each crossing of rho != 0 twists once, after its open and up to its
    # close, with no more crossings pending than at its first rotation step
    # or at its close
    skeleton, rhos, _ = _key(d)
    before, spans, closed, first_rot, opened = [], {}, [], {}, []
    for step in d.walk():
        if step[0] == "rot":
            for c in opened:
                first_rot.setdefault(c, len(opened))
            continue
        before.append(tuple(opened))
        if step[0] == "open":
            spans[len(spans)] = [len(before) - 1]
            opened.append(len(spans) - 1)
        else:
            closed.append(opened.pop(step[1]))
            spans[closed[-1]].append(len(before) - 1)
    twisted = {}
    for i, twists in invariant._twist_plan(skeleton, rhos).items():
        for slot, rho in twists:
            c = before[i][slot]
            assert c not in twisted
            twisted[c] = rho
            start, close = spans[c]
            assert start < i <= close
            assert len(before[i]) <= min(len(before[close]), first_rot[c])
    assert twisted == {c: rho for c, rho in zip(closed, rhos) if rho}


def _key(d):
    return reference_walk_key(reference_walk(d))


def _replaced_rotations(d, label: int) -> list:
    """Decompositions that place d's rotation tokens differently but keep
    its key: a C+ C- pair inserted on segment ``label``, each pair of
    opposite rotations in one gap between passes swapped, and each rotation
    before the first pass moved after the last."""
    passes = sorted(label for c in d.crossings() for label in (c.over, c.under))
    gap = {rot: bisect_right(passes, rot.label) for rot in d.rotations()}
    out = [insert_rotation_pair(d, label)]
    for a, b in combinations(gap, 2):
        if gap[a] == gap[b] and a.sign != b.sign:
            swap = {a: Rotation(b.sign, a.label), b: Rotation(a.sign, b.label)}
            out.append(RotDecomp(d.labels, [swap.get(tok, tok) for tok in d.tokens]))
    for rot in gap:
        if gap[rot] == 0:
            tokens = [tok for tok in d.tokens if tok != rot] + [Rotation(rot.sign, d.labels + 1)]
            out.append(RotDecomp(d.labels + 1, tokens))
    return out


@settings(max_examples=20, deadline=None)
@given(d=small_decomposition_st(), data=st.data())
@example(d=parse_decomposition("labels 6; C+ 1; C- 2; R+ 3 5; C+ 4; C- 6"), data=None)
@example(d=parse_decomposition("labels 7; C- 1; R- 2 6; C+ 3; C- 4; R+ 5 7"), data=None)
def test_replacing_rotations_keeps_the_key_and_the_value(d, data):
    # evaluate_Z reads rotations only through each crossing's net rotation
    # between its two labels and the walk's net rotation, which these moves
    # keep; measure's zmean memo relies on it
    label = 1 if data is None else data.draw(st.integers(1, d.labels))
    for caps in (Caps(1, 2), Caps(2, 3)):
        value = evaluate_Z(d, caps).element
        for moved in _replaced_rotations(d, label):
            assert _key(moved) == _key(d), moved
            assert evaluate_Z(moved, caps).element == value, (moved, caps)


def test_replacing_rotations_covers_every_move():
    # the examples above exercise the swap and the move to the head
    d = parse_decomposition("labels 6; C+ 1; C- 2; R+ 3 5; C+ 4; C- 6")
    assert len(_replaced_rotations(d, 1)) == 1 + 1 + 2
    assert _key(d) == ((("open", 1, True), ("close", 0)), (1,), 0)


@settings(max_examples=20, deadline=None)
@given(d=small_decomposition_st())
@example(d=parse_decomposition("labels 3; C+ 1; R+ 2 3"))
def test_moving_a_rotation_across_a_pass_changes_the_key(d):
    # swap the labels of a rotation and a pass next to it in label order:
    # the rotation enters or leaves that crossing's span, and nothing else
    # moves
    kind = {rot.label: rot for rot in d.rotations()}
    kind.update((label, c) for c in d.crossings() for label in (c.over, c.under))
    order = sorted(kind)
    pairs = [
        (a, b)
        for a, b in zip(order, order[1:])
        if isinstance(kind[a], Rotation) != isinstance(kind[b], Rotation)
    ]
    assume(pairs)
    for a, b in pairs:
        swap = {a: b, b: a}
        tokens = [
            Rotation(tok.sign, swap.get(tok.label, tok.label))
            if isinstance(tok, Rotation)
            else Crossing(tok.sign, swap.get(tok.over, tok.over), swap.get(tok.under, tok.under))
            for tok in d.tokens
        ]
        moved = RotDecomp(d.labels, tokens)
        assert _key(moved) != _key(d), moved
        assert _key(moved)[0] == _key(d)[0] and _key(moved)[2] == _key(d)[2]


def test_the_key_needs_each_crossings_net_rotation():
    # the two differ only in rho, and so in value: a key without rho would
    # merge them
    inside = parse_decomposition("labels 3; C+ 2; R+ 1 3")
    outside = parse_decomposition("labels 3; C+ 1; R+ 2 3")
    assert _key(inside)[::2] == _key(outside)[::2] and _key(inside) != _key(outside)
    assert evaluate_Z(inside, Caps(1, 2)).element != evaluate_Z(outside, Caps(1, 2)).element


def _differences_along_rho(key, k, caps):
    """The eps_order-th finite differences of Z along rho_k, at rho_k and at
    rho_k + 1."""
    skeleton, rhos, r = key
    values = [
        invariant._evaluate_key((skeleton, rhos[:k] + (rhos[k] + m,) + rhos[k + 1 :], r), caps)
        for m in range(caps.eps_order + 2)
    ]
    for _ in range(caps.eps_order):
        values = [b - a for a, b in zip(values, values[1:])]
    return values


@pytest.mark.parametrize("caps", [Caps(1, 3), Caps(2, 3)], ids=["1,3", "2,3"])
def test_Z_is_a_polynomial_of_degree_eps_order_in_rho(caps):
    # rho enters the walk only through the twists q^(w(P)*rho), and q =
    # exp(eps*hbar) is cut at eps^K: the (K+1)-th difference along any rho_k
    # vanishes, and some K-th difference does not
    rng, nonzero = random.Random(38), 0
    for name, (_, decomp) in sorted(fixtures().items()):
        skeleton, rhos, r = decomp.key()
        for _ in range(3):
            rhos = tuple(rng.randint(-3, 3) for _ in rhos)
            here, next_ = _differences_along_rho((skeleton, rhos, r), rng.randrange(len(rhos)), caps)
            assert here == next_, name
            nonzero += not here.is_zero()
    assert nonzero


@settings(max_examples=40, deadline=None)
@given(
    d=small_decomposition_st(max_slots=8),
    caps=st.sampled_from([Caps(1, 2), Caps(2, 2)]),
    data=st.data(),
)
def test_Z_is_a_polynomial_in_rho_on_random_keys(d, caps, data):
    # needs no realizability: any key's rho may be moved
    skeleton, rhos, r = d.key()
    assume(rhos)
    k = data.draw(st.integers(0, len(rhos) - 1))
    shift = data.draw(st.integers(-3, 3))
    rhos = rhos[:k] + (rhos[k] + shift,) + rhos[k + 1 :]
    here, next_ = _differences_along_rho((skeleton, rhos, r), k, caps)
    assert here == next_


def test_chain_value_is_the_product_of_the_values():
    caps, fx = Caps(1, 3), fixtures()
    for first, second, _ in table_rows():
        if first in fx:
            a, b = fx[first][1], fx[second][1]
            for x, y in ((a, b), (b, a)):
                value = evaluate_Z(chain_decompositions(x, y), caps).element
                assert value == evaluate_Z(y, caps).element * evaluate_Z(x, caps).element


@settings(max_examples=15, deadline=None)
@given(a=small_decomposition_st(max_slots=6), b=small_decomposition_st(max_slots=6))
def test_chain_value_is_the_product_on_random_pairs(a, b):
    caps = Caps(1, 3)
    value = evaluate_Z(chain_decompositions(a, b), caps).element
    assert value == evaluate_Z(b, caps).element * evaluate_Z(a, caps).element


@settings(max_examples=20, deadline=None)
@given(d=small_decomposition_st(), n=st.integers(1, 3))
def test_truncation_consistent_across_caps(d, n):
    # each caps has its own scale L, so this also checks the scale across caps
    raw = evaluate_Z(d, Caps(1, n + 1)).element.raw()
    assert DElement(Caps(1, n), raw) == evaluate_Z(d, Caps(1, n)).element
    raw = evaluate_Z(d, Caps(1, n)).element.raw()
    assert DElement(Caps(0, n), raw) == evaluate_Z(d, Caps(0, n)).element


def _deposits(tables) -> list:
    """``(kind, deposit)`` for every deposit of ``tables``."""
    return [
        *(("close", dep) for dep in tables.monomials.values()),
        *(("rotation", dep) for dep in tables.rotation.values()),
        *(("crossing", dep) for dep, _ in tables.crossing.values()),
    ]


def _exact_parts(tables) -> list:
    """``(kind, deposit, parts)`` for every deposit of ``tables``, ``parts``
    its element as ``(D, exact scalar, tag)`` taken from the algebra, not
    from the deposit: a crossing kind's tag is the index of the term's
    pending monomial in the kind's ``pending``, which holds monomial ids."""
    caps, terms, mons = tables.caps, _crossing_terms(tables.caps), tables.mons
    out = [("close", dep, [(mons[mid], {(0, 0): Fraction(1)}, 0)]) for mid, dep in tables.monomials.items()]
    for s, dep in tables.rotation.items():
        out.append(("rotation", dep, [(mon, sd, 0) for mon, sd in rotation_element(s, caps).raw().items()]))
    for (sign, over_first), (dep, pending) in tables.crossing.items():
        # every term but 1 (x) 1: the walk carries that term's child, the
        # parent's own main element, by reference
        unit = [term for term in terms[sign] if term[:2] == (UNIT_MON, UNIT_MON)]
        assert unit == [(UNIT_MON, UNIT_MON, {(0, 0): 1})]
        split = [
            (over, under, sd) if over_first else (under, over, sd)
            for over, under, sd in terms[sign]
            if (over, under) != (UNIT_MON, UNIT_MON)
        ]
        pending = [mons[mid] for mid in pending]
        out.append(("crossing", dep, [(now, sd, pending.index(pend)) for now, pend, sd in split]))
    return out


def _rows() -> dict:
    """Every filled walk row, by caps, deposit and key."""
    return {
        (caps, id(dep), key): row
        for caps, tables in invariant._TABLES.items()
        for _, dep in _deposits(tables)
        for key, row in dep.rows.items()
    }


def _split(dep, row) -> tuple:
    """The ``(g, terms)`` of a row of ``dep``: a row of a crossing kind
    holds them, and the row of a deposit of one tag is its terms alone."""
    if dep.tags > 1:
        return row
    return ((0, row),) if row else ()


def _unpacked(tables, dep, key, row) -> dict:
    """The row of ``dep`` under ``key`` as ``{(tag, monomial): {(pe, ph): c * L**ph}}``,
    each product key shifted back by the state term's ``e * (N+1) + h``;
    checked to hold each of its tags once, in ascending order, each with at
    least one term, and each tag's terms to be sorted by ph, which a cut
    relies on to stop at the first term past its reach."""
    r = key % tables.S
    out: dict = {}
    tags = [g for g, _ in _split(dep, row)]
    assert tags == sorted(set(tags)) and set(tags) <= set(range(dep.tags))
    for g, terms in _split(dep, row):
        assert terms and len(terms) % 2 == 0
        phs = []
        it = iter(terms)
        for k, c in zip(it, it):
            mid, rest = divmod(k - r, tables.S)
            pe, ph = divmod(rest, tables.ctx.N + 1)
            assert (pe, ph) not in out.get((g, tables.mons[mid]), {})
            out.setdefault((g, tables.mons[mid]), {})[pe, ph] = c
            phs.append(ph)
        assert phs == sorted(phs)
    return out


def _tagged_products(tables, parts, mon, depth, product) -> dict:
    """The element of ``parts`` times ``mon`` to ``hbar^depth``, tag by tag:
    for each tag, the sum over the parts of that tag of scalar * D * mon,
    each ``product(D, mon, scalar)`` giving the scalar and the product to
    multiply."""
    out: dict = {}
    for dmon, sd, g in parts:
        if min(h for _, h in sd) > depth:
            continue  # no term of the product survives the cut
        sd, source = product(dmon, mon, sd)
        for pmon, psd in source.items():
            _sadd_into(out.setdefault((g, pmon), {}), _smul(sd, psd, tables.ctx.K, depth))
    return out


def _checked_rows(tables) -> set:
    """Check every row of ``tables`` against the sum of its deposit's
    scalars times the products, tag by tag, cut to ``pe <= K - e`` and ``ph
    <= N - h`` for its key's (e, h): as ``_Context.product`` times the scaled
    scalar, and as the ``Fraction`` oracle, which shares no table with the
    walk, times the exact scalar.  Return the kinds of the deposits read."""
    ref, ctx, S, N1 = reference_context(tables.caps), tables.ctx, tables.S, tables.ctx.N + 1

    def scaled(dmon, mon, sd):
        return ctx.scaled(sd), ctx.product(dmon, mon)

    def exact(dmon, mon, sd):
        return sd, ref.mon_mul(dmon, mon)

    kinds = set()
    for kind, dep, parts in _exact_parts(tables):
        keys: dict = {}
        for key in dep.rows:
            keys.setdefault(key // S, []).append(key % S)
        for mid, rs in keys.items():
            mon, depth = tables.mons[mid], ctx.N - min(r % N1 for r in rs)
            full = [_tagged_products(tables, parts, mon, depth, way) for way in (scaled, exact)]
            for r in rs:
                e, h = divmod(r, N1)
                got = _unpacked(tables, dep, mid * S + r, dep.rows[mid * S + r])
                for want, terms in zip(full, (got, ctx.unscaled(got))):
                    cut = {
                        tagged: {(pe, ph): c for (pe, ph), c in psd.items() if pe <= ctx.K - e and ph <= ctx.N - h}
                        for tagged, psd in want.items()
                    }
                    assert terms == {tagged: psd for tagged, psd in cut.items() if psd}, (kind, mid * S + r)
            kinds.add(kind)
    return kinds


@pytest.mark.parametrize("caps", [Caps(0, 3), Caps(1, 4), Caps(2, 3)], ids=str)
def test_folded_rows_are_the_scalars_times_the_monomial_rows(caps, monkeypatch):
    # the row a state term reads, of a crossing kind, a close step or a
    # rotation element, is the sum of the scalars times the products D*M,
    # tag by tag, cut to what that state term reaches
    monkeypatch.setattr(invariant, "_TABLES", {})
    for _, decomp in fixtures().values():
        evaluate_Z(decomp, caps)
    (tables,) = invariant._TABLES.values()
    assert _checked_rows(tables) == {"close", "rotation", "crossing"}


def test_a_row_term_past_the_caps_raises(monkeypatch):
    # products read one h-degree too deep put row terms past the hbar cap,
    # which would carry out of the h field of their packed keys; the fill
    # raises rather than walk on with wrong keys
    monkeypatch.setattr(algebra, "_CONTEXTS", {})
    monkeypatch.setattr(invariant, "_TABLES", {})
    product = algebra._Context.product

    def too_deep(ctx, m1, m2, hbar_cap=None):
        return product(ctx, m1, m2, None if hbar_cap is None else hbar_cap + 1)

    monkeypatch.setattr(algebra._Context, "product", too_deep)
    with pytest.raises(DegreeOutOfRange, match="past the caps"):
        evaluate_Z(fixtures()["5_7"][1], Caps(0, 3))


@pytest.mark.parametrize("caps", [Caps(0, 3), Caps(1, 4), Caps(2, 3)], ids=str)
@settings(max_examples=20, deadline=None)
@given(d=small_decomposition_st())
def test_rows_are_the_scalars_times_the_products_on_random_decompositions(caps, d):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariant, "_TABLES", {})
        evaluate_Z(d, caps)
        for tables in invariant._TABLES.values():
            _checked_rows(tables)


def _checked_cuts(tables) -> int:
    """Check every row of ``tables`` but the deepest at e = 0 of its
    monomial against that deepest row, at (0, h0), cut to the terms its
    state term at (e, h) reaches, ``ph <= N - h`` and ``pe <= K - e``, tag
    by tag, in order and shifted by ``e * (N+1) + h - h0``, a tag left
    with no term dropped; count those rows."""
    S, K, N1 = tables.S, tables.ctx.K, tables.ctx.N + 1
    cuts = 0
    for _, dep in _deposits(tables):
        for key, row in dep.rows.items():
            mid, r = divmod(key, S)
            e, h = divmod(r, N1)
            h0 = min(h0 for h0 in range(N1) if mid * S + h0 in dep.rows)
            if r == h0:
                continue
            want = []
            for g, terms in _split(dep, dep.rows[mid * S + h0]):
                kept = []
                it = iter(terms)
                for k, c in zip(it, it):
                    pe, ph = divmod(k % S, N1)
                    if ph - h0 <= N1 - 1 - h and pe <= K - e:
                        kept += (k + r - h0, c)
                if kept:
                    want.append((g, tuple(kept)))
            assert _split(dep, row) == tuple(want), (key, dep.parts)
            cuts += 1
    return cuts


@pytest.mark.parametrize("caps", [Caps(0, 3), Caps(1, 4), Caps(2, 3)], ids=str)
def test_cut_rows_are_their_full_rows_cut_on_fixtures(caps, monkeypatch):
    # a state term at (e, h) reads the deepest row at e = 0 of its monomial,
    # at (0, h0), cut to ph <= N - h and pe <= K - e, each key shifted by
    # e * (N+1) + h - h0, in the same order
    monkeypatch.setattr(invariant, "_TABLES", {})
    for _, decomp in fixtures().values():
        evaluate_Z(decomp, caps)
    (tables,) = invariant._TABLES.values()
    assert _checked_cuts(tables) > 0


@pytest.mark.parametrize("caps", [Caps(0, 3), Caps(1, 4), Caps(2, 3)], ids=str)
@settings(max_examples=20, deadline=None)
@given(d=small_decomposition_st())
def test_cut_rows_are_their_full_rows_cut_on_random_decompositions(caps, d):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(invariant, "_TABLES", {})
        evaluate_Z(d, caps)
        for tables in invariant._TABLES.values():
            _checked_cuts(tables)


def test_bare_deposits_are_only_the_close_steps_and_the_unit_term(monkeypatch):
    # each crossing kind is one deposit of all its terms but 1 (x) 1, tagged
    # by their distinct pending monomials after the unit, tag 0, and no row
    # part carries the unit's tag; the bare monomial deposits, by id, are
    # only those the close steps multiply on, each of one tag, whose rows
    # are its flat terms
    caps = Caps(1, 4)
    monkeypatch.setattr(invariant, "_TABLES", {})
    for _, decomp in fixtures().values():
        evaluate_Z(decomp, caps)
    (tables,) = invariant._TABLES.values()
    terms, mons = _crossing_terms(caps), tables.mons
    for (sign, over_first), (dep, pending) in tables.crossing.items():
        assert dep.tags == len(pending) == len({mons[mid] for mid in pending})
        assert mons[pending[0]] is UNIT_MON
        split = [(over, under) if over_first else (under, over) for over, under, _ in terms[sign]]
        assert split.count((UNIT_MON, UNIT_MON)) == 1
        split.remove((UNIT_MON, UNIT_MON))
        assert sorted((now, mons[pending[g]]) for now, _, _, g in dep.parts) == sorted(split)
        assert dep.rows and all(g for row in dep.rows.values() for g, _ in row)
    pending = {pend for _, pends in tables.crossing.values() for pend in pends}
    assert set(tables.monomials) <= pending
    for mid, dep in tables.monomials.items():
        assert [mon for mon, *_ in dep.parts] == [mons[mid]] and dep.tags == 1
        assert all(type(k) is int for row in dep.rows.values() for k in row)


def test_rows_written_once_give_what_a_fresh_walk_gives(monkeypatch):
    # a row filled for one state must serve every later state and
    # evaluation exactly as a fresh walk would, and is never replaced
    caps, fx = Caps(1, 4), fixtures()
    chain = fx["5_7"][1]
    while len(chain.crossings()) < 20:
        chain = chain_decompositions(chain, fx["5_7"][1])
    walks = [d for _, d in fx.values()]
    walks += walks[::-1] + [fx["5_9"][1], chain]
    fresh = {}
    for d in walks:
        monkeypatch.setattr(invariant, "_TABLES", {})
        fresh[d] = evaluate_Z(d, caps).to_json()
    monkeypatch.setattr(invariant, "_TABLES", {})
    for d in walks:
        before = _rows()
        assert evaluate_Z(d, caps).to_json() == fresh[d]
        after = _rows()
        assert all(after[key] is row for key, row in before.items())


def _walk_inputs(caps: Caps):
    """Every exact coefficient series the walk and the tables scale: deposits,
    and the inputs of the rewriting tables as the ``Fraction`` oracle has them."""
    ref = reference_context(caps)
    sds = [sd for terms in _crossing_terms(caps).values() for *_, sd in terms]
    sds += [sd for s in (1, -1) for sd in rotation_element(s, caps).raw().values()]
    return sds + [ref.q, *ref.tail.values()]


def _integral(sds, scale: int) -> bool:
    return all((c * scale**h).denominator == 1 for sd in sds for (_, h), c in sd.items())


@pytest.mark.parametrize("eps_order", [0, 1, 2])
def test_walk_scale_makes_every_input_integral(eps_order):
    for n in range(9):
        caps = Caps(eps_order, n)
        assert _integral(_walk_inputs(caps), _walk_scale(n)), caps


@pytest.mark.parametrize("eps_order", [0, 1, 2])
def test_crossing_terms_have_one_unit_factor_in_the_unit_term(eps_order):
    # R and R^-1 are 1 (x) 1 plus terms whose two factors are both not the
    # unit: so an open's unit branch is its parent state as it is, and a
    # close whose pending monomial is the unit is the identity
    for n in range(9):
        caps = Caps(eps_order, n)
        for sign, terms in _crossing_terms(caps).items():
            unit = [term for term in terms if UNIT_MON in term[:2]]
            assert unit == [(UNIT_MON, UNIT_MON, {(0, 0): 1})], (caps, sign)


@pytest.mark.parametrize("caps", [Caps(0, 0), Caps(0, 3), Caps(1, 4), Caps(2, 3)], ids=str)
def test_crossing_deposits_leave_the_unit_tag_empty(caps):
    # tag 0 is the unit pending monomial, whose id the close tests, and no
    # part of a crossing deposit carries it; the pending ids are distinct
    tables = invariant._WalkTables(caps)
    assert tables.mons[invariant._UNIT_ID] is UNIT_MON
    assert tables.ids[UNIT_MON] == invariant._UNIT_ID
    for kind, (dep, pending) in tables.crossing.items():
        assert pending[0] == invariant._UNIT_ID, kind
        assert len(set(pending)) == len(pending), kind
        assert UNIT_MON not in [tables.mons[mid] for mid in pending[1:]], kind
        assert all(g for *_, g in dep.parts), kind


def test_walk_scale_needs_the_factor_two():
    # 1/(2^h h!) of a rotation element: 1/8 at hbar^2, and lcm(1, 2, 3) = 6
    assert not _integral(_walk_inputs(Caps(1, 2)), lcm(1, 2, 3))
    with pytest.raises(NonIntegralScale):
        _scaled(Fraction(1, 8), 2, lcm(1, 2, 3))
    assert _scaled(Fraction(1, 8), 2, _walk_scale(2)) == 18
    assert issubclass(NonIntegralScale, KnotoidalError)


def test_walk_raises_rather_than_rounds(monkeypatch):
    monkeypatch.setattr(algebra, "_CONTEXTS", {})
    monkeypatch.setattr(invariant, "_TABLES", {})
    monkeypatch.setattr(algebra, "_walk_scale", lambda n: lcm(*range(1, n + 2)))
    with pytest.raises(NonIntegralScale):
        evaluate_Z(parse_decomposition("labels 1; C+ 1"), Caps(1, 2))


def test_bad_arguments_raise_before_any_table_is_built(monkeypatch):
    def no_tables(caps):
        raise AssertionError("tables built")

    monkeypatch.setattr(invariant, "_walk_tables", no_tables)
    d = parse_decomposition("labels 3; R+ 1 3; C+ 2")
    for args in ((d, (1, 2)), (d, None), ("x", Caps(1, 2)), (d.walk(), Caps(1, 2))):
        with pytest.raises(InvalidArgument):
            evaluate_Z(*args)


def test_costly_caps_raise_before_any_table_is_filled(monkeypatch):
    monkeypatch.setattr(algebra, "_CONTEXTS", {})
    monkeypatch.setattr(invariant, "_TABLES", {})
    decomp = fixtures()["5_7"][1]
    # from hbar ~ 14300 the cost has more than the 4300 digits str() writes,
    # and from ~ 1e8 building 2**hbar alone takes seconds
    huge = (Caps(1, 15000), Caps(1, 10**9), Caps(10**5000, 0), Caps(0, 10**5000))
    for caps in (Caps(1, 11), Caps(0, 12), Caps(2, 10), Caps(8, 8), Caps(1, 40), *huge):
        start = time.perf_counter()
        with pytest.raises(CapsTooCostly, match="limit"):
            evaluate_Z(decomp, caps)
        assert time.perf_counter() - start < 0.5, caps
    assert algebra._CONTEXTS == {} and invariant._TABLES == {}
    assert issubclass(CapsTooCostly, KnotoidalError)


def test_caps_guard_admits_the_caps_in_use():
    # (1,10) is the highest the acceptance checks may reach; (2,5) the
    # highest eps order the tests use; (1,5) and (1,4) the benchmark's
    for caps in (Caps(1, 10), Caps(0, 11), Caps(2, 9), Caps(7, 8), Caps(2, 5), Caps(1, 5), Caps(1, 4)):
        invariant._check_cost(caps)
