import pytest
from hypothesis import given, settings

from knotoidal.diagram import (
    Crossing,
    OrientedGaussCode,
    RotDecomp,
    Rotation,
    TRIVIAL_DECOMP,
    chain_decompositions,
    fixture_decomposition,
    fixtures,
    insert_r2_pair,
    insert_rotation_pair,
    parse_decomposition,
    parse_gauss_code,
    reverse_code,
    reverse_decomposition,
    table_rows,
    writhe,
)
from knotoidal.errors import (
    CrossingCountMismatch,
    DuplicateLabel,
    KnotoidalError,
    LabelOutOfRange,
    MalformedToken,
    SignCountMismatch,
    UnknownFixture,
)

from decomp_strategies import small_decomposition_st

ROW_5_7 = "-1 -2 3 4 -3 2 -5 1 5 -4 - - - + +"
ROW_5_12 = "-1 2 -3 1 4 -5 -2 3 -4 5 - - - - -"


def test_parse_five_crossing_row():
    code = parse_gauss_code(ROW_5_7)
    assert len(code) == 5
    assert code.signs == {1: -1, 2: -1, 3: -1, 4: 1, 5: 1}
    assert code.passes[0] == (1, "under")
    assert code.passes[7] == (1, "over")


def test_parse_empty_is_trivial():
    code = parse_gauss_code("")
    assert code.is_empty()
    assert writhe(code) == 0


def test_parse_all_negative_row():
    code = parse_gauss_code(ROW_5_12)
    assert len(code) == 5
    assert all(s == -1 for s in code.signs.values())


def test_parse_errors():
    with pytest.raises(MalformedToken):
        parse_gauss_code("-1 huh 1 -")
    with pytest.raises(CrossingCountMismatch):
        parse_gauss_code("-1 -1 -")  # both passes under
    with pytest.raises(CrossingCountMismatch):
        parse_gauss_code("1 -1 4 -4 + +")  # ids must be 1..n
    with pytest.raises(SignCountMismatch):
        parse_gauss_code("1 -1 + -")
    with pytest.raises(MalformedToken):
        parse_gauss_code("1 -1 + 2")


def test_writhe_examples():
    assert writhe(parse_gauss_code(ROW_5_7)) == -1
    assert writhe(parse_gauss_code(ROW_5_12)) == -5
    assert writhe(parse_gauss_code("")) == 0


def test_writhe_orientation_reversal_invariant():
    code = parse_gauss_code(ROW_5_7)
    assert writhe(reverse_code(code)) == writhe(code)


def test_parse_decomposition_fixture_text():
    d = parse_decomposition(
        "labels 13; R- 11 1; R+ 12 9; R- 8 2; R- 3 6; R+ 5 13; C- 10; C- 7; C+ 4"
    )
    assert d.labels == 13
    assert d.writhe() == -1
    assert d.tokens[0] == Crossing(-1, 11, 1)
    assert d.tokens[-1] == Rotation(1, 4)


def test_parse_decomposition_multiline():
    d = parse_decomposition("labels 2\nC+ 1\nC- 2\n")
    assert d.tokens == (Rotation(1, 1), Rotation(-1, 2))


def test_parse_decomposition_comments():
    d = parse_decomposition(
        "# header comment\nlabels 2\nC+ 1  # inline comment\nC- 2\n"
    )
    assert d.tokens == (Rotation(1, 1), Rotation(-1, 2))


def test_parse_decomposition_errors():
    with pytest.raises(DuplicateLabel):
        parse_decomposition("labels 2; R+ 1 1")
    with pytest.raises(LabelOutOfRange):
        parse_decomposition("labels 2; C+ 3")
    with pytest.raises(MalformedToken):
        parse_decomposition("labels 2; Q+ 1")
    with pytest.raises(MalformedToken):
        parse_decomposition("R+ 1 2")


@pytest.mark.parametrize("token", [Rotation(1.0, 1), Rotation(True, 1), Crossing(-1.0, 1, 2)], ids=repr)
def test_token_signs_must_be_int(token):
    # the walk sums rotation signs into a count of end deposits
    with pytest.raises(MalformedToken):
        RotDecomp(2, [token])


@pytest.mark.parametrize(
    "make",
    [
        lambda: RotDecomp(2, [Rotation(1, 1.5)]),
        lambda: RotDecomp(2.0, [Rotation(1, 1)]),
        lambda: RotDecomp(2, [Crossing(1, True, 2)]),
        lambda: OrientedGaussCode([(1.5, "over"), (1, "under")], {1: -1.2}),
        lambda: OrientedGaussCode([(1, "over"), (1, "under")], {1: -1.2}),
        lambda: OrientedGaussCode([(1, "over"), (1, "under")], {1: True}),
        lambda: OrientedGaussCode([(1, "over"), (1, "under")], {1.0: 1}),
    ],
    ids=[
        "decomp-label-float",
        "decomp-labels-float",
        "decomp-label-bool",
        "code-id-float",
        "code-sign-float",
        "code-sign-bool",
        "code-sign-key-float",
    ],
)
def test_constructors_take_only_int_labels_ids_and_signs(make):
    # int() would truncate 1.5 to 1 and -1.2 to -1, and a float label would
    # render a decomposition that parse_decomposition cannot read back
    with pytest.raises(MalformedToken):
        make()


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: OrientedGaussCode([(1, "over"), (1, "under")], {2: 1}), SignCountMismatch),
        (lambda: OrientedGaussCode([(1, "over"), (1, "under")], {1: 2}), SignCountMismatch),
        (lambda: parse_gauss_code("1 0 -1 +"), MalformedToken),
        (lambda: RotDecomp(0, []), LabelOutOfRange),
        (lambda: RotDecomp(2, [object()]), MalformedToken),
        (lambda: OrientedGaussCode([1, 2], {}), MalformedToken),
        (lambda: OrientedGaussCode([(1, "over"), (1, "under")], [1]), MalformedToken),
        (lambda: insert_rotation_pair(fixtures()["5_561"][1], 999), LabelOutOfRange),
        (lambda: insert_rotation_pair(fixtures()["5_561"][1], 0), LabelOutOfRange),
        (lambda: insert_r2_pair(fixtures()["5_561"][1], 2, 13), LabelOutOfRange),
        (lambda: insert_r2_pair(fixtures()["5_561"][1], 0, 5), LabelOutOfRange),
    ],
    ids=[
        "code-signs-for-other-crossings",
        "code-sign-2",
        "gauss-id-0",
        "decomp-no-labels",
        "unknown-token",
        "code-passes-not-pairs",
        "code-signs-not-a-mapping",
        "rotation-pair-label-999",
        "rotation-pair-label-0",
        "r2-pair-label-past-L",
        "r2-pair-label-0",
    ],
)
def test_constructor_errors_are_typed(make, error):
    with pytest.raises(error):
        make()


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: RotDecomp(None, None), MalformedToken),
        (lambda: RotDecomp("x", []), MalformedToken),
        (lambda: RotDecomp(2, [Crossing(1, None, 2)]), MalformedToken),
        (lambda: RotDecomp(1, 5), MalformedToken),
        (lambda: RotDecomp(1, ["C+ 1"]), MalformedToken),
        (lambda: OrientedGaussCode(5, {}), MalformedToken),
        (lambda: OrientedGaussCode([(1, "over")], None), MalformedToken),
        (lambda: OrientedGaussCode([(1, "over"), (1, "under")], 1), MalformedToken),
        (lambda: OrientedGaussCode([("a", "over")], {}), MalformedToken),
        (lambda: RotDecomp(1, [Rotation(1.9, 1)]), MalformedToken),
        (lambda: RotDecomp(1, [Rotation(-1.2, 1)]), MalformedToken),
        (lambda: RotDecomp(1, [Rotation(1, "1")]), MalformedToken),
        (lambda: RotDecomp(2, [Crossing(True, 1, 2)]), MalformedToken),
        (lambda: RotDecomp(2, [Crossing(1, 1.0, 2)]), MalformedToken),
        (lambda: RotDecomp(1.5, []), MalformedToken),
        (lambda: OrientedGaussCode([(1.5, "over"), (1, "under")], {1: 1}), MalformedToken),
        (lambda: OrientedGaussCode([("1", "over"), (1, "under")], {1: 1}), MalformedToken),
        (lambda: OrientedGaussCode([(1, "over"), (True, "under")], {1: 1}), MalformedToken),
        (lambda: OrientedGaussCode([(1, "over"), (1, "under")], {1: -1.2}), MalformedToken),
        (lambda: OrientedGaussCode([(1, "over"), (1, "under")], {1: "-1"}), MalformedToken),
        (lambda: OrientedGaussCode([(1, "over"), (1, "under")], {"1.0": 1}), SignCountMismatch),
        (lambda: OrientedGaussCode([(1, "over"), (1, "under")], {" 1": 1}), SignCountMismatch),
    ],
    ids=[
        "decomp-empty",
        "decomp-labels-not-int",
        "decomp-crossing-no-over",
        "decomp-tokens-not-list",
        "decomp-token-not-object",
        "code-passes-not-list",
        "code-no-signs",
        "code-signs-not-object",
        "code-id-not-int",
        "decomp-sign-float",
        "decomp-sign-negative-float",
        "decomp-label-string",
        "decomp-sign-bool",
        "decomp-over-float",
        "decomp-labels-float",
        "code-id-float",
        "code-id-string",
        "code-id-bool",
        "code-sign-float",
        "code-sign-string",
        "code-sign-key-float",
        "code-sign-key-space",
    ],
)
def test_diagram_json_errors_are_typed(make, error):
    # The package reads no JSON: a caller who decodes a diagram from JSON
    # hands the decoded values (None for a missing key, floats, bools,
    # strings, lists) to these constructors, which reject each bad one with
    # a typed error.
    with pytest.raises(error):
        make()


def test_fixtures_complete_and_consistent():
    fx = fixtures()
    assert set(fx) == {"5_7", "5_421", "5_9", "5_561", "5_12", "5_593"}
    for name, (code, decomp) in fx.items():
        assert writhe(code) == decomp.writhe(), name
    # paired rows share their Gauss codes
    assert fx["5_7"][0] == fx["5_421"][0]
    assert fx["5_9"][0] == fx["5_561"][0]
    assert fx["5_12"][0] == fx["5_593"][0]


def test_table_rows_cover_six_pairs():
    rows = table_rows()
    assert len(rows) == 6
    writhes = {row[0]: writhe(row[2]) for row in rows}
    assert writhes == {
        "5_7": -1,
        "5_9": -1,
        "5_12": -5,
        "5_19": -1,
        "5_21": -1,
        "5_24": -3,
    }


def test_unknown_fixture_is_typed_and_still_a_key_error():
    with pytest.raises(UnknownFixture, match="no fixture named 'nope'") as info:
        fixture_decomposition("nope")
    assert isinstance(info.value, KeyError) and isinstance(info.value, KnotoidalError)
    assert fixture_decomposition("trivial") == TRIVIAL_DECOMP


def test_fixture_decompositions_as_tabulated():
    fx = fixtures()
    assert fx["5_421"][1] == parse_decomposition(
        "labels 13; R+ 9 1; R+ 2 5; R- 3 13; R- 6 12; R- 10 7; C+ 11; C+ 8; C- 4"
    )
    assert fx["5_561"][1] == parse_decomposition(
        "labels 12; R+ 6 1; R+ 2 7; R- 8 12; R- 3 9; R- 10 4; C+ 11; C+ 5"
    )
    assert fx["5_593"][1] == parse_decomposition(
        "labels 12; R- 1 6; R- 7 2; R- 8 12; R- 3 9; R- 10 4; C+ 11; C+ 5"
    )


def test_reverse_trivial():
    assert reverse_decomposition(TRIVIAL_DECOMP) == TRIVIAL_DECOMP


def test_reverse_is_involutive_on_tokens():
    d = fixtures()["5_9"][1]
    assert reverse_decomposition(reverse_decomposition(d)) == d


def test_reverse_flips_rotations_and_keeps_crossing_signs():
    d = parse_decomposition("labels 3; R+ 3 1; C- 2")
    rev = reverse_decomposition(d)
    assert rev.labels == 3
    assert Crossing(1, 1, 3) in rev.tokens
    assert Rotation(1, 2) in rev.tokens


def test_chain_decompositions():
    d = fixtures()["5_561"][1]
    chained = chain_decompositions(d, d)
    assert chained.labels == 24
    assert len(chained.crossings()) == 10
    assert chained.writhe() == 2 * d.writhe()


def test_insert_helpers_produce_valid_decompositions():
    d = fixtures()["5_561"][1]
    with_rot = insert_rotation_pair(d, 5)
    assert with_rot.labels == d.labels + 2
    assert len(with_rot.rotations()) == len(d.rotations()) + 2
    with_r2 = insert_r2_pair(d, 2, 9)
    assert with_r2.labels == d.labels + 4
    assert len(with_r2.crossings()) == len(d.crossings()) + 2
    assert with_r2.writhe() == d.writhe()
    with pytest.raises(DuplicateLabel):
        insert_r2_pair(d, 3, 3)


def test_walk_of_the_worked_example():
    d = parse_decomposition("labels 5; R+ 1 4; R+ 5 2; C- 3")
    assert d.walk() == (
        ("open", 1, True),
        ("open", 1, False),
        ("rot", -1),
        ("close", 0),
        ("close", 0),
    )


def test_walk_closes_out_of_opening_order_and_skips_empty_labels():
    # the crossing opened second closes first, from the middle of three
    # pending slots; label 4 carries no token
    d = parse_decomposition("labels 8; R- 6 1; R+ 3 7; R+ 2 5; C- 8")
    assert d.walk() == (
        ("open", -1, False),
        ("open", 1, True),
        ("open", 1, True),
        ("close", 1),
        ("close", 0),
        ("close", 0),
        ("rot", -1),
    )


@settings(max_examples=60, deadline=None)
@given(small_decomposition_st(max_slots=10))
def test_walk_replays_the_tokens(d):
    by_label = {}
    for tok in d.tokens:
        if isinstance(tok, Crossing):
            by_label[tok.over] = by_label[tok.under] = tok
        else:
            by_label[tok.label] = tok
    steps = d.walk()
    assert len(steps) == len(by_label)
    pending = []
    for label, step in zip(sorted(by_label), steps):
        tok = by_label[label]
        if isinstance(tok, Rotation):
            assert step == ("rot", tok.sign)
        elif label == min(tok.over, tok.under):
            assert step == ("open", tok.sign, tok.over == label)
            pending.append(tok)
        else:
            assert step[0] == "close" and pending.pop(step[1]) is tok
    assert not pending


@settings(max_examples=60, deadline=None)
@given(small_decomposition_st(max_slots=10))
def test_decomposition_render_round_trip(d):
    assert parse_decomposition(d.render()) == d


def test_code_render_round_trip():
    code = parse_gauss_code(ROW_5_7)
    assert parse_gauss_code(code.render()) == code
