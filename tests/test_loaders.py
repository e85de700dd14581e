"""Every text loader either loads its input or raises a ``KnotoidalError``.

Each text parser, whose input is a ``str``, is fed arbitrary text and its
own valid text with one slice replaced; the curve loader is fed the same and
arbitrary bytes.  Nothing else may escape: no bare ``KeyError``,
``IndexError``, ``TypeError`` or ``ValueError``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotoidal.diagram import fixtures, parse_decomposition, parse_gauss_code
from knotoidal.errors import InvalidArgument, KnotoidalError, MalformedToken, ParseError
from knotoidal.measure import load_curve
from knotoidal.series import Caps, ScalarSeries

CAPS = Caps(1, 2)
CODE, DECOMP = fixtures()["5_9"]

LOADERS = {
    "decomposition-text": (parse_decomposition, DECOMP.render()),
    "gauss-code-text": (parse_gauss_code, CODE.render()),
}


@st.composite
def mutated(draw, text):
    """``text`` with one slice replaced by arbitrary text."""
    start = draw(st.integers(0, len(text)))
    stop = draw(st.integers(start, len(text)))
    return text[:start] + draw(st.text(max_size=4)) + text[stop:]


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_loader_loads_or_raises_a_knotoidal_error(name, data):
    load, valid = LOADERS[name]
    value = data.draw(st.one_of(st.text(max_size=40), mutated(valid)))
    try:
        load(value)
    except KnotoidalError:
        pass


CURVE_TEXT = "# a bent segment\n0 0 0\n1 2 3\n\n2 0 1.5e0\n"


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_load_curve_loads_or_raises_a_knotoidal_error(tmp_path_factory, data):
    text_or_bytes = st.one_of(st.text(max_size=40), mutated(CURVE_TEXT), st.binary(max_size=40))
    value = data.draw(text_or_bytes)
    path = tmp_path_factory.mktemp("curve") / "curve.xyz"
    path.write_bytes(value if isinstance(value, bytes) else value.encode("utf-8", "surrogatepass"))
    try:
        load_curve(path)
    except KnotoidalError:
        pass


def test_valid_curve_text_loads(tmp_path):
    path = tmp_path / "curve.xyz"
    path.write_text(CURVE_TEXT)
    assert load_curve(path).points == ((0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (2.0, 0.0, 1.5))


@pytest.mark.parametrize("coeff", ["1e10000000", "1.5", " 1", "1_0", "١", "1/0", "1" * 5000])
def test_only_to_json_coefficients_load(coeff):
    # to_json writes coefficients as text for output only; Fraction alone
    # reads all of these, and expands 1e10000000 exactly, for seconds
    with pytest.raises(InvalidArgument):
        ScalarSeries(CAPS, {(0, 0): coeff})


@pytest.mark.parametrize("load, text", [
    (parse_decomposition, "labels 1_0"),
    (parse_decomposition, "labels ٢; C+ ١"),
    (parse_decomposition, "labels 2; C+ 1_0"),
    (parse_gauss_code, "١ -١ +"),
    (parse_gauss_code, "1_0 -1_0 +"),
])
def test_text_parsers_read_ascii_digits_only(load, text):
    with pytest.raises(MalformedToken):
        load(text)


@pytest.mark.parametrize("line", ["1_0 0 0", "١ 0 0", "0 0 １"])
def test_load_curve_reads_ascii_digits_only(tmp_path, line):
    path = tmp_path / "curve.xyz"
    path.write_text(f"{line}\n1 1 1\n", encoding="utf-8")
    with pytest.raises(ParseError, match="bad float"):
        load_curve(path)


def test_load_curve_refuses_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "curve.xyz"
    path.write_bytes(b"0 0 0\n1 1 \xff\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        load_curve(path)
