"""Every loader either loads its input or raises a ``KnotoidalError``.

Each JSON loader is fed JSON-shaped values, arbitrary text, and a valid
payload of its own with one node replaced or deleted.  Each text parser,
whose input is a ``str``, is fed arbitrary text and its own valid text with
one slice replaced.  Nothing else may escape: no bare ``KeyError``,
``IndexError``, ``TypeError`` or ``ValueError``.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotoidal.algebra import DElement, rotation_element
from knotoidal.diagram import (
    OrientedGaussCode,
    RotDecomp,
    fixtures,
    parse_decomposition,
    parse_gauss_code,
)
from knotoidal.errors import KnotoidalError, MalformedToken, ParseError
from knotoidal.measure import load_curve
from knotoidal.rt import EndpointVectors, RepData, load_rep_json
from knotoidal.series import Caps, ScalarSeries

CAPS = Caps(1, 2)
CODE, DECOMP = fixtures()["5_9"]


def _rep_payload() -> dict:
    one = ScalarSeries.one(CAPS)
    h = one + ScalarSeries.hbar(CAPS)
    payload = RepData(1, [[one * 2]], [[h]], [[h.invert()]]).to_json()
    payload.update(EndpointVectors([one], [one * 3]).to_json())
    return payload


def _series_load(data):
    return ScalarSeries.from_json(CAPS, data)


LOADERS = {
    "caps": (Caps.from_json, CAPS.to_json()),
    "series": (_series_load, (ScalarSeries.one(CAPS) - ScalarSeries.eps(CAPS) * 3).to_json()),
    "element": (DElement.from_json, rotation_element(1, CAPS).to_json()),
    "decomposition": (RotDecomp.from_json, DECOMP.to_json()),
    "gauss-code": (OrientedGaussCode.from_json, CODE.to_json()),
    "rep": (load_rep_json, _rep_payload()),
    "decomposition-text": (parse_decomposition, DECOMP.render()),
    "gauss-code-text": (parse_gauss_code, CODE.render()),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 16) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def _paths(value, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, path + (key,))


@st.composite
def mutated(draw, payload):
    """``payload`` with one node replaced by a JSON value or deleted; text
    with one slice replaced by arbitrary text."""
    if isinstance(payload, str):
        start = draw(st.integers(0, len(payload)))
        stop = draw(st.integers(start, len(payload)))
        return payload[:start] + draw(st.text(max_size=4)) + payload[stop:]
    payload = copy.deepcopy(payload)
    path = draw(st.sampled_from(list(_paths(payload))))
    if not path:
        return draw(json_values)
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return payload


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_loader_loads_or_raises_a_knotoidal_error(name, data):
    load, valid = LOADERS[name]
    valid = json.loads(json.dumps(valid))
    values = st.one_of(st.text(max_size=40), mutated(valid))
    value = data.draw(values if isinstance(valid, str) else values | json_values)
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
    # Fraction alone reads all of these; it expands 1e10000000 exactly, for seconds
    for load, payload in (
        (_series_load, {"0,0": coeff}),
        (DElement.from_json, {"caps": CAPS.to_json(), "terms": [
            {"monomial": [0, 0, 0, 0], "eps": 0, "hbar": 0, "coeff": coeff}
        ]}),
    ):
        with pytest.raises(ParseError):
            load(payload)


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
