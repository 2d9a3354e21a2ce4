"""render.dumps against the recursive writer it replaced, kept here as the
reference: the same bytes on any nested document and on real reports,
and TypeError on a value neither can render.  The "terms" that the
command line writes from templates are compared as the list of dict rows
of the object API."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thetarel import cli
from thetarel.relations import _JsonRows
from thetarel.render import dumps, terms_to_json_obj


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return "null"
    return f"{x:.17g}"


def reference_dumps(obj, indent: int = 0) -> str:
    """The recursive render.dumps that the iterative writer replaced."""
    encode = json.encoder.encode_basestring_ascii
    if type(obj) is str:
        return encode(obj)
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {encode(str(k))}: "
            + (encode(v) if type(v) is str else reference_dumps(v, indent + 2))
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is str for v in obj):
            return "[" + ", ".join(map(encode, obj)) + "]"
        scalars = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if scalars:
            return "[" + ", ".join(reference_dumps(v) for v in obj) + "]"
        inner = ",\n".join(f"{pad}  {reference_dumps(v, indent + 2)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, (Fraction, str)):
        return encode(str(obj))
    raise TypeError(f"cannot render {type(obj)!r}")


texts = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", '\\"', "é", " ", "\x00", "\U0001f600", "1/3;0"]),
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308]),
)
leaves = st.one_of(
    texts,
    st.integers(),
    st.booleans(),
    st.none(),
    floats,
    st.fractions(),
    st.sampled_from([{}, [], ()]),
)
documents = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(texts, max_size=4),
        st.dictionaries(texts, inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(obj=documents, indent=st.sampled_from([0, 2, 5]))
def test_dumps_matches_the_recursive_writer(obj, indent):
    assert dumps(obj, indent) == reference_dumps(obj, indent)


def test_dumps_matches_on_subclasses_and_non_string_keys():
    class Text(str):
        def __str__(self):
            return "shown"

    obj = {
        1: np.float64(0.1),
        Text("key"): [Text("a"), np.float64(-0.0), True],
        "nested": [(), {}, [Text("b"), "c"], {"x": (np.float64(math.nan),)}],
        Fraction(1, 3): Fraction(-2, 7),
    }
    assert dumps(obj) == reference_dumps(obj)


@pytest.mark.parametrize(
    "bad",
    [object(), 1j, {1, 2}, b"bytes", np.int64(3), [1, object()], {"k": [[{"k": 1j}]]}],
    # repr of a bare object() carries its address; name it by its source
    # text so the test ids are the same on every run.
    ids=lambda v: re.sub(r"<object object at 0x[0-9a-f]+>", "object()", repr(v)),
)
def test_unsupported_values_raise_type_error(bad):
    with pytest.raises(TypeError):
        reference_dumps(bad)
    with pytest.raises(TypeError):
        dumps(bad)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "3", "--trials", "2"],
        ["verify", "--n", "3", "--g", "2", "--trials", "1", "--mu", "1/3,0;0,2/3",
         "--mu", "0,0;1/3,1/3", "--mu", "2/3,1/3;0,0"],
        ["falsify", "--trials", "2"],
        ["suite", "--trials", "1"],
        ["table", "--format", "json"],
        ["emit", "--n", "4", "--g", "2", "--format", "json"],
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_dumps_matches_on_real_reports(argv, monkeypatch, capsys):
    written = []

    def recorded(obj, indent=0):
        written.append(obj)
        return dumps(obj, indent)

    monkeypatch.setattr(cli, "dumps", recorded)
    cli.main(argv)
    out = capsys.readouterr().out
    assert len(written) == 1
    # The same document with the plain list rows of the object API.
    plain = {
        key: terms_to_json_obj(value.spec, value.terms)["terms"]
        if type(value) is _JsonRows else value
        for key, value in written[0].items()
    }
    assert out == reference_dumps(plain) + "\n"
