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

from thetarel import cli, render
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


class Shown(str):
    """A str subclass that dumps writes by its str(), not by its value."""

    def __str__(self):
        return "shown"


record_texts = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "é", "\x00", "\U0001f600", "%", "%s", "%%s", "1/3;0"]),
)
# How one row of a list of records is spoilt, if at all.  Most near
# misses make a list that only the general walker may write; some draws
# (a reversed row of one key, an extra key that is already there) leave
# a list of records.
NEAR_MISSES = ["none", "reorder", "drop key", "extra key", "scalar value", "subclass value",
               "subclass item", "subclass key", "list value"]


@st.composite
def record_lists(draw):
    """A list of same-keyed flat records, str or list-of-str valued,
    then at most one near miss in one of its rows."""
    keys = draw(st.lists(record_texts, max_size=4, unique=True))
    lengths = draw(st.lists(st.one_of(st.none(), st.integers(0, 3)),
                            min_size=len(keys), max_size=len(keys)))

    def value(length):
        if length is None:
            return draw(record_texts)
        return draw(st.lists(record_texts, min_size=length, max_size=length))

    rows = [{k: value(m) for k, m in zip(keys, lengths)} for _ in range(draw(st.integers(1, 5)))]
    miss = draw(st.sampled_from(NEAR_MISSES))
    i = draw(st.integers(0, len(rows) - 1))
    row = rows[i]
    key = draw(st.sampled_from(keys)) if keys else None
    if miss == "reorder":
        rows[i] = dict(reversed(row.items()))
    elif miss == "drop key" and key is not None:
        del row[key]
    elif miss == "extra key":
        row[draw(record_texts)] = draw(record_texts)
    elif miss == "scalar value" and key is not None:
        row[key] = draw(st.sampled_from([1, 0.5, math.nan, None, True, ("a",), ()]))
    elif miss == "subclass value" and key is not None:
        row[key] = Shown(draw(record_texts))
    elif miss == "subclass item" and key is not None and row[key]:
        row[key] = [Shown(row[key][0]), *row[key][1:]] if type(row[key]) is list else Shown("")
    elif miss == "subclass key" and key is not None:
        rows[i] = {Shown(k) if k == key else k: v for k, v in row.items()}
    elif miss == "list value" and key is not None:
        row[key] = draw(st.sampled_from([[], ["a", 1], ["a", None], [["a"]], "a", ["a"]]))
    return rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rows=record_lists(), nested=st.booleans(), indent=st.sampled_from([0, 2, 5]))
def test_dumps_matches_on_flat_records_and_their_near_misses(rows, nested, indent):
    obj = {"spec": {"n": 1}, "terms": rows} if nested else rows
    assert dumps(obj, indent) == reference_dumps(obj, indent)


def test_a_percent_key_leaves_and_escaped_texts_keep_the_record_path():
    rows = [{"a": "x", "b%": "y"}, {"a": "é", "b%": "\\"}]
    assert render._write_records(rows, "") is None
    rows = [{"a": "x", "b": ["y", '"']}, {"a": "é", "b": ["\x00", "z"]}]
    assert "[\n" + render._write_records(rows, "  ") + "\n  ]" == reference_dumps(rows, 2)


class Untouchable(dict):
    """A row that fails the test if the record path looks at it."""

    def __iter__(self):
        raise AssertionError("a row after the first was looked at")

    def __getitem__(self, key):
        raise AssertionError("a row after the first was looked at")


@pytest.mark.parametrize("argv, key", [
    (["verify", "--n", "3", "--trials", "2"], "trials"),
    (["suite", "--trials", "1"], "cases"),
])
def test_report_lists_leave_the_record_path_at_their_first_row(argv, key, capsys):
    cli.main(argv)
    first = json.loads(capsys.readouterr().out)[key][0]
    assert render._write_records([first, Untouchable()], "  ") is None


@pytest.mark.parametrize("first", [
    {"a": "x", "b": [["y"]]}, {"a": "x", "b": ("y",)}, {1: "x"}, {"a%": "x"}, {"a": Shown("x")},
])
def test_a_first_row_that_is_no_record_leaves_the_record_path(first):
    assert render._write_records([first, Untouchable()], "  ") is None


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


@pytest.mark.parametrize("keyed", [False, True], ids=["lists", "dicts"])
def test_dumps_writes_a_500_deep_document(keyed):
    # One call per level of nesting: 500 levels fit in the default
    # recursion limit, which two calls per level would overrun.
    doc, text = ({}, "{}") if keyed else ([], "[]")
    for level in reversed(range(500)):
        pad = "  " * level
        if keyed:
            doc, text = {"k": doc}, "{\n" + pad + '  "k": ' + text + "\n" + pad + "}"
        else:
            doc, text = [doc], "[\n" + pad + "  " + text + "\n" + pad + "]"
    assert dumps(doc) == text
