"""Byte-stable serialization: JSON reports and LaTeX fragments.

Floats are rendered with 17 significant digits (fixed width rather than
shortest round-trip) so identical inputs always produce identical
bytes.  LaTeX emission targets a standalone math fragment with
binomial-style characteristic stacks; coefficients render as omega
powers for lambda = 3, as bare signs when they are exactly +-1, and as
e[p/q] otherwise.

The JSON, LaTeX and text renderers take a Relation (what
build_relation returns) and write it through relations._write_terms,
from one template per document, or from the dict rows of the object
API (terms_to_json_obj), which relations._JsonRows splits from the same
writer's block texts.  dumps is the one JSON writer and owns every
layout, written by _write into one list of strings, one call per level
of nesting; relations._json_rows owns the fields of a term row.  The
"terms" of a command-line document are a relations._JsonRows, which
dumps writes through _write_json_rows: its template is dumps of one
_json_rows prototype, so the rows have the bytes of the dict rows.  A
list of flat records, such as those dict rows, dumps writes by
_write_records from one template made the same way (_row_template), by
relations._interleave, after checking them by whole-list passes
(_record_columns); any other list it walks item by item.

parse_terms_json checks a document in the layout dumps writes by its
bytes, against dumps of the rebuilt document, decoding only its "spec";
any other layout it reads with json.loads and checks by its rows.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections.abc import Iterator
from fractions import Fraction

from .charalg import Characteristic, _latex_bottom, _latex_fraction, _latex_top, cycle_number
from .relations import (
    CoefficientMode,
    Relation,
    RelationSpec,
    _JsonRows,
    _interleave,
    _json_rows,
    _terms_json_obj,
    _write_terms,
    build_relation,
)

__all__ = [
    "dumps",
    "terms_to_json_obj",
    "parse_terms_json",
    "relation_to_latex",
    "terms_to_text",
]


# What json.dumps(str) calls under its default ensure_ascii=True.
_encode_str = json.encoder.encode_basestring_ascii
# The item types of a list of strings only and of dicts only.
_STR = {str}
_DICT = {dict}
# The bytes that JSON writes as they are in a string: printable ASCII but '"' and "\\".
_PLAIN = bytes(sorted(set(range(0x20, 0x7F)) - set(b'"\\')))


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        return "null"
    return f"{x:.17g}"


def _scalar(x) -> str:
    if isinstance(x, bool) or x is None:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return _format_float(x)
    if isinstance(x, (Fraction, str)):
        return _encode_str(str(x))
    raise TypeError(f"cannot render {type(x)!r}")


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON text with fixed float formatting.

    Supports dicts (insertion order preserved), lists, tuples, strings,
    ints, bools, None and floats; Fractions render as "p/q" strings.  A
    dict, and a list holding a container, is written one item per line,
    indented by two spaces per level; any other list on one line.  A
    relations._JsonRows is written by _write_json_rows at the padding of
    its key, and a list of flat records by _write_records, each with the
    bytes of the item loop.  _write writes the text into one list of
    strings, one call per level of nesting, so a document nested deeper
    than the recursion limit raises RecursionError, as json.dumps does.
    """
    out: list[str] = []
    _write(obj, " " * indent, out)
    return "".join(out)


def _write(x, pad: str, out: list[str]) -> None:
    """Append to out the text of x as an item at the padding pad.  A
    dict and a list of containers share the item loop, which writes
    each item by one call: one call per level of nesting."""
    if type(x) is str:
        out.append(_encode_str(x))
        return
    if type(x) is _JsonRows:
        out.extend(_write_json_rows(x, pad))
        return
    if isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        items, keyed, brackets = x.items(), True, "{}"
    elif isinstance(x, (list, tuple)):
        types = set(map(type, x))
        if types == _STR:
            out.append("[" + ", ".join(map(_encode_str, x)) + "]")
            return
        # The empty list too.
        if not any(issubclass(t, (dict, list, tuple)) for t in types):
            out.append("[" + ", ".join(map(_scalar, x)) + "]")
            return
        if types == _DICT and (records := _write_records(x, pad)) is not None:
            out += "[\n", records, "\n" + pad + "]"
            return
        items, keyed, brackets = enumerate(x), False, "[]"
    else:
        out.append(_scalar(x))
        return
    inner = pad + "  "
    lead, sep = brackets[0] + "\n" + inner, ",\n" + inner
    for key, item in items:
        out.append(lead + _encode_str(str(key)) + ": " if keyed else lead)
        lead = sep
        _write(item, inner, out)
    out.append("\n" + pad + brackets[1])


def _row_template(proto: dict, pad: str) -> str:
    """The text of proto as an item of a list at the padding pad, as
    dumps writes it: the template of every row of a list of rows."""
    return pad + "  " + dumps(proto, len(pad) + 2)


def _write_records(rows, pad: str) -> str | None:
    """The text between the brackets of dumps of the list rows of dicts
    at the padding pad, or None unless the rows are records: dicts with
    the str keys of the first row, in its order, none of them holding
    "%", whose value at each key is a str, or a list of as many strs, as
    the first row's is.  The first row decides whether the others are
    looked at, by whole-list passes (_record_columns).  The rows are
    written from one template, _row_template of a placeholder row, by
    _interleave, so no call is made per row."""
    # The length of each list value of the first row, None for a str.
    lengths = {}
    for key, value in rows[0].items():
        if type(key) is not str or "%" in key:
            return None
        if type(value) is str:
            lengths[key] = None
        elif type(value) is list and set(map(type, value)) <= _STR:
            lengths[key] = len(value)
        else:
            return None
    columns = _record_columns(rows, lengths)
    if not columns:
        return None
    # A column none of whose texts JSON escapes, as the deletion of its
    # plain bytes from the concatenation shows, is written as it is, in quotes.
    plain = [(text := "".join(column)).isascii() and not text.encode().translate(None, _PLAIN)
             for column in columns]
    proto = {key: "%s" if length is None else ["%s"] * length for key, length in lengths.items()}
    head, *tails = _row_template(proto, pad).split('"%s"')
    template = head + "".join(('"%s"' if p else "%s") + tail for p, tail in zip(plain, tails))
    return _interleave(template.split("%s"), [
        column if p else list(map(_encode_str, column)) for p, column in zip(plain, columns)], ",\n")


def _record_columns(rows, lengths: dict) -> list[list[str]] | None:
    """The columns of texts of the rows, in the order of their keys and
    list items, or None unless each row has the keys of lengths, in its
    order, each holding a str, or a list of its length of strs: one
    column per str key and per list item.  Each check is a whole-list
    pass: the keys of all rows are flattened once and compared with
    those of lengths repeated, their values flattened once and cut by
    slices into columns, and each list column flattened once and cut
    likewise; each list has its types read once (_all_of)."""
    # Rows of distinct keys each, whose keys together are the keys of
    # lengths repeated, each hold those keys in their order.
    keys = list(itertools.chain.from_iterable(rows))
    if not _all_of(str, keys) or keys != [*lengths] * len(rows):
        return None
    values = list(itertools.chain.from_iterable(map(dict.values, rows)))
    columns = []
    for j, length in enumerate(lengths.values()):
        texts = values[j::len(lengths)]
        if length is not None:
            if not _all_of(list, texts) or list(map(len, texts)).count(length) != len(texts):
                return None
            texts = list(itertools.chain.from_iterable(texts))
        if not _all_of(str, texts):
            return None
        columns += [texts] if length is None else (texts[i::length] for i in range(length))
    return columns


def _all_of(kind: type, items: list) -> bool:
    """Whether every item is of the type kind exactly, not a subclass:
    one pass, cheaper than collecting the types into a set."""
    return list(map(type, items)).count(kind) == len(items)


def _write_json_rows(rows: _JsonRows, pad: str) -> Iterator[str]:
    """The text of dumps(list(rows)) at the padding pad, one chunk per
    top digit row, with no dict per term: _write_terms of the template
    that dumps writes of one _json_rows prototype, built once, whose
    texts are all "%s"."""
    n = rows.spec.n
    template = _row_template(_json_rows(["%s"] * (n + 2), n)[0], pad)
    blocks = _write_terms(rows.spec, rows.terms, template, sep=",\n")
    for c, block in enumerate(blocks):
        yield ",\n" if c else "[\n"
        yield block
    yield "\n" + pad + "]"


def terms_to_json_obj(spec: RelationSpec, terms: Relation) -> dict:
    """The emit JSON object: relation_report's "spec" and "terms" part."""
    return _terms_json_obj(spec, terms)


def parse_terms_json(text: str) -> tuple[RelationSpec, Relation]:
    """Inverse of terms_to_json_obj + dumps; round-trips byte-identically.

    Only "spec" is parsed: the terms are rebuilt from it.  A document in
    the layout dumps writes is checked by its bytes: it is accepted when,
    but for surrounding JSON whitespace, it is the text of the rebuilt
    document.  Any other layout, and any such document that is not, is
    read by json.loads and checked by its rows: a "terms" list other
    than the rows of the rebuilt relation, or a "lambda" other than
    cycle_number(n), raises ValueError.  So does a document that is not
    an object, lacks a key, or has an "n", "g" or "lambda" that is not a
    JSON integer.  Both checks give the same (spec, terms), and a
    document that the bytes do not accept gets the rows' verdict."""
    written = _parse_written(text)
    if written is not None:
        return written
    obj = json.loads(text)
    is_object = isinstance(obj, dict)
    spec = _spec_of(obj.get("spec") if is_object else None, is_object and "terms" not in obj)
    rows = obj["terms"]
    # Checked before build_relation, whose cost grows as lambda^(2g).
    if type(rows) is not list or len(rows) != spec.lam ** (2 * spec.genus):
        raise ValueError("terms do not match the relation of their spec")
    terms = build_relation(spec)
    if not all(map(operator.eq, rows, _JsonRows(spec, terms))):
        raise ValueError("terms do not match the relation of their spec")
    return spec, terms


# The head of dumps of a dict whose first key is "spec", and the white
# space that JSON allows around a value.
_WRITTEN_HEAD = '{\n  "spec": '
_JSON_SPACE = " \t\n\r"


def _parse_written(text) -> tuple[RelationSpec, Relation] | None:
    """parse_terms_json of a document in the layout dumps writes, checked
    by its bytes, or None for any other text.  Only the "spec" object is
    decoded.  A spec laid out otherwise, or a text too short to hold the
    lambda^(2g) rows of its spec, builds no relation.  An error here
    gives None, so that json.loads and the row check raise in their own
    order: ValueError for any refused spec or text, TypeError for a text
    that is not a str."""
    try:
        body = text.strip(_JSON_SPACE)
        if not body.startswith(_WRITTEN_HEAD):
            return None
        s, end = json.JSONDecoder().raw_decode(body, len(_WRITTEN_HEAD))
        # json.dumps(obj, indent=2) has the same head.
        if body[len(_WRITTEN_HEAD):end] != dumps(s, 2):
            return None
        spec = _spec_of(s, False)
        # No row is shorter than the one whose texts are all empty.
        shortest = _json_rows([""] * (spec.n + 2), spec.n)[0]
        if spec.lam ** (2 * spec.genus) * len(dumps(shortest, 4)) > len(body):
            return None
        terms = build_relation(spec)
        if body == dumps(_terms_json_obj(spec, terms, written=True)):
            return spec, terms
    except (ValueError, TypeError):
        pass
    return None


def _spec_of(s, lacks_terms: bool) -> RelationSpec:
    """The RelationSpec of the "spec" object s of a relation document,
    whose "terms" key is missing if lacks_terms.  An s that is not an
    object, a missing key, an "n", "g" or "lambda" that is not a JSON
    integer, a "mu" that is not a list of strings and a "lambda" other
    than cycle_number(n) raise ValueError, as do the refusals of
    RelationSpec.create."""
    if not isinstance(s, dict):
        raise ValueError('relation JSON must be an object with a "spec" object')
    missing = [f"spec.{k}" for k in ("n", "g", "lambda", "mode", "mu") if k not in s]
    if lacks_terms:
        missing.append("terms")
    if missing:
        raise ValueError(f"relation JSON lacks {', '.join(missing)}")
    for key in ("n", "g", "lambda"):
        if type(s[key]) is not int:
            raise ValueError(f'spec "{key}" must be a JSON integer, got {s[key]!r}')
    if not isinstance(s["mu"], list) or not all(isinstance(m, str) for m in s["mu"]):
        raise ValueError('spec "mu" must be a list of characteristic strings')
    n = s["n"]
    if s["lambda"] != cycle_number(n):
        raise ValueError(f"lambda {s['lambda']} is not cycle_number({n})")
    return RelationSpec.create(
        n, s["g"], [Characteristic.parse(m) for m in s["mu"]], CoefficientMode(s["mode"]))


def _latex_stack(c: Characteristic) -> str:
    top, bottom = ([_latex_fraction(v.numerator, v.denominator) for v in half]
                   for half in (c.top, c.bottom))
    return _latex_top(top) + _latex_bottom(bottom)


def _latex_coefficient(exponent: Fraction, lam: int) -> tuple[str, str]:
    """(separator, prefix) for a term; separator is '+' or '-'."""
    if exponent == 0:
        return "+", ""
    if exponent == Fraction(1, 2):
        return "-", ""
    if lam == 3:
        power = exponent * 3
        if power.denominator == 1:
            omega = "\\omega" if power == 1 else f"\\omega^{{{power.numerator}}}"
            return "+", omega + " "
    return "+", f"{{\\bf e}}\\left({exponent}\\right) "


def relation_to_latex(spec: RelationSpec, terms: Relation) -> str:
    """Standalone math fragment for the relation.

    A term whose shifted characteristics all coincide is abbreviated as a
    single primed stack (meaning the product of the n equal factors, the
    classical shorthand); otherwise the n primed factors are written out.
    """
    lam_pow = (
        str(spec.lam) if spec.genus == 1 else f"{spec.lam}^{{{spec.genus}}}"
    )
    if all(m == spec.mu[0] for m in spec.mu):
        lhs = f"{lam_pow}\\cdot{_latex_stack(spec.mu[0])}"
    else:
        factors = "".join(_latex_stack(m) for m in spec.mu)
        lhs = f"{lam_pow}\\cdot {factors}"
    # Stacks are written in lowest terms, so the stacks of a term are all
    # equal exactly when all nu_j are, for every term alike.
    abbreviated = all(v == spec._nu[0] for v in spec._nu)

    # "%.0s": no shift, nor a stack after an abbreviated term's first.
    stacks = "%s" + ("%.0s" if abbreviated else "%s") * (spec.n - 1)
    blocks = list(_write_terms(spec, terms, "%.0s%s" + stacks, spec._latex_rows,
                               lambda e: "%s %s" % _latex_coefficient(e, spec.lam), " "))
    # A leading "+" is not written.  One join writes the whole fragment.
    blocks[0] = blocks[0].removeprefix("+ ")
    return " ".join((lhs, "=", *blocks))


def terms_to_text(spec: RelationSpec, terms: Relation) -> str:
    head = (
        f"n={spec.n} g={spec.genus} lambda={spec.lam} mode={spec.mode.value} "
        f"terms={len(terms)}",
        f"{'shift':>16s}  {'exponent':>10s}  nu+a",
    )

    # Each distinct exponent is padded once; the last "" ends the text with "\n".
    blocks = _write_terms(spec, terms, "%16s  %s  " + " ".join(["%s"] * spec.n),
                          exponent=lambda e: str(e).rjust(10), sep="\n")
    return "\n".join((*head, *blocks, ""))
