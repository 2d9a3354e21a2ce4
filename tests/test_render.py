"""Renderers read a Relation row by row from its spec's row texts; a
term-by-term formatter of the built terms is their oracle."""

import collections
import contextlib
import io
import json
import re
import sys
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from thetarel import (
    Characteristic,
    CoefficientMode,
    Relation,
    RelationSpec,
    RelationTerm,
    build_relation,
    cycle_number,
    relation_report,
)
from thetarel import cli, relations, render
from thetarel.render import dumps, relation_to_latex, terms_to_json_obj, terms_to_text

F = Fraction


def _latex_rational(v):
    if v.denominator == 1:
        return str(v)
    return f"{'-' if v < 0 else ''}\\frac{{{abs(v.numerator)}}}{{{v.denominator}}}"


def _terms_written_out(spec, terms, latex=False, exponent=str):
    """(exponent text, shift text, nu_shifted texts) of each term, from
    the built terms: each coordinate of each Characteristic is written
    from its Fraction."""
    assert terms.spec == spec
    def text(c):
        if latex:
            top, bottom = ("\\,".join(map(_latex_rational, h)) for h in (c.top, c.bottom))
            return f"\\binom{{{top}}}{{{bottom}}}'"
        return ",".join(map(str, c.top)) + ";" + ",".join(map(str, c.bottom))

    for t in terms:
        yield exponent(t.exponent), text(t.shift), [text(c) for c in t.nu_shifted]


RENDERERS = {
    "json": lambda spec, terms: dumps(terms_to_json_obj(spec, terms)),
    # The document of emit --format json, its rows written from templates.
    "json-written": lambda spec, terms: dumps(
        relations._terms_json_obj(spec, terms, written=True)),
    "latex": relation_to_latex,
    "text": terms_to_text,
}


def _json_by_term(spec, terms):
    head = {"n": spec.n, "g": spec.genus, "lambda": spec.lam,
            "mode": spec.mode.value, "mu": [str(m) for m in spec.mu]}
    rows = [{"shift": s, "exponent": e, "nu_shifted": nu}
            for e, s, nu in _terms_written_out(spec, terms)]
    return dumps({"spec": head, "terms": rows})


def _latex_by_term(spec, terms):
    def stack(c):
        top, bottom = ("\\,".join(map(_latex_rational, h)) for h in (c.top, c.bottom))
        return f"\\binom{{{top}}}{{{bottom}}}"

    lam_pow = str(spec.lam) if spec.genus == 1 else f"{spec.lam}^{{{spec.genus}}}"
    if len(set(spec.mu)) == 1:
        lhs = f"{lam_pow}\\cdot{stack(spec.mu[0])}"
    else:
        lhs = f"{lam_pow}\\cdot " + "".join(map(stack, spec.mu))
    pieces = []
    coefficient = lambda e: render._latex_coefficient(e, spec.lam)
    for i, ((sep, prefix), _, stacks) in enumerate(
        _terms_written_out(spec, terms, latex=True, exponent=coefficient)
    ):
        body = stacks[0] if len(set(stacks)) == 1 else "".join(stacks)
        pieces.append(f"{prefix}{body}" if i == 0 and sep == "+" else f"{sep} {prefix}{body}")
    return lhs + " = " + " ".join(pieces)


def _text_by_term(spec, terms):
    lines = [
        f"n={spec.n} g={spec.genus} lambda={spec.lam} mode={spec.mode.value} "
        f"terms={len(terms)}",
        f"{'shift':>16s}  {'exponent':>10s}  nu+a",
    ]
    lines += [f"{s:>16s}  {e:>10s}  {' '.join(nu)}"
              for e, s, nu in _terms_written_out(spec, terms)]
    return "\n".join(lines) + "\n"


# The term-by-term oracle of each renderer.
BY_TERM = {
    "json": _json_by_term,
    "json-written": _json_by_term,
    "latex": _latex_by_term,
    "text": _text_by_term,
}


def _standard_mu(n, g):
    lam = cycle_number(n)
    return [
        Characteristic(
            tuple(F((j + a) % lam, lam) for a in range(g)),
            tuple(F((2 * j + a + 1) % lam, lam) for a in range(g)),
        )
        for j in range(n)
    ]


SPECS = {
    "3-1": RelationSpec.create(3, 1),
    "7-2": RelationSpec.create(7, 2, _standard_mu(7, 2)),
    "6-1-nonstandard": RelationSpec.create(
        6, 1, [Characteristic((F(j, 5),), (F(2 * j - 3, 7),)) for j in range(6)]
    ),
    "4-2-naive": RelationSpec.create(4, 2, mode=CoefficientMode.NAIVE),
}


@pytest.mark.parametrize("fmt", RENDERERS)
@pytest.mark.parametrize("key", SPECS)
def test_output_does_not_depend_on_shared_halves(key, fmt, assert_same):
    # Every term shares its row halves with other terms, and every render
    # of a spec, whichever Relation it reads, shares the spec's cached rows.
    spec, write = SPECS[key], RENDERERS[fmt]
    fresh = replace(spec)
    expected = write(fresh, build_relation(fresh))
    relation = build_relation(spec)
    list(relation)
    for other in RENDERERS.values():
        other(spec, relation)
    assert_same(write(spec, relation), expected)
    assert_same(write(spec, build_relation(spec)), expected)


# Negative tops and mixed denominators, so that the row texts, built from
# integer numerators, must reduce and sign each coordinate themselves.
MIXED = [F(-9, 4), F(5, 3), F(-4, 3), F(3, 11), F(1, 7)]


def _mixed_mu(n, g):
    return [
        Characteristic(
            tuple(MIXED[(j + a) % 5] for a in range(g)),
            tuple(MIXED[(j + 2 * a + 3) % 5] for a in range(g)),
        )
        for j in range(n)
    ]


ROW_SPECS = {
    **SPECS,
    "3-3": RelationSpec.create(3, 3),
    "9-1-naive": RelationSpec.create(9, 1, mode=CoefficientMode.NAIVE),
    "5-2-mixed": RelationSpec.create(5, 2, _mixed_mu(5, 2)),
    "4-2-mixed-naive": RelationSpec.create(4, 2, _mixed_mu(4, 2), CoefficientMode.NAIVE),
    "4-3-mixed": RelationSpec.create(4, 3, _mixed_mu(4, 3)),
    "3-3-mixed-naive": RelationSpec.create(3, 3, _mixed_mu(3, 3), CoefficientMode.NAIVE),
}


@pytest.mark.parametrize("fmt", RENDERERS)
@pytest.mark.parametrize("key", ROW_SPECS)
def test_row_rendering_matches_term_by_term(key, fmt, assert_same):
    spec, write = ROW_SPECS[key], RENDERERS[fmt]
    relation = build_relation(spec)
    assert type(relation) is Relation
    assert_same(write(spec, relation), BY_TERM[fmt](spec, relation))


@pytest.mark.parametrize("fmt", RENDERERS)
def test_term_by_term_oracle_sees_two_swapped_coordinates(fmt, monkeypatch):
    """A row writer that exchanges the top texts of nu_1 and nu_2 in every
    block differs from the oracle, so the oracle is not a copy of what it
    checks."""
    spec = ROW_SPECS["5-2-mixed"]
    relation = build_relation(spec)
    write_terms = relations._write_terms

    def swapped(spec, terms, template, rows=None, *args, **kwargs):
        tops, bottoms = rows or spec._text_rows
        tops = [(top[0], top[2], top[1], *top[3:]) for top in tops]
        return write_terms(spec, terms, template, (tops, bottoms), *args, **kwargs)

    for module in (relations, render):
        monkeypatch.setattr(module, "_write_terms", swapped)
    assert RENDERERS[fmt](spec, relation) != BY_TERM[fmt](spec, relation)


@pytest.mark.parametrize(
    "write",
    [
        terms_to_json_obj,
        relation_to_latex,
        terms_to_text,
        lambda spec, terms: relation_report(spec, terms, [], 1e-9),
    ],
    ids=["terms_to_json_obj", "relation_to_latex", "terms_to_text", "relation_report"],
)
def test_renderers_take_only_a_relation(write):
    spec = SPECS["3-1"]
    with pytest.raises(TypeError, match="must be a Relation, got list"):
        write(spec, list(build_relation(spec)))
    # Nor a Relation of another spec; an equal spec need not be the same object.
    relation = build_relation(spec)
    for other in (RelationSpec.create(5, 1), replace(spec, mode=CoefficientMode.NAIVE)):
        with pytest.raises(ValueError, match="relation of another spec"):
            write(other, relation)
    assert write(replace(spec), relation) == write(spec, relation)


def test_rendering_a_relation_builds_no_terms(monkeypatch):
    spec = SPECS["7-2"]
    relation = build_relation(spec)
    spec._nu  # deriving nu builds the n nu_j; that is not rendering
    built = []

    def counted(name, make):
        def wrapper(*args, **kwargs):
            built.append(name)
            return make(*args, **kwargs)
        return wrapper

    unchecked = counted("_unchecked", Characteristic._unchecked.__func__)
    monkeypatch.setattr(Characteristic, "_unchecked", classmethod(unchecked))
    for cls in (Characteristic, RelationTerm):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    for write in RENDERERS.values():
        write(spec, relation)
    assert built == []
    relation[0]  # the counters do see a term being built
    assert built == ["_unchecked"] * (spec.n + 1) + ["RelationTerm"]


def test_rendering_a_relation_leaves_the_digit_table_underived():
    # A fresh shared spec: an earlier test may have derived the table.
    relations._shared_spec.cache_clear()
    spec = RelationSpec.create(5, 2, _mixed_mu(5, 2))
    relation = build_relation(spec)
    for write in RENDERERS.values():
        write(spec, relation)
    assert "_digit_table" not in vars(spec)
    relation[7]
    assert "_digit_table" in vars(spec)


def test_latex_abbreviates_only_equal_factors():
    # n = 3 gives nu = (c + 2d, 4c - d, c + 2d)/3 for mu = (c, d, c): every
    # term has two equal factors and one other, so none is abbreviated.
    # With all mu equal, all nu are equal and every term is abbreviated.
    c = Characteristic((F(1, 3), F(2, 3)), (F(0), F(1, 3)))
    d = Characteristic((F(1, 3), F(2, 3)), (F(0), F(2, 3)))
    for mu, abbreviated in (((c, d, c), False), ((c, c, c), True)):
        spec = RelationSpec.create(3, 2, mu)
        relation = build_relation(spec)
        rhs = relation_to_latex(spec, relation).split(" = ")[1]
        assert rhs.count("\\binom") == len(relation) * (1 if abbreviated else 3)
        for _, _, (s, t, u) in _terms_written_out(spec, relation, latex=True):
            assert (s == t == u) if abbreviated else (s == u != t)
            assert (s if abbreviated else s + t + s) in rhs


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def test_public_objects_hold_plain_dict_rows():
    spec = SPECS["7-2"]
    relation = build_relation(spec)
    for obj in (terms_to_json_obj(spec, relation), relation_report(spec, relation, [], 1e-9)):
        rows = obj["terms"]
        assert type(rows) is list and len(rows) == len(relation)
        assert all(type(row) is dict and type(row["nu_shifted"]) is list for row in rows)
        # No two rows share a dict or a nu_shifted list.
        assert len(set(map(id, rows))) == len({id(row["nu_shifted"]) for row in rows}) == len(rows)
        assert json.loads(json.dumps(obj))["terms"] == rows
        # Each row is a fresh mutable dict.
        rows[0]["shift"] = "edited"
        assert terms_to_json_obj(spec, relation)["terms"][0]["shift"] != "edited"


numerators = st.one_of(
    st.integers(-40, 40), st.integers(10**20, 10**22), st.integers(-10**22, -10**20)
)
denominators = st.one_of(st.integers(1, 40), st.integers(10**6, 10**7))


@st.composite
def cli_specs(draw):
    n, g = draw(st.integers(2, 7)), draw(st.integers(1, 2))
    coordinate = st.builds(F, numerators, denominators)
    half = st.tuples(*[coordinate] * g)
    mu = draw(st.lists(st.builds(Characteristic, half, half), min_size=n, max_size=n))
    return RelationSpec.create(n, g, mu, draw(st.sampled_from(CoefficientMode)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(spec=cli_specs())
def test_emit_json_is_the_dump_of_the_public_object(spec):
    argv = ["emit", "--n", str(spec.n), "--g", str(spec.genus), "--mode", spec.mode.value,
            "--format", "json"]
    for m in spec.mu:
        argv += ["--mu", str(m)]
    obj = terms_to_json_obj(spec, build_relation(spec))
    assert _run_cli(argv) == dumps(obj) + "\n"
    # The texts written into templates and quoted without escaping.
    for row in obj["terms"]:
        for text in (row["shift"], row["exponent"], *row["nu_shifted"]):
            assert re.fullmatch("[0-9/;,-]*", text)


def _parse_outcome(text):
    """("ok", spec, the document of the terms) or ("error", type,
    message) of parse_terms_json(text)."""
    try:
        spec, terms = render.parse_terms_json(text)
    except ValueError as error:
        return "error", type(error), str(error)
    return "ok", spec, dumps(relations._terms_json_obj(spec, terms, written=True))


def _outcome_by_rows(text):
    """_parse_outcome with the byte check off: json.loads and the row
    check alone, the one way every document was read before."""
    with mock.patch.object(render, "_parse_written", lambda text: None):
        return _parse_outcome(text)


JSON_SPACE = " \t\n\r"


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(spec=cli_specs(), data=st.data())
def test_parse_reads_every_layout_and_edit_as_the_row_check_does(spec, data):
    terms = build_relation(spec)
    obj = terms_to_json_obj(spec, terms)
    written = dumps(relations._terms_json_obj(spec, terms, written=True))
    reordered = {"terms": [dict(reversed(row.items())) for row in obj["terms"]],
                 "spec": dict(reversed(obj["spec"].items()))}
    space = st.text(alphabet=JSON_SPACE, max_size=3)
    texts = [written, written + "\n", data.draw(space) + written + data.draw(space),
             json.dumps(obj), json.dumps(obj, indent=1), json.dumps(obj, indent=2),
             dumps(reordered)]
    for text in texts:
        assert _parse_outcome(text) == _outcome_by_rows(text) == ("ok", spec, written)
    # The layout dumps writes is read by its bytes, the others by rows.
    assert render._parse_written(texts[2])[0] == spec
    assert [render._parse_written(text) for text in texts[3:]] == [None] * 4
    # One character edited inside "spec" and inside "terms".
    terms_at = written.index('"terms": ')
    for lo, hi in ((len('{\n  "spec": '), terms_at), (terms_at, len(written))):
        i = data.draw(st.integers(lo, hi - 1))
        c = data.draw(st.sampled_from('0123456789-/;,:" {}[]\nax').filter(
            lambda c: c != written[i]))
        edited = written[:i] + c + written[i + 1:]
        outcome = _parse_outcome(edited)
        assert outcome == _outcome_by_rows(edited)
        if not (written[i] in JSON_SPACE and c in JSON_SPACE):
            assert outcome[0] == "error" and issubclass(outcome[1], ValueError)


def test_a_document_builds_its_relation_once_whichever_check_reads_it(monkeypatch):
    # json.dumps at indent 2 opens with the head dumps writes, but lays
    # out its spec otherwise, so the byte check builds nothing for it.
    spec = SPECS["7-2"]
    terms = build_relation(spec)
    obj = terms_to_json_obj(spec, terms)
    calls = []
    monkeypatch.setattr(render, "build_relation", lambda s: calls.append(s) or build_relation(s))
    for text in (dumps(relations._terms_json_obj(spec, terms, written=True)),
                 json.dumps(obj), json.dumps(obj, indent=2)):
        calls.clear()
        assert render.parse_terms_json(text)[0] == spec
        assert calls == [spec]


def _most_calls(call) -> int:
    """The largest number of times one function, Python or built-in, is
    called while call() runs."""
    counts = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            counts[frame.f_code] += 1
        elif event == "c_call":
            counts[arg] += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return max(counts.values())


def test_command_line_documents_build_no_dict_rows(monkeypatch):
    argvs = (["emit", "--n", "3", "--g", "2", "--format", "json"],
             ["verify", "--n", "3", "--trials", "2"])
    expected = [_run_cli(argv) for argv in argvs]
    calls = []
    json_rows = relations._json_rows

    def counted(texts, n):
        calls.append(len(texts) // (n + 2))
        return json_rows(texts, n)

    for module in (relations, render):
        monkeypatch.setattr(module, "_json_rows", counted)
    for argv, out in zip(argvs, expected):
        calls.clear()
        assert _run_cli(argv) == out
        # One prototype row per document, for its template; none per term.
        assert calls == [1]
    calls.clear()
    terms_to_json_obj(SPECS["3-1"], build_relation(SPECS["3-1"]))
    # The dict rows are built one block of a top row at a time.
    assert calls == [3, 3, 3]


def test_documents_make_no_call_per_term():
    """Neither the command line's document nor terms_to_json_obj, nor
    dumps of its rows, calls any function once per term: at (7,2) there
    are 2,401 terms in 49 blocks of 49."""
    spec = RelationSpec.create(7, 2)
    relation = build_relation(spec)
    argv = ["emit", "--n", "7", "--g", "2", "--format", "json"]
    out = _run_cli(argv)
    assert _most_calls(lambda: _run_cli(argv)) < len(relation)
    assert _most_calls(lambda: dumps(terms_to_json_obj(spec, relation))) < len(relation)
    assert dumps(terms_to_json_obj(spec, relation)) + "\n" == out


def test_object_rows_and_their_dumps_hold_little_beyond_their_size():
    spec = SPECS["7-2"]
    relation = build_relation(spec)
    # The spec's row tables, cached by the first call, are not counted.
    terms_to_json_obj(spec, relation)
    tracemalloc.start()
    try:
        obj = terms_to_json_obj(spec, relation)
        rows, peak = tracemalloc.get_traced_memory()
        assert peak <= 1.1 * rows
        tracemalloc.reset_peak()
        text = dumps(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - rows <= 3 * len(text)


@pytest.mark.parametrize("indent", [0, 2, 5])
@pytest.mark.parametrize("key", ROW_SPECS)
def test_json_row_writer_writes_the_dumps_of_the_rows(key, indent):
    spec = ROW_SPECS[key]
    rows = relations._JsonRows(spec, build_relation(spec))
    pad = " " * indent
    assert "".join(render._write_json_rows(rows, pad)) == dumps(list(rows), indent)


# Texts that JSON escapes (quote, backslash, control and non-ASCII
# characters) and "%", which a % template would read as a slot.
_JOIN_TEXT = st.text(st.sampled_from(['a', '1', '/', ';', '"', '\\', '\n', '\x00', 'é', '%']),
                     max_size=6)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12).flatmap(lambda slots: st.tuples(
    st.lists(_JOIN_TEXT, min_size=slots + 1, max_size=slots + 1),
    st.integers(1, 40).flatmap(lambda width: st.lists(
        st.lists(_JOIN_TEXT, min_size=width, max_size=width), min_size=slots, max_size=slots)),
    st.sampled_from(["", " ", "\n", ",\n"]))))
def test_interleave_writes_the_format_of_every_row(case):
    pieces, columns, sep = case
    template = "%s".join(piece.replace("%", "%%") for piece in pieces)
    expected = sep.join(template % texts for texts in zip(*columns))
    assert relations._interleave(pieces, columns, sep) == expected


def test_interleave_of_no_rows_is_empty_and_of_ragged_columns_raises():
    assert relations._interleave(["<", ">"], [[]], ",") == ""
    with pytest.raises(ValueError):
        relations._interleave(["<", "|", ">"], [["a", "b"], ["c"]], ",")


HUGE = F(10**40 + 1, 3)
EDGE_SPECS = {
    # lambda = 1: the relation has one term, so each block has one row.
    "2-1": RelationSpec.create(2, 1),
    "2-2-mixed": RelationSpec.create(2, 2, _mixed_mu(2, 2)),
    # lambda = 2; at g = 3 a shift text has 23 characters, over the 16
    # of the text format's column.
    "4-1": RelationSpec.create(4, 1),
    "4-3-naive": RelationSpec.create(4, 3, mode=CoefficientMode.NAIVE),
    "3-2-huge": RelationSpec.create(3, 2, [
        Characteristic((HUGE, -HUGE), (F(-(10**30), 7), F(5, 3))),
        Characteristic((F(-9, 4), F(0)), (HUGE, F(-1, 11))),
        Characteristic((F(1, 3), -HUGE), (F(2, 3), HUGE)),
    ]),
    "3-2-huge-equal": RelationSpec.create(3, 2, [Characteristic((HUGE, -HUGE), (-HUGE, HUGE))] * 3),
}


@pytest.mark.parametrize("fmt", RENDERERS)
@pytest.mark.parametrize("key", EDGE_SPECS)
def test_edge_relations_match_term_by_term(key, fmt, assert_same):
    spec = EDGE_SPECS[key]
    relation = build_relation(spec)
    assert_same(RENDERERS[fmt](spec, relation), BY_TERM[fmt](spec, relation))


def test_edge_relations_reach_the_edges():
    terms = {key: build_relation(spec) for key, spec in EDGE_SPECS.items()}
    assert len(terms["2-1"]) == 1 and len(terms["4-1"]) == 4
    shifts = [text for _, text, _ in _terms_written_out(EDGE_SPECS["4-3-naive"], terms["4-3-naive"])]
    assert max(map(len, shifts)) > 16
    # The LaTeX of equal nu_j abbreviates each term to one stack, and not otherwise.
    abbreviated = {key for key, spec in EDGE_SPECS.items() if len(set(spec._nu)) == 1}
    assert {"3-2-huge-equal", "2-1"} <= abbreviated and "3-2-huge" not in abbreviated
    # Negative nu_shifted texts of 40 digits and more.
    assert re.search(r" -\d{40}", terms_to_text(EDGE_SPECS["3-2-huge"], terms["3-2-huge"]))


def _spec_argv(spec):
    return ["--n", str(spec.n), "--g", str(spec.genus), "--mode", spec.mode.value,
            *(a for m in spec.mu for a in ("--mu", str(m)))]


@pytest.mark.parametrize("key", ROW_SPECS)
def test_cold_warm_and_direct_specs_write_the_same_bytes(key):
    """The command line's emit documents and verify JSON, and the
    parse_terms_json round trip, have the same bytes whether the spec is
    new to the cache (cold), shared from it (warm) or built directly."""
    given = ROW_SPECS[key]
    argvs = [["emit", *_spec_argv(given), "--format", fmt] for fmt in ("json", "latex", "text")]
    argvs.append(["verify", *_spec_argv(given), "--trials", "1", "--seed", "5"])

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        # verify exits 1 for the naive specs, whose relation fails.
        assert code in (0, 1) and err.getvalue() == ""
        return out.getvalue()

    def command_line():
        outputs = list(map(run, argvs))
        spec, terms = render.parse_terms_json(outputs[0])
        return outputs, spec, dumps(terms_to_json_obj(spec, terms)) + "\n"

    relations._shared_spec.cache_clear()
    cold, cold_spec, cold_round_trip = command_line()
    assert cold_round_trip == cold[0]
    warm, warm_spec, warm_round_trip = command_line()
    assert warm_spec is cold_spec == given
    assert (warm, warm_round_trip) == (cold, cold_round_trip)

    spec = RelationSpec(given.n, given.genus, given.mu, given.mode)
    assert spec is not cold_spec
    terms = build_relation(spec)
    reports = relations.verify(spec, 1, sampler=relations.TrialSampler(5))
    direct = [
        dumps(relations._terms_json_obj(spec, terms, written=True)) + "\n",
        relation_to_latex(spec, terms) + "\n",
        terms_to_text(spec, terms),
        dumps(relation_report(spec, terms, reports, 1e-9)) + "\n",
    ]
    assert direct == cold
