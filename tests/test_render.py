"""Renderers read a Relation row by row from its spec's row texts; a
term-by-term formatter of the built terms is their oracle."""

from dataclasses import replace
from fractions import Fraction

import pytest

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
from thetarel import relations, render
from thetarel.render import dumps, relation_to_latex, terms_to_json_obj, terms_to_text

F = Fraction


def _latex_rational(v):
    if v.denominator == 1:
        return str(v)
    return f"{'-' if v < 0 else ''}\\frac{{{abs(v.numerator)}}}{{{v.denominator}}}"


def _term_rows_term_by_term(spec, terms, rows=None, exponent=str):
    """Oracle for relations._term_rows: builds every term and writes each
    coordinate of each Characteristic from its Fraction.  Only
    relation_to_latex passes a row table, its primed LaTeX rows."""
    return _terms_written_out(spec, terms, rows is not None, exponent)


def _terms_written_out(spec, terms, latex=False, exponent=str):
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
    "latex": relation_to_latex,
    "text": terms_to_text,
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
def test_row_rendering_matches_term_by_term(key, fmt, assert_same, monkeypatch):
    spec, write = ROW_SPECS[key], RENDERERS[fmt]
    relation = build_relation(spec)
    assert type(relation) is Relation
    rows = write(spec, relation)
    for module in (relations, render):
        monkeypatch.setattr(module, "_term_rows", _term_rows_term_by_term)
    assert_same(rows, write(spec, relation))


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
