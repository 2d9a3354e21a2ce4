"""Renderers read a Relation row by row and any other term sequence term
by term; both must give the same bytes, whichever term objects share
their halves."""

from collections.abc import Sequence
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
)
from thetarel.render import dumps, relation_to_latex, terms_to_json_obj, terms_to_text

F = Fraction


def _fresh_char(c):
    return Characteristic(tuple([*c.top]), tuple([*c.bottom]))


def _fresh(term):
    """An equal term that shares no half, exponent or characteristic."""
    return RelationTerm(
        _fresh_char(term.shift), F(term.exponent), tuple(map(_fresh_char, term.nu_shifted))
    )


class FreshOnAccess(Sequence):
    """Builds a new term on every access, so the objects of a term already
    rendered are freed and their ids can come back for other values."""

    def __init__(self, terms):
        self._terms = terms

    def __len__(self):
        return len(self._terms)

    def __getitem__(self, i):
        return _fresh(self._terms[i])


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
    spec, render = SPECS[key], RENDERERS[fmt]
    terms = build_relation(spec)
    expected = render(spec, terms)
    assert_same(render(spec, [_fresh(t) for t in terms]), expected)
    assert_same(render(spec, FreshOnAccess(terms)), expected)


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
    spec, render = ROW_SPECS[key], RENDERERS[fmt]
    relation = build_relation(spec)
    assert type(relation) is Relation
    assert_same(render(spec, relation), render(spec, list(relation)))


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
    for render in RENDERERS.values():
        render(spec, relation)
    assert built == []
    relation[0]  # the counters do see a term being built
    assert built == ["_unchecked"] * (spec.n + 1) + ["RelationTerm"]


def test_rendering_a_relation_leaves_the_digit_table_underived():
    spec = RelationSpec.create(5, 2, _mixed_mu(5, 2))
    relation = build_relation(spec)
    for render in RENDERERS.values():
        render(spec, relation)
    assert "_digit_table" not in vars(spec)
    relation[7]
    assert "_digit_table" in vars(spec)


def test_latex_abbreviates_only_equal_factors():
    spec = RelationSpec.create(3, 2)
    c = Characteristic((F(1, 3), F(2, 3)), (F(0), F(1, 3)))
    d = Characteristic((F(1, 3), F(2, 3)), (F(0), F(2, 3)))
    zero = Characteristic.zero(2)
    terms = [
        RelationTerm(zero, F(0), (c, _fresh_char(c), c)),
        RelationTerm(zero, F(0), (c, d, c)),
    ]
    s = "\\binom{\\frac{1}{3}\\,\\frac{2}{3}}{0\\,\\frac{1}{3}}'"
    t = "\\binom{\\frac{1}{3}\\,\\frac{2}{3}}{0\\,\\frac{2}{3}}'"
    assert relation_to_latex(spec, terms).split(" = ")[1] == f"{s} + {s}{t}{s}"
