"""Renderers format each shared half once per call; output must not depend
on which term objects share their halves."""

import os
from collections.abc import Sequence
from fractions import Fraction

import pytest

from thetarel import (
    Characteristic,
    CoefficientMode,
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


def _assert_same(got, expected):
    # A plain assert would have pytest diff two ~1 MB strings for minutes.
    if got != expected:
        i = len(os.path.commonprefix([got, expected]))
        pytest.fail(f"differs at offset {i}: {got[i:i + 40]!r} != {expected[i:i + 40]!r}")


@pytest.mark.parametrize("fmt", RENDERERS)
@pytest.mark.parametrize("key", SPECS)
def test_output_does_not_depend_on_shared_halves(key, fmt):
    spec, render = SPECS[key], RENDERERS[fmt]
    terms = build_relation(spec)
    expected = render(spec, terms)
    _assert_same(render(spec, [_fresh(t) for t in terms]), expected)
    _assert_same(render(spec, FreshOnAccess(terms)), expected)


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
