"""The per-axis exact tables of a spec against the full-table derivation
they replace, the relation at a genus beyond numpy's 64 dimensions, the
closed form of nu, and the genus-g relation as a product of g genus-1
relations at a diagonal period matrix."""

import json
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thetarel import (
    Characteristic,
    CoefficientMode,
    PeriodMatrix,
    RelationSpec,
    apply_to_chars,
    build_relation,
    coefficient_kappa,
    cycle_number,
    rhs_value,
    smith_matrix,
)
from thetarel.cli import main
from test_render import ROW_SPECS

F = Fraction
# The (n, g) grid of the roadmap's benchmark item.
GRID = [(3, 1), (4, 1), (5, 1), (7, 1), (3, 2), (4, 2), (5, 2), (7, 2), (3, 3), (5, 3)]


def _full_tables(spec):
    """(numerators, denominator, coefficients) as derived before the
    per-axis tables: all lambda^g digit vectors from np.indices, the
    lambda^g x lambda^g product kappa c.b mod lambda^2, one drift per digit
    vector, and from those the Relation numerators and the coefficient
    table."""
    lam, g = spec.lam, spec.genus
    digits = np.indices((lam,) * g).reshape(g, -1).T
    cross = (coefficient_kappa(spec.n, spec.mode) * (digits @ digits.T)) % (lam * lam)
    q = math.lcm(*(v.denominator for m in spec.mu for v in m.top))
    tops = [
        sum(v.numerator * (q // v.denominator) for v in column)
        for column in zip(*(m.top for m in spec.mu))
    ]
    den, sq = q * lam, lam * lam
    drift = [sum(map(operator.mul, tops, b)) % den for b in digits.tolist()]
    x = cross / sq + np.array([p / den for p in drift])
    coefficients = np.exp(-2j * math.pi * x).reshape(-1)
    numerators = [
        -(x * den + p * sq) % (sq * den) for row in cross.tolist() for x, p in zip(row, drift)
    ]
    return numerators, sq * den, coefficients


def _assert_matches_full_tables(spec):
    numerators, denominator, coefficients = _full_tables(spec)
    relation = build_relation(spec)
    assert relation._numerators == numerators
    assert relation._denominator == denominator
    assert spec._coefficients.tobytes() == coefficients.tobytes()


@pytest.mark.parametrize("key", ROW_SPECS)
def test_row_specs_match_the_full_tables(key):
    _assert_matches_full_tables(ROW_SPECS[key])


@pytest.mark.parametrize("mode", list(CoefficientMode), ids=lambda m: m.value)
@pytest.mark.parametrize("n,g", GRID)
def test_grid_specs_match_the_full_tables(n, g, mode):
    _assert_matches_full_tables(RelationSpec(n, g, (Characteristic.zero(g),) * n, mode))


_COORDINATE = st.builds(F, st.integers(-10**22, 10**22), st.integers(1, 10**7))


@st.composite
def _specs(draw):
    n, g = draw(st.integers(2, 7)), draw(st.integers(1, 2))
    half = st.tuples(*[_COORDINATE] * g)
    mu = draw(st.lists(st.builds(Characteristic, half, half), min_size=n, max_size=n))
    return RelationSpec(n, g, tuple(mu), draw(st.sampled_from(list(CoefficientMode))))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_specs())
def test_wide_random_mu_match_the_full_tables(spec):
    _assert_matches_full_tables(spec)


@pytest.mark.parametrize("g", [63, 64, 65, 200])
def test_n2_has_one_term_at_any_genus(g):
    # lambda = 1: one shift, the zero one, with exponent 0.
    spec = RelationSpec.create(2, g)
    relation = build_relation(spec)
    assert relation._numerators == [0]
    assert relation._denominator == 1
    assert spec._coefficients.tolist() == [1 + 0j]
    assert relation[0].exponent == 0 and relation[0].shift == Characteristic.zero(g)


@pytest.mark.parametrize("g", [65, 200])
def test_emit_n2_at_large_genus_writes_one_term(g, capsys):
    zeros = ",".join("0" * g)
    char = f"{zeros};{zeros}"
    assert main(["emit", "--n", "2", "--g", str(g), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["terms"] == [
        {"shift": char, "exponent": "0", "nu_shifted": [char, char]}
    ]
    assert main(["emit", "--n", "2", "--g", str(g), "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"n=2 g={g} lambda=1 mode=modified terms=1" and len(lines) == 3
    assert lines[2].split() == [char, "0", char, char]
    assert main(["emit", "--n", "2", "--g", str(g), "--format", "latex"]) == 0
    stack = "\\binom{%s}{%s}" % (("\\,".join("0" * g),) * 2)
    assert capsys.readouterr().out == f"1^{{{g}}}\\cdot{stack} = {stack}'\n"


@pytest.mark.parametrize("n", range(2, 17))
def test_nu_closed_form_is_mu_times_smith_matrix(n):
    rng = np.random.default_rng([n, 13])

    def half():
        return tuple(F(int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 10**3)))
                     for _ in range(2))

    mu = tuple(Characteristic(half(), half()) for _ in range(n))
    nu = RelationSpec(n, 2, mu, CoefficientMode.MODIFIED)._nu
    assert nu == apply_to_chars(smith_matrix(n), mu)
    assert all(type(v) is Fraction for c in nu for v in c.top + c.bottom)


def _axis(spec, i):
    """The genus-1 spec that keeps axis i of each mu_j."""
    mu = [Characteristic((m.top[i],), (m.bottom[i],)) for m in spec.mu]
    return RelationSpec.create(spec.n, 1, mu, spec.mode)


@pytest.mark.parametrize("mode", list(CoefficientMode), ids=lambda m: m.value)
@pytest.mark.parametrize("n,g", [(3, 2), (4, 2), (5, 2), (3, 3), (7, 2)])
def test_diagonal_tau_factors_into_genus_1_relations(n, g, mode):
    # With tau = diag(tau_1..tau_g) every theta factors over the axes, and
    # so do w = z S, nu and e[x(a)]: the right side is the product of the
    # g genus-1 right sides.  An axis or index order that differs between
    # the coefficient table and theta_shift_table breaks the equality.
    rng = np.random.default_rng([n, g, len(mode.value)])
    lam = cycle_number(n)

    def half():
        return tuple(F(int(rng.integers(-2 * lam, 2 * lam)), int(rng.integers(1, 7)))
                     for _ in range(g))

    for _ in range(3):
        spec = RelationSpec.create(n, g, [Characteristic(half(), half()) for _ in range(n)], mode)
        taus = rng.uniform(-0.5, 0.5, g) + 1j * rng.uniform(0.8, 1.6, g)
        zs = [rng.uniform(-0.4, 0.4, g) + 1j * rng.uniform(-0.4, 0.4, g) for _ in range(n)]
        whole = rhs_value(spec, zs, PeriodMatrix(np.diag(taus)))
        product = math.prod(
            rhs_value(_axis(spec, i), [z[i:i + 1] for z in zs], PeriodMatrix(np.array([[t]])))
            for i, t in enumerate(taus)
        )
        assert abs(whole - product) <= 1e-12 * max(abs(whole), abs(product))
