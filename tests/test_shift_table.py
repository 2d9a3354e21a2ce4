"""Batched shift tables and the digit-table term list against the per-term
constructions they replace."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from thetarel import (
    Characteristic,
    CoefficientMode,
    EvalSettings,
    PeriodMatrix,
    RelationSpec,
    RelationTerm,
    TrialSampler,
    TruncationError,
    apply_to_args,
    build_relation,
    cycle_number,
    enumerate_shifts,
    rhs_value,
    smith_matrix,
    theta,
    theta_shift_table,
)

F = Fraction

# Non-standard characteristic entries: denominators that do not divide
# lambda, and values outside [0, 1).
ODD_ENTRIES = (F(1, 7), F(5, 3), F(-4, 3), F(3, 11), F(-9, 4))


def _rhs_per_term(spec, z, tau, settings=EvalSettings()):
    """Reference right side: one theta() call per factor of every term of
    the exact build_relation list.  Returns (value, sum of |terms|)."""
    ws = apply_to_args(smith_matrix(spec.n), z)
    total, scale = 0j, 0.0
    for term in build_relation(spec):
        prod = term.coefficient
        for chi, wj in zip(term.nu_shifted, ws):
            prod *= theta(chi, wj, tau, settings).value
        total += prod
        scale += abs(prod)
    return total, scale


def _exponents_per_term(spec):
    """Reference exponents: one Fraction sum -(cross/lambda^2 + drift) mod 1
    per term."""
    cross, drift = spec._exponent_parts
    sq = spec.lam * spec.lam
    return [
        -(Fraction(x, sq) + d) % 1 for row in cross.tolist() for x, d in zip(row, drift)
    ]


def _terms_per_term(spec):
    """Reference term list: the n Characteristic sums nu_j + a per shift a
    of enumerate_shifts, with the exponents above."""
    return [
        RelationTerm(shift, exponent, tuple(v + shift for v in spec._nu))
        for shift, exponent in zip(
            enumerate_shifts(spec.genus, spec.lam), _exponents_per_term(spec)
        )
    ]


def _mu(kind, n, g, rng):
    lam = cycle_number(n)

    def entry():
        if kind == "standard":
            return F(int(rng.integers(0, lam)), lam)
        return ODD_ENTRIES[int(rng.integers(0, len(ODD_ENTRIES)))]

    if kind == "zero":
        return None
    return tuple(
        Characteristic(tuple(entry() for _ in range(g)), tuple(entry() for _ in range(g)))
        for _ in range(n)
    )


@pytest.mark.parametrize("mode", list(CoefficientMode), ids=lambda m: m.value)
@pytest.mark.parametrize("kind", ["zero", "standard", "nonstandard"])
@pytest.mark.parametrize(
    "n,g", [(2, 1), (3, 1), (4, 1), (5, 1), (7, 1), (3, 2), (4, 2), (5, 2)]
)
def test_rhs_matches_per_term_oracle(n, g, kind, mode):
    rng = np.random.default_rng([n, g, len(kind)])
    spec = RelationSpec.create(n, g, _mu(kind, n, g, rng), mode)
    sampler = TrialSampler(1000 * n + g)
    zs, tau = sampler.draw(sampler.make_rng(), n, g)
    expected, scale = _rhs_per_term(spec, zs, tau)
    # Relative to the summed term sizes: a naive-mode right side can
    # cancel to 1e-5 of its terms, below the rounding of either path.
    assert abs(rhs_value(spec, zs, tau) - expected) <= 1e-12 * scale


@pytest.mark.parametrize("kind", ["zero", "standard", "nonstandard"])
@pytest.mark.parametrize(
    "n,g",
    [(n, g) for g in (1, 2) for n in range(2, 10)]
    + [(n, 3) for n in range(2, 10) if cycle_number(n) <= 3],
)
def test_build_relation_matches_per_term_oracle(n, g, kind):
    mu = _mu(kind, n, g, np.random.default_rng([n, g, len(kind)]))
    modified, naive = (RelationSpec.create(n, g, mu, mode) for mode in CoefficientMode)
    expected = _terms_per_term(modified)
    terms = build_relation(modified)
    assert terms == expected
    assert all(type(v) is Fraction for t in terms for c in (t.shift, *t.nu_shifted)
               for v in c.top + c.bottom)
    # The mode changes kappa only, so only the exponents differ.
    assert build_relation(naive) == [
        replace(t, exponent=e) for t, e in zip(expected, _exponents_per_term(naive))
    ]


def test_table_entries_are_per_shift_theta_values():
    tau = PeriodMatrix(np.array([[0.1 + 1.1j, 0.2 + 0.1j], [0.2 + 0.1j, -0.2 + 0.9j]]))
    nu = Characteristic((F(5, 3), F(-1, 7)), (F(1, 2), F(-4, 3)))
    w = np.array([0.3 - 0.2j, -0.1 + 0.35j])
    table = theta_shift_table(nu, w, tau, 3)
    expected = [theta(nu + a, w, tau).value for a in enumerate_shifts(2, 3)]
    assert table.shape == (81,)
    assert np.allclose(table, expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("max_radius", [4, 6])
def test_truncation_parity_with_oracle(max_radius):
    """The batched path raises TruncationError on exactly the trials on
    which the per-term path raises it."""
    settings = EvalSettings(max_radius=max_radius)
    sampler = TrialSampler(77)
    rng = sampler.make_rng()
    outcomes = []
    for n in (3, 4, 5):
        spec = RelationSpec.create(n, 1)
        for _ in range(12):
            zs = tuple(2.5 * z for z in sampler.draw_args(rng, n, 1))
            tau = PeriodMatrix(np.array([[rng.uniform(-0.5, 0.5) + 1j * rng.uniform(0.3, 1.2)]]))
            raised = []
            for evaluate in (_rhs_per_term, rhs_value):
                try:
                    evaluate(spec, zs, tau, settings)
                    raised.append(False)
                except TruncationError:
                    raised.append(True)
            assert raised[0] == raised[1]
            outcomes.append(raised[0])
    # Both outcomes occur, so the parity is not vacuous.
    assert any(outcomes) and not all(outcomes)
