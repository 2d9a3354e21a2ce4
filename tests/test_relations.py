"""Relation engine: exact term lists and randomized numerical verification."""

import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from thetarel import (
    Characteristic,
    CoefficientMode,
    PeriodMatrix,
    RelationSpec,
    TrialSampler,
    apply_to_args,
    build_relation,
    coefficient_kappa,
    cycle_number,
    lhs_value,
    overall_verdict,
    relation_report,
    rhs_value,
    smith_matrix,
    theta,
    verify,
    verify_jacobi_a,
)
from thetarel import relations
from thetarel.render import dumps, parse_terms_json, terms_to_json_obj

F = Fraction
OMEGA = cmath.exp(2j * math.pi / 3)


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol


def test_kappa_values():
    # Cycle-corrected multiplier: lambda for even n, lambda(lambda+1)/2
    # for odd n (the inverse-of-2 correction); naive keeps n.
    expected_modified = {3: 6, 4: 2, 5: 15, 6: 3, 7: 28, 8: 4, 9: 45, 10: 5}
    for n, k in expected_modified.items():
        assert coefficient_kappa(n, CoefficientMode.MODIFIED) == k
        assert coefficient_kappa(n, CoefficientMode.NAIVE) == n


def test_spec_validation():
    with pytest.raises(ValueError):
        RelationSpec(1, 1, (Characteristic.zero(1),), CoefficientMode.MODIFIED)
    with pytest.raises(ValueError):
        RelationSpec.create(3, 1, mu=(Characteristic.zero(1),))
    with pytest.raises(ValueError):
        RelationSpec.create(3, 1, mu=tuple(Characteristic.zero(2) for _ in range(3)))
    with pytest.raises(ValueError):
        RelationSpec.create(3, 0)
    # lambda is derived from n; a serialized relation claiming another
    # lambda is rejected where it is read.
    spec = RelationSpec.create(3, 1)
    obj = terms_to_json_obj(spec, build_relation(spec))
    obj["spec"]["lambda"] = 2
    with pytest.raises(ValueError, match="lambda"):
        parse_terms_json(dumps(obj))


def _alter_exponent(terms):
    terms[5]["exponent"] = str((F(terms[5]["exponent"]) + F(1, 3)) % 1)


def _alter_nu_shifted(terms):
    terms[5]["nu_shifted"][1] = terms[6]["nu_shifted"][1]


def _alter_shift(terms):
    terms[5]["shift"] = terms[6]["shift"]


def _drop_term(terms):
    del terms[-1]


def _reorder_terms(terms):
    terms[1], terms[2] = terms[2], terms[1]


@pytest.mark.parametrize(
    "alter",
    [_alter_exponent, _alter_nu_shifted, _alter_shift, _drop_term, _reorder_terms],
)
def test_parse_rejects_terms_that_do_not_match_the_spec(alter):
    spec = RelationSpec.create(3, 1)
    obj = terms_to_json_obj(spec, build_relation(spec))
    alter(obj["terms"])
    with pytest.raises(ValueError, match="terms do not match"):
        parse_terms_json(dumps(obj))


def test_spec_fields_and_derived_lambda():
    assert [f.name for f in dataclasses.fields(RelationSpec)] == [
        "n", "genus", "mu", "mode",
    ]
    for n in range(2, 11):
        assert RelationSpec.create(n, 1).lam == cycle_number(n)


def test_verify_rejects_positional_tol():
    with pytest.raises(TypeError):
        verify(RelationSpec.create(3, 1), 5, 1e-9)


def test_naive_resamples_derive_nu_and_coefficients_once(monkeypatch):
    # n=2 naive holds exactly, so every trial spends all MAX_RESAMPLES
    # attempts; nu and the coefficient table are still derived once.
    calls = {"apply_to_chars": 0, "coefficients": 0, "rhs_value": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        relations, "apply_to_chars", counted("apply_to_chars", relations.apply_to_chars)
    )
    table = relations.RelationSpec.__dict__["_coefficients"]
    monkeypatch.setattr(table, "func", counted("coefficients", table.func))
    monkeypatch.setattr(relations, "rhs_value", counted("rhs_value", relations.rhs_value))
    spec = RelationSpec.create(2, 1, mode=CoefficientMode.NAIVE)
    reports = verify(spec, 3)
    assert all(r.status == "flagged" for r in reports)
    assert not spec._coefficients.flags.writeable
    assert calls == {
        "apply_to_chars": 1, "coefficients": 1, "rhs_value": 3 * relations.MAX_RESAMPLES,
    }


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("g", [1, 2])
def test_term_counts(n, g):
    spec = RelationSpec.create(n, g)
    terms = build_relation(spec)
    lam = cycle_number(n)
    assert len(terms) == lam ** (2 * g)


def test_nine_term_coefficients_verified_assignment():
    """The n=3 all-zero relation carries omega on (1/3;1/3) and (2/3;2/3)
    and omega^2 on (1/3;2/3) and (2/3;1/3); the conjugate assignment,
    often printed, fails numerically (see test_naive_fails_odd_n and the
    falsification tests)."""
    terms = build_relation(RelationSpec.create(3, 1))
    expo = {str(t.shift): t.exponent for t in terms}
    assert expo == {
        "0;0": F(0), "0;1/3": F(0), "0;2/3": F(0),
        "1/3;0": F(0), "1/3;1/3": F(1, 3), "1/3;2/3": F(2, 3),
        "2/3;0": F(0), "2/3;1/3": F(2, 3), "2/3;2/3": F(1, 3),
    }
    coeffs = sorted((t.coefficient for t in terms), key=lambda c: (round(c.real, 9), round(c.imag, 9)))
    multiset = [1] * 5 + [OMEGA] * 2 + [OMEGA**2] * 2
    multiset.sort(key=lambda c: (round(c.real, 9), round(c.imag, 9)))
    assert all(close(a, b) for a, b in zip(coeffs, multiset))


def test_four_term_coefficients():
    terms = build_relation(RelationSpec.create(4, 1))
    expo = {str(t.shift): t.exponent for t in terms}
    assert expo == {"0;0": F(0), "0;1/2": F(0), "1/2;0": F(0), "1/2;1/2": F(1, 2)}
    signs = [t.coefficient for t in terms]
    assert close(signs[0], 1) and close(signs[1], 1) and close(signs[2], 1)
    assert close(signs[3], -1)


def test_exponents_reduced_and_denominators_divide_lambda_squared():
    rng = np.random.default_rng(41)
    for n in range(2, 9):
        lam = cycle_number(n)
        mu = tuple(
            Characteristic((F(int(rng.integers(0, lam)), lam),),
                           (F(int(rng.integers(0, lam)), lam),))
            for _ in range(n)
        )
        for mode in CoefficientMode:
            for t in build_relation(RelationSpec.create(n, 1, mu, mode)):
                assert 0 <= t.exponent < 1
                assert (lam * lam) % t.exponent.denominator == 0


def test_zero_mu_exponent_is_minus_kappa_a_dot_a():
    for n in (3, 4, 5, 6):
        for mode in CoefficientMode:
            spec = RelationSpec.create(n, 1, mode=mode)
            kappa = coefficient_kappa(n, mode)
            for t in build_relation(spec):
                expected = (-kappa * t.shift.top[0] * t.shift.bottom[0]) % 1
                assert t.exponent == expected


def test_nu_shifted_structure():
    mu = (
        Characteristic((F(1, 3),), (F(0),)),
        Characteristic((F(1, 3),), (F(1, 3),)),
        Characteristic((F(0),), (F(2, 3),)),
    )
    spec = RelationSpec.create(3, 1, mu)
    terms = build_relation(spec)
    # Conservation: the shifted tuple sums to sum(mu) + n * a, exactly.
    total_mu_top = sum(c.top[0] for c in mu)
    for t in terms:
        total = sum(c.top[0] for c in t.nu_shifted)
        assert total == total_mu_top + 3 * t.shift.top[0]
    # Unreduced ninth-denominator characteristics must survive verbatim.
    ninths = {c.top[0].denominator for t in terms for c in t.nu_shifted}
    assert 9 in ninths


def test_modified_and_naive_listings_differ_for_odd_n():
    # kappa differs by lambda(lambda-1)/2 for odd n, which shifts the
    # nontrivial exponents; the two modes only agree at n = 2.
    for n in (3, 5, 7):
        mod = build_relation(RelationSpec.create(n, 1))
        naive = build_relation(RelationSpec.create(n, 1, mode=CoefficientMode.NAIVE))
        assert [t.exponent for t in mod] != [t.exponent for t in naive]
    n2_mod = build_relation(RelationSpec.create(2, 1))
    n2_naive = build_relation(RelationSpec.create(2, 1, mode=CoefficientMode.NAIVE))
    assert n2_mod == n2_naive


def test_lhs_value_definition(settings):
    tau = PeriodMatrix(np.array([[1.1j]]))
    spec = RelationSpec.create(3, 1)
    zero = Characteristic.zero(1)
    direct = 3 * theta(zero, 0j, tau, settings).value ** 3
    assert close(lhs_value(spec, (0j, 0j, 0j), tau, settings), direct)


def test_lhs_vanishes_with_odd_factor(settings):
    tau = PeriodMatrix(np.array([[0.2 + 1.0j]]))
    mu = (
        Characteristic((F(1, 2),), (F(1, 2),)),
        Characteristic.zero(1),
        Characteristic.zero(1),
    )
    spec = RelationSpec.create(3, 1, mu)
    assert abs(lhs_value(spec, (0j, 0.2 + 0.1j, -0.3j), tau, settings)) < 1e-10


def test_lhs_golden_value(settings):
    # Regression pin from the first verified build (rhs agreed to 1.5e-15).
    tau = PeriodMatrix(np.array([[0.3 + 1.1j]]))
    spec = RelationSpec.create(3, 1)
    value = lhs_value(spec, (0.1, 0.2, -0.05), tau, settings)
    assert close(value, 3.225298041746627 + 0.33199781079925511j, 1e-12)


@pytest.mark.parametrize("n,g,tol", [(3, 1, 1e-10), (4, 1, 1e-10),
                                     (5, 1, 1e-10), (6, 1, 1e-10)])
def test_verify_passes_modified(n, g, tol):
    spec = RelationSpec.create(n, g)
    reports = verify(spec, 5)
    assert overall_verdict(reports, tol) == "pass"
    assert all(r.status == "ok" for r in reports)


def test_verify_passes_genus2():
    spec = RelationSpec.create(3, 2)
    reports = verify(spec, 3)
    assert overall_verdict(reports, 1e-8) == "pass"


def test_verify_passes_genus2_random_mu():
    rng = np.random.default_rng(45)
    mu = tuple(
        Characteristic(
            tuple(F(int(rng.integers(0, 3)), 3) for _ in range(2)),
            tuple(F(int(rng.integers(0, 3)), 3) for _ in range(2)),
        )
        for _ in range(3)
    )
    reports = verify(RelationSpec.create(3, 2, mu), 2)
    assert overall_verdict(reports, 1e-8) == "pass"


def test_genus2_coefficient_tally():
    # exponent = -2 (s.t)/3 mod 1 over s, t in {0,1,2}^2, so the tally
    # counts solutions of s.t = c mod 3: 9 + 8*3 ones, 24 of each root.
    terms = build_relation(RelationSpec.create(3, 2))
    tally = {F(0): 0, F(1, 3): 0, F(2, 3): 0}
    for t in terms:
        tally[t.exponent] += 1
    assert tally == {F(0): 33, F(1, 3): 24, F(2, 3): 24}


def test_verify_passes_random_standard_mu():
    rng = np.random.default_rng(42)
    for n in (3, 4):
        lam = cycle_number(n)
        mu = tuple(
            Characteristic((F(int(rng.integers(0, lam)), lam),),
                           (F(int(rng.integers(0, lam)), lam),))
            for _ in range(n)
        )
        spec = RelationSpec.create(n, 1, mu)
        reports = verify(spec, 5)
        assert overall_verdict(reports, 1e-10) == "pass"


def test_naive_fails_even_n():
    spec = RelationSpec.create(4, 1, mode=CoefficientMode.NAIVE)
    reports = verify(spec, 10)
    assert overall_verdict(reports, 0.01) == "fail"
    assert max(r.rel_error for r in reports if r.status == "ok") > 0.01


def test_naive_fails_odd_n():
    # The uncorrected multiplier kappa = n conjugates the nontrivial
    # coefficients for odd n >= 3, so the identity fails there too.
    spec = RelationSpec.create(3, 1, mode=CoefficientMode.NAIVE)
    reports = verify(spec, 5)
    assert overall_verdict(reports, 0.01) == "fail"


def test_naive_true_identity_gets_flagged():
    # n=2 swaps the two factors, so the naive relation actually holds;
    # the genericity guard must exhaust its resamples and flag trials
    # instead of inventing a counterexample.
    spec = RelationSpec.create(2, 1, mode=CoefficientMode.NAIVE)
    reports = verify(spec, 3)
    assert all(r.status == "flagged" for r in reports)
    assert overall_verdict(reports, 0.01) == "pass"


class _ZeroArgSampler(TrialSampler):
    def draw_args(self, rng, n, genus):
        return tuple(np.zeros(genus, dtype=complex) for _ in range(n))


def test_degenerate_pass_detected():
    # With every factor the odd half-integer characteristic and all
    # arguments zero, both sides vanish; the trial must be classified
    # degenerate-pass and excluded from the verdict.
    odd = Characteristic((F(1, 2),), (F(1, 2),))
    spec = RelationSpec.create(4, 1, (odd, odd, odd, odd))
    reports = verify(spec, 2, sampler=_ZeroArgSampler())
    assert all(r.status == "degenerate-pass" for r in reports)
    assert overall_verdict(reports, 1e-10) == "pass"


def test_verify_eval_failure_status():
    from thetarel import EvalSettings

    spec = RelationSpec.create(3, 1)
    reports = verify(spec, 2, settings=EvalSettings(max_radius=1))
    assert all(r.status == "eval-failed" for r in reports)
    assert overall_verdict(reports, 1e-9) == "fail"


def test_verify_with_fixed_tau():
    spec = RelationSpec.create(3, 1)
    tau = PeriodMatrix(np.array([[0.3 + 1.1j]]))
    reports = verify(spec, 3, tau=tau)
    assert overall_verdict(reports, 1e-10) == "pass"
    assert all(r.tau is tau for r in reports)


def test_verify_deterministic():
    spec = RelationSpec.create(3, 1)
    a = verify(spec, 4)
    b = verify(spec, 4)
    assert [r.lhs for r in a] == [r.lhs for r in b]
    assert [r.rel_error for r in a] == [r.rel_error for r in b]


def test_verify_jacobi_a_passes(sampled_taus):
    rng = np.random.default_rng(43)
    sampler = TrialSampler(43)
    for tau in sampled_taus:
        z = sampler.draw_args(rng, 4, 1)
        rep = verify_jacobi_a(z, tau)
        assert rep.rel_error <= 1e-10


def test_verify_jacobi_a_equal_arguments(tau_i):
    x = 0.17 + 0.05j
    rep = verify_jacobi_a((x, x, x, x), tau_i)
    assert rep.rel_error <= 1e-10


def test_smith_flips_sign_of_odd_product(settings):
    # Replacing the signed Smith combination by the all-plus one changes
    # the result by exactly twice the odd-characteristic product.
    tau = PeriodMatrix(np.array([[0.1 + 1.1j]]))
    rng = np.random.default_rng(44)
    z = tuple(complex(a, b) for a, b in rng.uniform(-0.3, 0.3, (4, 2)))
    spec = RelationSpec.create(4, 1)
    lhs = lhs_value(spec, z, tau, settings)
    ws = apply_to_args(smith_matrix(4), [np.atleast_1d(np.asarray(v, complex)) for v in z])
    odd = Characteristic((F(1, 2),), (F(1, 2),))
    odd_prod = math.prod(theta(odd, w, tau, settings).value for w in ws)
    all_plus = rhs_value(spec, z, tau, settings) + 2 * odd_prod
    assert close(all_plus - lhs, 2 * odd_prod, 1e-10)


def test_relation_report_schema():
    spec = RelationSpec.create(3, 1)
    reports = verify(spec, 2)
    obj = relation_report(spec, build_relation(spec), reports, 1e-9)
    assert set(obj) == {"spec", "terms", "trials", "verdict"}
    assert set(obj["spec"]) == {"n", "g", "lambda", "mode", "mu"}
    assert obj["spec"]["mu"] == ["0;0", "0;0", "0;0"]
    assert len(obj["terms"]) == 9
    assert set(obj["terms"][0]) == {"shift", "exponent", "nu_shifted"}
    assert len(obj["trials"]) == 2
    assert set(obj["trials"][0]) == {
        "seed_index", "tau", "z", "lhs", "rhs", "abs_error", "rel_error", "status",
    }
    assert obj["verdict"] == "pass"
