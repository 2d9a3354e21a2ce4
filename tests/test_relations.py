"""Relation engine: exact term lists and randomized numerical verification."""

import cmath
import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import time
import tracemalloc
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
from thetarel.theta import _min_eig_lower

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


def _add_key(terms):
    terms[5]["note"] = "extra"


def _drop_key(terms):
    del terms[5]["exponent"]


def _row_as_list(terms):
    terms[5] = [terms[5]["shift"], terms[5]["exponent"], terms[5]["nu_shifted"]]


@pytest.mark.parametrize(
    "alter",
    [
        _alter_exponent, _alter_nu_shifted, _alter_shift, _drop_term, _reorder_terms,
        _add_key, _drop_key, _row_as_list,
    ],
)
def test_parse_rejects_terms_that_do_not_match_the_spec(alter):
    spec = RelationSpec.create(3, 1)
    obj = terms_to_json_obj(spec, build_relation(spec))
    alter(obj["terms"])
    with pytest.raises(ValueError, match="terms do not match"):
        parse_terms_json(dumps(obj))


def _set_spec(key, value):
    def alter(obj):
        obj["spec"][key] = value
        return obj
    return alter


def _drop(*path):
    def alter(obj):
        target = obj
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
        return obj
    return alter


@pytest.mark.parametrize(
    "alter, match",
    [
        (lambda obj: [obj], "must be an object"),
        (lambda obj: "terms", "must be an object"),
        (lambda obj: {**obj, "spec": list(obj["spec"].values())}, "must be an object"),
        (_drop("terms"), "lacks terms"),
        (_drop("spec", "lambda"), "lacks spec.lambda"),
        (_drop("spec", "mu"), "lacks spec.mu"),
        (_set_spec("n", 1.5), '"n" must be a JSON integer'),
        (_set_spec("n", 3.0), '"n" must be a JSON integer'),
        (_set_spec("g", True), '"g" must be a JSON integer'),
        (_set_spec("lambda", "3"), '"lambda" must be a JSON integer'),
        (_set_spec("mu", "0;0"), '"mu" must be a list'),
    ],
)
def test_parse_rejects_malformed_documents(alter, match):
    spec = RelationSpec.create(3, 1)
    obj = terms_to_json_obj(spec, build_relation(spec))
    with pytest.raises(ValueError, match=match):
        parse_terms_json(json.dumps(alter(obj)))


def test_parse_checks_the_term_count_before_building_the_relation():
    # n=3, g=7 has 3^14 terms; a document of 173 bytes that lists none is
    # rejected without deriving its 2187 x 2187 exponent table.  The last
    # is written by dumps, so it is first read as dumps writes it, by its
    # bytes: a text this short builds no relation there either.
    zero = ";".join([",".join(["0"] * 7)] * 2)
    spec = {"n": 3, "g": 7, "lambda": 3, "mode": "modified", "mu": [zero] * 3}
    texts = [json.dumps({"spec": spec, "terms": terms}) for terms in ([], {}, [{}] * 2)]
    texts.append(dumps({"spec": spec, "terms": []}))
    assert texts[-1].startswith('{\n  "spec": {')
    tracemalloc.start()
    try:
        for text in texts:
            with pytest.raises(ValueError, match="terms do not match"):
                parse_terms_json(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


@pytest.mark.parametrize("genus", [0, -1, -5])
def test_spec_genus_error_names_the_genus(genus):
    message = f"need genus >= 1, got {genus}"
    with pytest.raises(ValueError, match=message):
        RelationSpec.create(3, genus)
    with pytest.raises(ValueError, match=message):
        RelationSpec(3, genus, (), CoefficientMode.MODIFIED)


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
    calls = {"nu": 0, "coefficients": 0, "check": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for key, name in (("nu", "_nu"), ("coefficients", "_coefficients")):
        table = relations.RelationSpec.__dict__[name]
        monkeypatch.setattr(table, "func", counted(key, table.func))
    monkeypatch.setattr(relations, "_check", counted("check", relations._check))
    # A fresh shared spec: an earlier test may have derived its tables.
    relations._shared_spec.cache_clear()
    spec = RelationSpec.create(2, 1, mode=CoefficientMode.NAIVE)
    reports = verify(spec, 3)
    assert all(r.status == "flagged" for r in reports)
    assert not spec._coefficients.flags.writeable
    assert calls == {
        "nu": 1, "coefficients": 1, "check": 3 * relations.MAX_RESAMPLES,
    }


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("g", [1, 2])
def test_term_counts(n, g):
    spec = RelationSpec.create(n, g)
    terms = build_relation(spec)
    lam = cycle_number(n)
    assert len(terms) == lam ** (2 * g)


def test_relation_is_a_read_only_sequence():
    spec = RelationSpec.create(3, 2)
    relation = build_relation(spec)
    terms = list(relation)
    assert len(relation) == len(terms) == 81
    # Every integer index, and slices with any bounds and steps, behave
    # as on the list of the same terms; a slice is a list.
    for i in range(-82, 82):
        if -81 <= i < 81:
            assert relation[i] == terms[i]
        else:
            with pytest.raises(IndexError):
                relation[i]
    bounds, steps = [None, -100, -5, 0, 3, 80, 100], [None, 1, 2, -1, -9]
    for start, stop, step in itertools.product(bounds, bounds, steps):
        part = relation[start:stop:step]
        assert type(part) is list and part == terms[start:stop:step]
    with pytest.raises(TypeError):
        relation[1.0]
    with pytest.raises(TypeError):
        relation["0"]
    assert [relation[i] for i in range(len(relation))] == terms
    assert relation == terms and terms == relation
    assert relation == build_relation(RelationSpec.create(3, 2))
    assert relation != terms[:-1] and relation != terms[::-1]
    naive = RelationSpec.create(3, 2, mode=CoefficientMode.NAIVE)
    assert relation != build_relation(naive)
    with pytest.raises(TypeError):
        hash(relation)
    # Built on access: equal terms, not the same objects.
    assert relation[5] == relation[5] and relation[5] is not relation[5]


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


@pytest.mark.parametrize("lhs, rhs", [
    (complex(math.nan), complex(math.nan)),
    (complex(math.nan), 1.0),
    (complex(math.inf), 1.0),
    (complex(math.inf), complex(math.inf)),
    (1.0, complex(0.0, -math.inf)),
])
def test_compare_fails_a_side_that_is_not_a_finite_number(lhs, rhs):
    report = relations._compare(lhs, rhs, (0j,), PeriodMatrix(np.array([[1j]])))
    assert report.status == "eval-failed"
    assert overall_verdict([report], 1e-9) == "fail"


def test_compare_keeps_the_nan_report_of_a_failed_search():
    report = relations._compare(complex(math.nan), complex(math.nan), (0j,),
                                PeriodMatrix(np.array([[1j]])), 3)
    assert report.status == "eval-failed" and report.seed_index == 3
    assert all(math.isnan(x) for x in (report.abs_error, report.rel_error))
    assert cmath.isnan(report.lhs) and cmath.isnan(report.rhs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_fails_every_trial_at_an_overflowing_tau():
    # The lattice sums overflow to NaN; no trial may read "ok".
    reports = verify(RelationSpec.create(3, 1), 3, tau=PeriodMatrix(np.array([[1e308j]])))
    assert [r.status for r in reports] == ["eval-failed"] * 3


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


def _draw_tau_entry_by_entry(rng, genus):
    """Oracle for TrialSampler.draw_tau: one scalar draw per upper-triangle
    entry, in nested loops."""
    if genus == 1:
        u = rng.uniform(-0.5, 0.5)
        v = rng.uniform(0.8, 1.6)
        return np.array([[u + 1j * v]])
    while True:
        d = rng.uniform(0.9, 1.4, genus)
        w = np.zeros((genus, genus))
        for i in range(genus):
            for j in range(i, genus):
                w[i, j] = w[j, i] = rng.uniform(-1.0, 1.0)
        im = np.diag(d) + 0.2 * w
        if not _min_eig_lower(im) > 0.0:
            continue
        re = np.zeros((genus, genus))
        for i in range(genus):
            for j in range(i, genus):
                re[i, j] = re[j, i] = rng.uniform(-0.3, 0.3)
        return re + 1j * im


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_draw_tau_matches_entry_by_entry_draws(genus):
    # Same matrices bit for bit, and the generator left in the same state.
    for seed in range(50):
        sampler = TrialSampler(seed)
        rng, oracle = sampler.make_rng(), np.random.default_rng(seed)
        for _ in range(3):
            got = sampler.draw_tau(rng, genus).entries
            assert got.tobytes() == _draw_tau_entry_by_entry(oracle, genus).tobytes()
        assert rng.random() == oracle.random()


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_draw_tau_gives_what_period_matrix_makes_of_its_entries(genus):
    # draw_tau hands its certified bound to the matrix; the constructor
    # must find the same entries and the same bound, bit for bit.
    sampler = TrialSampler(genus)
    rng = sampler.make_rng()
    for _ in range(1000):
        tau = sampler.draw_tau(rng, genus)
        checked = PeriodMatrix(tau.entries)
        assert tau.entries.tobytes() == checked.entries.tobytes()
        assert np.float64(tau.lam_min).tobytes() == np.float64(checked.lam_min).tobytes()
        assert not tau.entries.flags.writeable


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_draw_tau_meets_the_gershgorin_floor(genus):
    # Diagonal of Im tau at least 0.9 - 0.2, and g - 1 off-diagonal entries
    # of at most 0.2 per row: lam_min >= 0.7 - 0.2 (g - 1).
    sampler = TrialSampler(0)
    rng = sampler.make_rng()
    floor = 0.7 - 0.2 * (genus - 1)
    assert min(sampler.draw_tau(rng, genus).lam_min for _ in range(1000)) >= floor


def test_draw_tau_gives_up_after_its_cap(monkeypatch):
    # No draw of Im tau at g = 48 is positive definite within 2 10^5
    # draws; with the cap at 50 the sampler raises at once.
    monkeypatch.setattr(relations, "_MAX_TAU_DRAWS", 50)
    with pytest.raises(ValueError, match="at genus 48 in 50 draws"):
        TrialSampler(0).draw_tau(TrialSampler(0).make_rng(), 48)


@pytest.mark.parametrize("genus", [0, -1])
@pytest.mark.parametrize("draw", [
    lambda sampler, rng, genus: sampler.draw_tau(rng, genus),
    lambda sampler, rng, genus: sampler.draw_args(rng, 3, genus),
    lambda sampler, rng, genus: sampler.draw(rng, 3, genus),
], ids=["draw_tau", "draw_args", "draw"])
def test_sampler_refuses_a_genus_below_one_before_drawing(draw, genus):
    sampler = TrialSampler(0)
    rng = sampler.make_rng()
    with pytest.raises(ValueError, match=f"need genus >= 1, got {genus}$"):
        draw(sampler, rng, genus)
    # The rng is untouched: its next draw is the first of a fresh one.
    assert rng.uniform() == sampler.make_rng().uniform()


def test_draw_tau_at_genus_65_returns_or_raises_within_seconds():
    # At the real cap, about 3 s on a 2-CPU Xeon; allow 20x for a slow host.
    start = time.perf_counter()
    sampler = TrialSampler(0)
    try:
        assert sampler.draw_tau(sampler.make_rng(), 65).lam_min > 0
    except ValueError as exc:
        assert str(exc) == (f"no positive definite Im tau at genus 65 in "
                            f"{relations._MAX_TAU_DRAWS} draws")
    assert time.perf_counter() - start < 60


class _ScriptedRng:
    """Stand-in generator: uniform() returns the scripted draws in order,
    then the draws of a seeded numpy generator."""

    def __init__(self, seed, *draws):
        self.draws = [np.array(d) for d in draws]
        self.rng = np.random.default_rng(seed)

    def uniform(self, lo, hi, size=None):
        return self.draws.pop(0) if self.draws else self.rng.uniform(lo, hi, size)


def test_draw_tau_redraws_what_period_matrix_refuses():
    # Im tau = [[1, 1], [1, 1 + 1e-15]]: a Cholesky factorization succeeds,
    # but PeriodMatrix refuses it, so draw_tau must draw again, not raise.
    im = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    np.linalg.cholesky(im)
    with pytest.raises(ValueError, match="positive definite"):
        PeriodMatrix(1j * im)
    rng = _ScriptedRng(5, [1.0, 1.0 + 1e-15], [0.0, 5.0, 0.0])
    got = TrialSampler().draw_tau(rng, 2).entries
    ordinary = TrialSampler().draw_tau(np.random.default_rng(5), 2).entries
    assert got.tobytes() == ordinary.tobytes()


def _count_eigvalsh(monkeypatch) -> list:
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda y: calls.append(y) or eigvalsh(y))
    return calls


@pytest.mark.parametrize("genus", [2, 3, 4])
def test_a_drawn_tau_takes_one_eigvalsh(monkeypatch, genus):
    # Below g = 5 no draw is redrawn (Gershgorin), so each drawn tau is one
    # Im tau certified once, and its bound is the one PeriodMatrix computes.
    calls = _count_eigvalsh(monkeypatch)
    sampler = TrialSampler(3)
    rng = sampler.make_rng()
    for _ in range(20):
        calls.clear()
        tau = sampler.draw_tau(rng, genus)
        assert len(calls) == 1
        assert calls[0].tobytes() == tau.entries.imag.tobytes()
        assert not tau.entries.flags.writeable
        assert tau.lam_min == PeriodMatrix(tau.entries).lam_min


@pytest.mark.parametrize("argv, calls, digest", [
    (["--n", "3", "--g", "2", "--trials", "4", "--seed", "7"], 4,
     "2694883ab976f1377ca34ef1f0dee3add4f71bccce0acb37df499c6107a5ae29"),
    (["--n", "5", "--g", "2", "--trials", "3", "--seed", "11", "--mu", "1/5,0;0,2/5",
      *["--mu", "0,0;0,0"] * 4], 3,
     "bbc6987c62086d77653b3f936bd6078564fbf3128827fe10b6761ceb9d6e4f7f"),
], ids=["n3-g2-seed7", "n5-g2-seed11"])
def test_verify_takes_one_eigvalsh_per_trial_and_keeps_its_bytes(
        monkeypatch, capsys, argv, calls, digest):
    # Certifying each drawn tau once, not twice, kept these reports'
    # bytes; the digests are those of the per-axis fold of the shift
    # tables, whose right sides differ from the dense mix's in the last
    # bits, with the same statuses and verdicts.
    from thetarel.cli import main

    counted = _count_eigvalsh(monkeypatch)
    assert main(["verify", *argv]) == 0
    assert len(counted) == calls
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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


def _zero_mu_spec(n, g, mode=CoefficientMode.MODIFIED):
    return RelationSpec(n, g, (Characteristic.zero(g),) * n, mode)


def test_create_returns_one_shared_spec_per_value():
    mu = [Characteristic.parse(t) for t in ("1/3;0", "0;2/3", "2/3;1/3")]
    same = [Characteristic((F(2, 6),), (0,)), Characteristic((0,), ("2/3",)), mu[2]]
    spec = RelationSpec.create(3, 1, mu)
    assert RelationSpec.create(3, 1, tuple(same)) is spec
    assert RelationSpec.create(3, 1, [Characteristic.zero(1)] * 3) is RelationSpec.create(3, 1)
    assert RelationSpec.create(3, 1, mu, CoefficientMode.NAIVE) is not spec
    # Equal values of another type would be written differently.
    assert RelationSpec.create(3, True).genus is True
    assert RelationSpec.create(3, 1).genus is not True


@pytest.mark.parametrize("n,g,mu", [
    (3, 5, None),       # 3^10 = 59049 terms
    (37, 1, None),      # 1369 terms, 38 * 37 * (1 + 2) = 4218 row units
    # 9 terms, but 26583 bits of mu: 4 * 3 * (1 + 416) = 5004 row units
    (3, 1, [Characteristic((F(10**8000 + 1, 3),), (F(0),))] + [Characteristic.zero(1)] * 2),
])
def test_a_spec_over_the_caps_is_new_on_every_call(n, g, mu):
    relations._shared_spec.cache_clear()
    spec = RelationSpec.create(n, g, mu)
    assert not relations._kept(spec)
    assert RelationSpec.create(n, g, mu) is not spec
    assert RelationSpec.create(n, g, mu) == spec
    assert relations._shared_spec.cache_info().currsize == 0


def test_the_largest_grid_spec_and_the_benchmark_specs_are_kept():
    for n, g in [(5, 3), (3, 3), (7, 2), (8, 2), (9, 1), (4, 3), (5, 2)]:
        assert RelationSpec.create(n, g) is RelationSpec.create(n, g)


def test_spec_cache_never_holds_more_than_its_size():
    relations._shared_spec.cache_clear()
    size = relations._shared_spec.cache_info().maxsize
    assert size == relations._SPEC_CACHE_SIZE
    for k in range(size + 8):
        RelationSpec.create(3, 1, [Characteristic((F(k, 7),), (F(0),))] * 3)
        assert relations._shared_spec.cache_info().currsize == min(k + 1, size)


@pytest.mark.parametrize("make", [
    lambda: RelationSpec.create(1, 1),
    lambda: RelationSpec.create(3, 0),
    lambda: RelationSpec.create(3, 2, [Characteristic.zero(1)] * 3),
    lambda: RelationSpec.create(3, 1, [Characteristic.parse(t) for t in ("0;0", "oops;0", "0;0")]),
], ids=["n=1", "g=0", "genus-mismatch", "bad-mu-token"])
def test_bad_specs_raise_the_same_error_on_every_call(make):
    relations._shared_spec.cache_clear()
    errors = []
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            make()
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert relations._shared_spec.cache_info().currsize == 0


def test_shared_tables_are_tuples_and_read_only_arrays():
    spec = RelationSpec.create(3, 2, [Characteristic.parse("1/3,0;2/3,1/3")] * 3)
    assert type(spec._nu) is tuple
    for table in (spec._digit_table, spec._text_rows, spec._latex_rows):
        assert type(table) is tuple and len(table) == 2
        for half in table:
            assert type(half) is tuple and len(half) == spec.lam**spec.genus
            assert all(type(row) is tuple and len(row) == spec.n + 1 for row in half)
    # Per axis: one lambda x lambda cross table, and the drifts and the
    # numerator tables of the g axes, both in Python ints.
    cross, drifts, _, tables = spec._exponent_parts
    assert cross.shape == (spec.lam, spec.lam)
    assert drifts.shape == (spec.genus, 1, spec.lam)
    assert tables.shape == (spec.genus, spec.lam, spec.lam)
    assert all(type(v) is int for v in [*drifts.flat, *tables.flat])
    assert not any(a.flags.writeable for a in (cross, drifts, tables, spec._coefficients))


def _units(spec):
    bits = sum(v.numerator.bit_length() + v.denominator.bit_length()
               for m in spec.mu for half in (m.top, m.bottom) for v in half)
    return (spec.n + 1) * spec.lam**spec.genus * (spec.genus + -(-bits // 64))


@pytest.mark.parametrize("spec", [
    _zero_mu_spec(5, 3),                  # the most terms of a kept spec
    _zero_mu_spec(35, 1),                 # row units near the cap
    _zero_mu_spec(4, 1),                  # the fixed part dominates
    _zero_mu_spec(2, 60),                 # long rows
    _zero_mu_spec(2, 65),                 # more axes than numpy has dimensions
    RelationSpec(5, 1, tuple(Characteristic((F(1, p),), (F(2, p + 2),))
                             for p in (2**64 - 59, 2**64 - 83, 2**64 - 95, 2**64 - 179, 7)),
                 CoefficientMode.MODIFIED),   # coprime 64-bit denominators
], ids=["5-3", "35-1", "4-1", "2-60", "2-65", "5-1-wide"])
def test_a_kept_spec_takes_at_most_its_stated_bytes(spec):
    # The bound of the _SPEC_CACHE_SIZE comment: 16 kB, 16 B per term and
    # 320 B per row unit for all that a spec derives.
    assert relations._kept(spec)
    smith_matrix(spec.n)
    tracemalloc.start()
    try:
        spec._nu, spec._digit_table, spec._text_rows, spec._latex_rows
        spec._exponent_parts, spec._coefficients
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 16384 + 16 * spec.lam ** (2 * spec.genus) + 320 * _units(spec)


def test_verify_keeps_its_refusal_check_plans_for_the_rows(monkeypatch):
    """The plans that verify builds before drawing, to refuse boxes over
    the cap, are the rows' plans of the first radius: each (side, j,
    radius) plan looks its g axes up once per run, and the report keeps
    the bytes of a run that builds those plans twice (the digest is
    that of the per-axis fold of the shift tables)."""
    theta_module = importlib.import_module("thetarel.theta")
    mu = ["1/2,1/4,0;0,0,0", "3/4,0,1/4;0,0,0", "1/2,3/4,1/2;0,0,0", "3/4,0,1/4;0,0,0",
          "1/2,1/4,1/4;0,0,0", "1/4,0,0;0,0,0", "1/2,1/4,3/4;0,0,0", "0,3/4,1/4;0,0,0"]
    spec = RelationSpec.create(8, 3, [Characteristic.parse(m) for m in mu])
    sides = []
    side = relations._side
    monkeypatch.setattr(relations, "_side", lambda *args: sides.append(side(*args)) or sides[-1])
    theta_module._axis.cache_clear()
    reports = verify(spec, 3)
    # Both sides' axes, of lambda = 1 and lambda = 4, are in _axis.
    info = theta_module._axis.cache_info()
    assert [3 * len(s[3]) for s in sides] == [48, 42]
    assert info.hits + info.misses == 3 * sum(len(s[3]) for s in sides) == 90
    text = dumps(relations.relation_report(spec, build_relation(spec), reports, 1e-9))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "361b8f25b48c0a540156a90f03858fe3266b483f8a6f397b13d761f507b860e9")
