import cmath
import math
from fractions import Fraction

import numpy as np

from thetarel import (
    Characteristic,
    DEFAULT_CASES,
    EvalSettings,
    PeriodMatrix,
    RelationSpec,
    TrialSampler,
    build_relation,
    collapse_args_equal_check,
    constant_symmetries_check,
    jacobi_quartic_check,
    run_suite,
    smith_relation_check,
    ternary_constants_check,
    ternary_cube_check,
    theta,
    theta_constant,
    verify_jacobi_a,
)
from thetarel import identities, relations
from thetarel.identities import _report

F = Fraction
OMEGA = cmath.exp(2j * math.pi / 3)


def test_ternary_cube_passes(sampled_taus):
    rng = np.random.default_rng(51)
    for tau in sampled_taus:
        x = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        rep = ternary_cube_check(tau, x)
        assert rep.rel_error <= 1e-10


def test_ternary_cube_at_zero_matches_constants(tau_i):
    cube = ternary_cube_check(tau_i, 0j)
    direct = 3 * theta_constant(Characteristic.zero(1), tau_i).value ** 3
    assert cube.rel_error <= 1e-10
    assert abs(cube.lhs - direct) <= 1e-12


def test_ternary_cube_coefficient_multiset():
    # Hard-coded cross-check: five +1, two omega, two omega^2.
    terms = build_relation(RelationSpec.create(3, 1))
    ones = sum(1 for t in terms if t.exponent == 0)
    omegas = sum(1 for t in terms if abs(t.coefficient - OMEGA) < 1e-12)
    omega2s = sum(1 for t in terms if abs(t.coefficient - OMEGA**2) < 1e-12)
    assert (ones, omegas, omega2s) == (5, 2, 2)


def test_ternary_constants_passes(sampled_taus):
    for tau in sampled_taus:
        assert ternary_constants_check(tau).rel_error <= 1e-10


def test_ternary_constants_specific_periods():
    for tau in (1.0j, 0.4 + 0.9j):
        rep = ternary_constants_check(PeriodMatrix(np.array([[tau]])))
        assert rep.rel_error <= 1e-10


def test_ternary_constants_pairings_individually(tau_i):
    def cube(top, bottom):
        return theta_constant(
            Characteristic((F(top),), (F(bottom),)), tau_i
        ).value ** 3

    assert abs(cube("1/3", "0") - cube("2/3", "0")) <= 1e-12
    assert abs(cube("0", "1/3") - cube("0", "2/3")) <= 1e-12
    assert abs(cube("1/3", "1/3") - cube("2/3", "2/3")) <= 1e-12
    assert abs(cube("2/3", "1/3") - cube("1/3", "2/3")) <= 1e-12


def test_jacobi_quartic_passes():
    cases = [
        (0.2 + 0j, 1j),
        (0.31 + 0.11j, 0.25 + 1.3j),
        (0j, 0.1 + 0.9j),
    ]
    for x, tau in cases:
        rep = jacobi_quartic_check(PeriodMatrix(np.array([[tau]])), x)
        assert rep.rel_error <= 1e-10


def test_smith_relation_passes(sampled_taus):
    rng = np.random.default_rng(52)
    sampler = TrialSampler(52)
    for tau in sampled_taus:
        z = sampler.draw_args(rng, 4, 1)
        assert smith_relation_check(z, tau).rel_error <= 1e-10


def test_smith_relation_collapses_to_quartic(tau_i):
    x = 0.21 - 0.09j
    rep = smith_relation_check((x, x, x, x), tau_i)
    assert rep.rel_error <= 1e-10
    quartic = jacobi_quartic_check(tau_i, x)
    assert quartic.rel_error <= 1e-10


def test_smith_relation_matches_manual_computation(settings):
    # Engine route against a hand-written (00)'+(01)'+(10)'-(11)' sum.
    tau = PeriodMatrix(np.array([[0.1 + 1.1j]]))
    rng = np.random.default_rng(53)
    z = tuple(complex(a, b) for a, b in rng.uniform(-0.3, 0.3, (4, 2)))
    w = [
        sum(z) / 2 - z[k] for k in range(4)
    ]  # row action of the n=4 involution
    manual = 0j
    for alpha, beta, sign in [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, -1)]:
        chi = Characteristic((F(alpha, 2),), (F(beta, 2),))
        manual += sign * math.prod(theta(chi, wk, tau, settings).value for wk in w)
    from thetarel import rhs_value

    engine = rhs_value(RelationSpec.create(4, 1), z, tau, settings)
    assert abs(engine - manual) <= 1e-12


def test_report_takes_worst_ok_pair_and_degenerate_only_when_all_are(tau_i):
    z = (np.zeros(1, dtype=complex),)
    # The degenerate pair has the largest relative error but is below the
    # floor, so the worst evaluable pair (rel_error ~5e-10) wins.
    mixed = _report(
        [(1.0, 1.0 + 1e-12), (1e-14, 3e-14), (2.0, 2.0 + 1e-9), (4.0, 4.0)], z, tau_i
    )
    assert mixed.status == "ok"
    assert mixed.lhs == 2.0 and mixed.rel_error > 4e-10
    tie = _report([(1.0, 2.0), (2.0, 4.0)], z, tau_i)  # both rel_error 0.5
    assert tie.lhs == 1.0
    degenerate = _report([(1e-14, 3e-14), (2e-13, 0.0)], z, tau_i)
    assert degenerate.status == "degenerate-pass" and degenerate.lhs == 1e-14


def test_jacobi_quadruple_passes(sampled_taus):
    rng = np.random.default_rng(54)
    sampler = TrialSampler(54)
    for tau in sampled_taus:
        z = sampler.draw_args(rng, 4, 1)
        assert verify_jacobi_a(z, tau).rel_error <= 1e-10


def test_constant_symmetries_check(sampled_taus):
    for i, tau in enumerate(sampled_taus):
        rep = constant_symmetries_check(tau, F(1 + i, 12), F(2 + i, 13))
        assert rep.rel_error <= 1e-10


def test_collapse_consistency(sampled_taus):
    # Cross-path agreement within a couple of combined error bounds: both
    # routes use the same evaluator, so agreement is near machine level.
    rng = np.random.default_rng(55)
    for tau in sampled_taus:
        x = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        rep = collapse_args_equal_check(tau, x)
        assert rep.abs_error <= 5e-12


def test_suite_runs_and_passes():
    report = run_suite(tau_samples=3)
    assert len(report["cases"]) == 8
    names = [c["name"] for c in report["cases"]]
    assert names == sorted(names)
    assert set(names) == {
        "collapse_args_equal",
        "constant_symmetries",
        "constants_zero",
        "jacobi_quadruple",
        "jacobi_quartic",
        "smith_relation",
        "ternary_constants",
        "ternary_cube",
    }
    assert report["verdict"] == "pass"
    for case in report["cases"]:
        assert case["verdict"] == "pass"
        assert case["samples"] == 3
        assert case["max_rel_error"] <= 1e-10


def test_suite_derives_nu_once_per_relation(monkeypatch):
    # The curated checks share one n=3 and one n=4 spec: with both fresh,
    # a whole suite run derives nu = mu S_n once for each.
    monkeypatch.setattr(identities, "_TERNARY", RelationSpec.create(3, 1))
    monkeypatch.setattr(identities, "_SMITH", RelationSpec.create(4, 1))
    derived = []
    apply_to_chars = relations.apply_to_chars

    def counted(matrix, chars):
        derived.append(matrix.n)
        return apply_to_chars(matrix, chars)

    monkeypatch.setattr(relations, "apply_to_chars", counted)
    run_suite(10)
    assert sorted(derived) == [3, 4]


def test_suite_deterministic():
    assert run_suite(tau_samples=2) == run_suite(tau_samples=2)


def test_suite_truncation_shows_as_eval_failure_not_identity_failure():
    # A hard radius cap starves the argument-bearing checks; statuses must
    # say eval-failed, never a spurious identity failure.
    tight = EvalSettings(max_radius=4)
    report = run_suite(tau_samples=8, settings=tight)
    verdicts = {c["name"]: c["verdict"] for c in report["cases"]}
    assert "fail" not in verdicts.values()
    assert any(v == "eval-failed" for v in verdicts.values())
    assert any(v == "pass" for v in verdicts.values())
    assert report["verdict"] == "fail"


def test_default_cases_are_eight_unique():
    assert len(DEFAULT_CASES) == 8
    assert len({c.name for c in DEFAULT_CASES}) == 8
