import cmath
import dataclasses
import importlib
import math
from fractions import Fraction

import numpy as np
import pytest

from thetarel import (
    Characteristic,
    DEFAULT_CASES,
    EvalSettings,
    PeriodMatrix,
    RelationSpec,
    TrialSampler,
    TruncationError,
    build_relation,
    collapse_args_equal_check,
    constant_symmetries_check,
    jacobi_quartic_check,
    rhs_value,
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
from thetarel.relations import _compare
from thetarel.transforms import apply_to_args, jacobi_a_matrix

# The module; thetarel.theta is the function of that name.
theta_module = importlib.import_module("thetarel.theta")

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


@pytest.mark.parametrize("alpha, beta", [(0.1, 0.2), (F(1, 12), 0.25), (0.5, "1/3")])
def test_constant_symmetries_check_rejects_floats(tau_i, alpha, beta):
    with pytest.raises(TypeError, match="exact rational needed"):
        constant_symmetries_check(tau_i, alpha, beta)


def test_constant_symmetries_check_takes_ints_fractions_and_rational_strings(tau_i):
    exact = constant_symmetries_check(tau_i, F(1, 6), F(1, 4))
    assert constant_symmetries_check(tau_i, "1/6", "1/4") == exact
    assert exact.rel_error <= 1e-10
    assert constant_symmetries_check(tau_i, 1, 0).rel_error <= 1e-10


@pytest.mark.parametrize("samples", [0, -1])
def test_suite_needs_a_sample(samples):
    with pytest.raises(ValueError, match="at least one tau sample"):
        run_suite(samples)


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
    # made by create from a cleared cache, a whole suite run derives
    # nu = mu S_n once for each.
    relations._shared_spec.cache_clear()
    monkeypatch.setattr(identities, "_TERNARY", RelationSpec.create(3, 1))
    monkeypatch.setattr(identities, "_QUADRUPLE", RelationSpec.create(4, 1))
    derived = []
    nu = relations.RelationSpec.__dict__["_nu"]
    derive = nu.func

    def counted(spec):
        derived.append(spec.n)
        return derive(spec)

    monkeypatch.setattr(nu, "func", counted)
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


@pytest.mark.parametrize("name,check", [
    ("ternary_cube", lambda tau, s: ternary_cube_check(tau, 0.1j, s)),
    ("smith_relation", lambda tau, s: smith_relation_check((0j, 0.1, -0.2j, 0.3), tau, s)),
])
def test_relation_checks_raise_on_a_failed_radius_search(name, check):
    # At max_radius 1 no tail bound reaches its target: the checks of a
    # whole relation raise, and the suite reports the case eval-failed.
    tight = EvalSettings(max_radius=1)
    with pytest.raises(TruncationError, match="at radius 1 does not reach target"):
        check(PeriodMatrix(np.array([[0.1 + 0.8j]])), tight)
    verdicts = {c["name"]: c["verdict"] for c in run_suite(2, settings=tight)["cases"]}
    assert verdicts[name] == "eval-failed"


def test_default_cases_are_eight_unique():
    assert len(DEFAULT_CASES) == 8
    assert len({c.name for c in DEFAULT_CASES}) == 8


# Term-by-term forms of five checks, as they were written before the
# checks shared lhs_value and rhs_value and evaluated their values as one
# stack: each theta value is one theta() call where it is used.


def _ternary_constants_oracle(tau, settings):
    terms = {str(t.shift): t.coefficient for t in build_relation(RelationSpec.create(3, 1))}

    def const(top, bottom):
        return theta_constant(
            Characteristic((Fraction(top),), (Fraction(bottom),)), tau, settings
        ).value

    pairs = []
    pairs.append((const("1/3", "0") ** 3, const("2/3", "0") ** 3))
    pairs.append((const("0", "1/3") ** 3, const("0", "2/3") ** 3))
    pairs.append((const("1/3", "1/3") ** 3, const("2/3", "2/3") ** 3))
    pairs.append((const("2/3", "1/3") ** 3, const("1/3", "2/3") ** 3))
    reduced = (
        const("0", "1/3") ** 3
        + const("1/3", "0") ** 3
        + terms["1/3;2/3"] * const("1/3", "2/3") ** 3
        + terms["1/3;1/3"] * const("1/3", "1/3") ** 3
    )
    pairs.append((const("0", "0") ** 3, reduced))
    zero = np.zeros(1, dtype=complex)
    return identities._report(pairs, (zero,) * 3, tau)


def _jacobi_a_oracle(z, tau, settings):
    zs = relations._as_arg_tuple(4, 1, z)
    ws = apply_to_args(jacobi_a_matrix(), zs)
    zero = Characteristic.zero(1)
    lhs = 2.0 * math.prod(theta(zero, zj, tau, settings).value for zj in zs)
    rhs = 0j
    for alpha in (0, 1):
        for beta in (0, 1):
            chi = Characteristic((Fraction(alpha, 2),), (Fraction(beta, 2),))
            rhs += math.prod(theta(chi, wj, tau, settings).value for wj in ws)
    return _compare(lhs, rhs, zs, tau)


def _jacobi_quartic_oracle(tau, x, settings):
    half = Fraction(1, 2)

    def t(top, bottom, arg):
        return theta(Characteristic((top,), (bottom,)), arg, tau, settings).value

    pairs = []
    for arg in (x, 0.0):
        lhs = t(0, 0, arg) ** 4 + t(half, half, arg) ** 4
        rhs = t(0, half, arg) ** 4 + t(half, 0, arg) ** 4
        pairs.append((lhs, rhs))
    return identities._report(pairs, (x,), tau)


def _constant_symmetries_oracle(tau, a, b, settings):
    def const(top, bottom):
        return theta_constant(Characteristic((top,), (bottom,)), tau, settings).value

    phase = complex(np.exp(-2j * math.pi * float(a)))
    pairs = [
        (const(1 - a, 0), const(a, 0)),
        (const(0, 1 - b), const(0, b)),
        (const(1 - a, b), phase * const(a, 1 - b)),
    ]
    zero = np.zeros(1, dtype=complex)
    return identities._report(pairs, (zero,), tau)


def _collapse_args_equal_oracle(tau, x, settings):
    spec = RelationSpec.create(3, 1)
    z = (x, x, x)
    direct = 0j
    for term in build_relation(spec):
        direct += term.coefficient * theta(term.shift, x, tau, settings).value ** 3
    return _compare(rhs_value(spec, z, tau, settings), direct, z, tau)


def _bits(value):
    """value with every float held exactly: by repr, which round-trips and
    keeps the sign of zero, and every array by dtype, shape and bytes."""
    if isinstance(value, PeriodMatrix):
        return _bits(value.entries)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return type(value).__name__, repr(value)


# name: (check, its oracle, draw(rng, sampler, tau) -> the arguments
# before settings)
ORACLES = {
    "collapse_args_equal": (
        collapse_args_equal_check, _collapse_args_equal_oracle,
        lambda rng, sampler, tau: (tau, identities._draw_x(rng, sampler)),
    ),
    "constant_symmetries": (
        constant_symmetries_check, _constant_symmetries_oracle,
        lambda rng, sampler, tau: (
            tau, identities._draw_twelfth(rng), identities._draw_twelfth(rng)),
    ),
    "jacobi_quadruple": (
        verify_jacobi_a, _jacobi_a_oracle,
        lambda rng, sampler, tau: (sampler.draw_args(rng, 4, 1), tau),
    ),
    "jacobi_quartic": (
        jacobi_quartic_check, _jacobi_quartic_oracle,
        lambda rng, sampler, tau: (tau, identities._draw_x(rng, sampler)),
    ),
    "ternary_constants": (
        ternary_constants_check, _ternary_constants_oracle, lambda rng, sampler, tau: (tau,),
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_checks_match_their_term_by_term_oracles(name, settings, monkeypatch):
    # Over 50 sampler draws every report field is the same to the bit, and
    # so is every pair of sides that a multi-part report is chosen from.
    check, oracle, draw = ORACLES[name]
    report = identities._report
    pairs = []

    def recording(sides, z, tau):
        pairs.append(_bits(tuple(map(tuple, sides))))
        return report(sides, z, tau)

    monkeypatch.setattr(identities, "_report", recording)
    sampler = TrialSampler(61)
    rng = sampler.make_rng()
    for _ in range(50):
        args = draw(rng, sampler, sampler.draw_tau(rng, 1))
        got = check(*args, settings)
        got_pairs = pairs[:]
        pairs.clear()
        expected = oracle(*args, settings)
        assert got_pairs == pairs
        pairs.clear()
        assert [_bits(getattr(got, f.name)) for f in dataclasses.fields(got)] == [
            _bits(getattr(expected, f.name)) for f in dataclasses.fields(expected)
        ]


def test_ternary_constants_evaluates_each_cube_once(monkeypatch, tau_i):
    # One row per shift of the nine-term relation, all nine in one block
    # and one stack.
    rows, blocks, stacks = [], [], []
    side, block_rows, values = identities._side, identities._block_rows, identities._theta_values

    def recording_side(chars, *args):
        rows.extend(str(mu) for mu in chars)
        return side(chars, *args)

    def recording_rows(*args):
        made = block_rows(*args)
        blocks.append(len(made))
        return made

    def recording_values(stack):
        stacks.append(len(stack))
        return values(stack)

    monkeypatch.setattr(identities, "_side", recording_side)
    monkeypatch.setattr(identities, "_block_rows", recording_rows)
    monkeypatch.setattr(identities, "_theta_values", recording_values)
    ternary_constants_check(tau_i)
    assert sorted(rows) == sorted(
        str(t.shift) for t in build_relation(RelationSpec.create(3, 1))
    )
    assert blocks == [9]
    assert stacks == [9]


@pytest.mark.parametrize("module, name, size", [
    (identities, "collapse_args_equal", 9),
    (identities, "constant_symmetries", 6),
    (identities, "jacobi_quartic", 8),
    (relations, "jacobi_quadruple", 20),
])
def test_checks_evaluate_their_theta_values_in_one_stack(monkeypatch, module, name, size):
    # No value comes from theta(), whose one row is an unstacked call of
    # the kernel theta._sums: every kernel call has a row axis.
    check, _, draw = ORACLES[name]
    values, stacks, sums, kernel = module._theta_values, [], [], theta_module._sums

    def recording(stack):
        stacks.append(len(stack))
        return values(stack)

    monkeypatch.setattr(module, "_theta_values", recording)
    monkeypatch.setattr(theta_module, "_sums",
                        lambda v, shift, *args: sums.append(shift.shape) or kernel(v, shift, *args))
    sampler = TrialSampler(62)
    rng = sampler.make_rng()
    check(*draw(rng, sampler, sampler.draw_tau(rng, 1)))
    assert stacks == [size]
    assert all(len(shape) == 2 for shape in sums) and sum(s[1] for s in sums) == size
