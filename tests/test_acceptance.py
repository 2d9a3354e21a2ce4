"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.

Criteria 02 and 06 are implemented exactly as classically printed and are
expected to FAIL: the printed ternary coefficient assignment (omega^2 on
(1/3;1/3), omega on (1/3;2/3)) is the complex conjugate of the assignment
the identity actually satisfies under the series definition used here,
and for odd n the uncorrected multiplier kappa = n = lambda does not
reproduce the verified relation (the correct odd multiplier is
lambda*(lambda+1)/2, carrying the inverse of 2 mod lambda).  Keeping both
criteria red alongside the green numerical verifications (01, 07, 08)
documents the discrepancy instead of papering over it; see
src/thetarel/relations.py for the derivation sketch and the demos for a
numerical demonstration.
"""

import cmath
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from thetarel import (
    Characteristic,
    CoefficientMode,
    RelationSpec,
    TrialSampler,
    apply_to_args,
    build_relation,
    cycle_number,
    jacobi_quartic_check,
    smith_matrix,
    ternary_constants_check,
    ternary_cube_check,
    theta,
    theta_constant,
    verify,
    verify_jacobi_a,
    overall_verdict,
)
from thetarel.render import dumps, terms_to_json_obj
from thetarel.theta import _box_sum

F = Fraction
OMEGA = cmath.exp(2j * math.pi / 3)


def record(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def fresh_taus(count=10, seed=91):
    sampler = TrialSampler(seed)
    rng = sampler.make_rng()
    return [sampler.draw_tau(rng, 1) for _ in range(count)]


def test_criterion_01_nine_term_relation_cli():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "thetarel", "verify", "--n", "3", "--g", "1",
         "--trials", "100", "--tol", "1e-9"],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    verdict = json.loads(proc.stdout)["verdict"] if proc.stdout else "missing"
    ok = proc.returncode == 0 and verdict == "pass" and elapsed < 2.0
    record(1, "nine-term relation, 100 trials at 1e-9",
           ok, f"exit={proc.returncode} verdict={verdict} {elapsed:.2f}s")


def test_criterion_02_printed_ternary_coefficient_assignment():
    # As classically printed: omega^2 on (1/3;1/3) and (2/3;2/3), omega on
    # (1/3;2/3) and (2/3;1/3).  The verified relation carries the conjugate
    # assignment, so this check fails; criterion 01 above is the identity
    # actually holding at those shifts.
    terms = {str(t.shift): t.coefficient for t in
             build_relation(RelationSpec.create(3, 1))}
    printed = {
        "1/3;1/3": OMEGA**2, "2/3;2/3": OMEGA**2,
        "1/3;2/3": OMEGA, "2/3;1/3": OMEGA,
        "0;0": 1, "0;1/3": 1, "0;2/3": 1, "1/3;0": 1, "2/3;0": 1,
    }
    mismatches = [
        shift for shift, expected in printed.items()
        if abs(terms[shift] - expected) > 1e-12
    ]
    record(2, "printed ternary coefficient assignment", not mismatches,
           f"conjugated at shifts {mismatches}" if mismatches else "")


def test_criterion_03_smith_relation():
    terms = build_relation(RelationSpec.create(4, 1))
    signs = [t.coefficient for t in terms]
    signs_ok = (
        all(abs(s - 1) < 1e-12 for s in signs[:3]) and abs(signs[3] + 1) < 1e-12
    )
    reports = verify(RelationSpec.create(4, 1), 100)
    verdict = overall_verdict(reports, 1e-10)
    record(3, "four-term signed relation, 100 trials at 1e-10",
           signs_ok and verdict == "pass", f"signs(+,+,+,-)={signs_ok} {verdict}")


def test_criterion_04_jacobi_quadruple_relation():
    sampler = TrialSampler(92)
    rng = sampler.make_rng()
    worst = 0.0
    for _ in range(100):
        tau = sampler.draw_tau(rng, 1)
        z = sampler.draw_args(rng, 4, 1)
        worst = max(worst, verify_jacobi_a(z, tau).rel_error)
    record(4, "all-plus quadruple relation, 100 trials at 1e-10",
           worst <= 1e-10, f"max_rel={worst:.3e}")


def test_criterion_05_falsification_of_uncorrected_even_n():
    spec = RelationSpec.create(4, 1, mode=CoefficientMode.NAIVE)
    reports = verify(spec, 10)
    errors = [r.rel_error for r in reports if r.status == "ok"]
    ok = bool(errors) and max(errors) > 0.01
    record(5, "uncorrected coefficient fails for n=4 within 10 trials",
           ok, f"max_rel={max(errors):.3e}" if errors else "no generic trials")


def test_criterion_06_oddn_naive_equals_modified():
    # As classically stated the two coefficient rules coincide for odd n;
    # numerically they cannot both be right: the verified modified rule
    # differs from kappa = n by the inverse-of-2 factor, so the term
    # lists differ and this check fails by design.
    mismatched = []
    for n in (3, 5, 7):
        mod = RelationSpec.create(n, 1)
        nai = RelationSpec.create(n, 1, mode=CoefficientMode.NAIVE)
        mod_bytes = dumps(terms_to_json_obj(mod, build_relation(mod)))
        nai_bytes = dumps(terms_to_json_obj(nai, build_relation(nai)))
        # Mode tag aside, the term payloads must match byte-for-byte.
        if mod_bytes.replace('"modified"', '"naive"') != nai_bytes:
            mismatched.append(n)
    record(6, "odd-n naive/modified term lists byte-identical",
           not mismatched, f"differ for n={mismatched}" if mismatched else "")


def test_criterion_07_genus_two_relation():
    spec = RelationSpec.create(3, 2)
    term_count = len(build_relation(spec))
    start = time.perf_counter()
    reports = verify(spec, 20)
    elapsed = time.perf_counter() - start
    verdict = overall_verdict(reports, 1e-8)
    ok = term_count == 81 and verdict == "pass" and elapsed < 30.0
    record(7, "81-term genus-2 relation, 20 trials at 1e-8",
           ok, f"terms={term_count} {verdict} {elapsed:.1f}s")


def test_criterion_08_ternary_identities():
    rng = np.random.default_rng(93)
    worst = 0.0
    for tau in fresh_taus(10, seed=93):
        x = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        worst = max(worst, ternary_cube_check(tau, x).rel_error)
        worst = max(worst, ternary_constants_check(tau).rel_error)
    record(8, "ternary cube and constants identities at 1e-10",
           worst <= 1e-10, f"max_rel={worst:.3e}")


def test_criterion_09_quartic_identity_and_odd_constant():
    rng = np.random.default_rng(94)
    worst = 0.0
    odd_worst = 0.0
    odd = Characteristic((F(1, 2),), (F(1, 2),))
    for tau in fresh_taus(10, seed=94):
        x = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        worst = max(worst, jacobi_quartic_check(tau, x).rel_error)
        odd_worst = max(odd_worst, abs(theta_constant(odd, tau).value))
    ok = worst <= 1e-10 and odd_worst < 1e-11
    record(9, "quartic identity at 1e-10 and vanishing odd constant",
           ok, f"max_rel={worst:.3e} |t11(0)|={odd_worst:.2e}")


def test_criterion_10_constant_reflection_symmetries():
    rng = np.random.default_rng(95)
    ok = True
    detail = ""
    for tau in fresh_taus(10, seed=95):
        alpha = F(int(rng.integers(1, 12)), 12)
        beta = F(int(rng.integers(1, 12)), 12)

        def const(top, bottom):
            return theta_constant(Characteristic((top,), (bottom,)), tau)

        checks = [
            (const(1 - alpha, 0), const(alpha, 0), 1.0),
            (const(0, 1 - beta), const(0, beta), 1.0),
            (const(1 - alpha, beta), const(alpha, 1 - beta),
             complex(np.exp(-2j * math.pi * float(alpha)))),
        ]
        for left, right, phase in checks:
            gap = abs(left.value - phase * right.value)
            budget = 10 * (left.tail_bound + right.tail_bound)
            if gap > budget:
                ok = False
                detail = f"gap={gap:.2e} budget={budget:.2e}"
    record(10, "constant reflection symmetries within 10x tail bound", ok, detail)


def test_criterion_11_evaluator_property_suites():
    rng = np.random.default_rng(96)
    sampler = TrialSampler(96)

    involution_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = smith_matrix(n)
        z = tuple(F(int(rng.integers(-20, 21)), int(rng.integers(1, 11)))
                  for _ in range(n))
        involution_ok &= apply_to_args(m, apply_to_args(m, z)) == z

    conservation_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = smith_matrix(n)
        z = tuple(F(int(rng.integers(-20, 21)), int(rng.integers(1, 11)))
                  for _ in range(n))
        w = apply_to_args(m, z)
        conservation_ok &= sum(z) == sum(w)
        conservation_ok &= sum(v * v for v in z) == sum(v * v for v in w)

    shift_ok = True
    for _ in range(200):
        tau = sampler.draw_tau(rng, 1)
        mu = Characteristic((F(int(rng.integers(0, 12)), 12),),
                            (F(int(rng.integers(0, 12)), 12),))
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        k = int(rng.integers(-2, 3))
        base = theta(mu, z, tau)
        top = theta(mu + Characteristic((k,), (0,)), z, tau)
        bottom = theta(mu + Characteristic((0,), (k,)), z, tau)
        phase = complex(np.exp(2j * math.pi * float((mu.top[0] * k) % 1)))
        budget = 2 * (base.tail_bound + top.tail_bound)
        shift_ok &= abs(top.value - base.value) <= budget
        budget = 2 * (base.tail_bound + bottom.tail_bound)
        shift_ok &= abs(bottom.value - phase * base.value) <= budget

    stability_ok = True
    for _ in range(200):
        tau = sampler.draw_tau(rng, 1)
        mu = Characteristic((F(int(rng.integers(0, 12)), 12),),
                            (F(int(rng.integers(0, 12)), 12),))
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        tv = theta(mu, z, tau)
        bigger, _ = _box_sum(mu.top, mu.bottom, np.array([z]), tau.entries,
                             tv.truncation_radius + 4)
        stability_ok &= abs(tv.value - bigger) <= 10 * tv.tail_bound

    ok = involution_ok and conservation_ok and shift_ok and stability_ok
    record(11, "evaluator invariants, 200 cases each", ok,
           f"involution={involution_ok} conservation={conservation_ok} "
           f"shifts={shift_ok} stability={stability_ok}")


def test_criterion_12_cycle_number_table():
    reference = {3: 3, 4: 2, 5: 5, 6: 3, 7: 7, 8: 4, 9: 9, 10: 5}
    lib_ok = all(cycle_number(n) == lam for n, lam in reference.items())
    proc = subprocess.run(
        [sys.executable, "-m", "thetarel", "table", "--range", "3..10",
         "--format", "json"],
        capture_output=True, text=True, timeout=120,
    )
    rows = json.loads(proc.stdout)["rows"]
    cli_ok = rows == [{"n": n, "lambda": lam} for n, lam in reference.items()]
    record(12, "cycle-number table for n=3..10", lib_ok and cli_ok)
