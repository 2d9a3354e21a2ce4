"""Named specializations of the theta relations, packaged as checks.

Each check compares one classical identity numerically and returns a
VerificationReport; where several equalities make up one named identity
(pairings, constants forms) the report carries the worst of them.  The
curated cases are re-derived from build_relation wherever the general
machinery covers them, so the suite exercises two independent code
paths; hard-coded coefficient multisets appear only in the tests as
cross-checks.  DEFAULT_CASES is the one table of named specializations
that run_suite walks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .charalg import Characteristic
from .relations import (
    RelationSpec,
    TrialSampler,
    VerificationReport,
    build_relation,
    lhs_value,
    rhs_value,
    verify_jacobi_a,
    DEFAULT_SEED,
    _compare,
)
from .theta import (
    DEFAULT_SETTINGS,
    EvalSettings,
    PeriodMatrix,
    TruncationError,
    theta,
    theta_constant,
)

__all__ = [
    "IdentityCase",
    "DEFAULT_CASES",
    "ternary_cube_check",
    "ternary_constants_check",
    "jacobi_quartic_check",
    "smith_relation_check",
    "constant_symmetries_check",
    "collapse_args_equal_check",
    "run_suite",
]

# Largest max_rel_error with which a suite case passes.
SUITE_TOLERANCE = 1e-10

# The all-zero n=3 and n=4 relations that the curated checks specialize,
# held once so that their per-spec values (nu, the coefficient and digit
# tables) are derived once rather than on every call.
_TERNARY = RelationSpec.create(3, 1)
_SMITH = RelationSpec.create(4, 1)


def _report(pairs, z, tau: PeriodMatrix) -> VerificationReport:
    """Report for a multi-part identity: the evaluable comparison with the
    worst relative error wins; degenerate pairs only surface when every
    pair is degenerate."""
    reports = [_compare(lhs, rhs, z, tau) for lhs, rhs in pairs]
    ok = [r for r in reports if r.status == "ok"]
    return max(ok, key=lambda r: r.rel_error) if ok else reports[0]


def ternary_cube_check(
    tau: PeriodMatrix, x: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> VerificationReport:
    """Nine-cube identity: 3 theta_(0;0)(x)^3 equals the coefficient-weighted
    sum of the nine shifted cubes, obtained from the n=3 relation at
    z = (x, x, x) (a fixed point of the transform).  At x = 0 it is the
    nine-term constants relation, the suite's constants_zero case."""
    z = (x, x, x)
    lhs = lhs_value(_TERNARY, z, tau, settings)
    rhs = rhs_value(_TERNARY, z, tau, settings)
    return _compare(lhs, rhs, z, tau)


def ternary_constants_check(
    tau: PeriodMatrix, settings: EvalSettings = DEFAULT_SETTINGS
) -> VerificationReport:
    """Reduced four-term ternary constants identity plus the cube-pairing
    equalities used to reduce the nine-term constants relation.

    The root-of-unity weights of the reduced form are taken from the
    generated term list (not hard-coded), keeping this path consistent
    with the relation engine.
    """
    terms = {str(t.shift): t.coefficient for t in build_relation(_TERNARY)}

    def const(top, bottom):
        return theta_constant(
            Characteristic((Fraction(top),), (Fraction(bottom),)), tau, settings
        ).value

    pairs = []
    # Pairing equalities between cubes.
    pairs.append((const("1/3", "0") ** 3, const("2/3", "0") ** 3))
    pairs.append((const("0", "1/3") ** 3, const("0", "2/3") ** 3))
    pairs.append((const("1/3", "1/3") ** 3, const("2/3", "2/3") ** 3))
    pairs.append((const("2/3", "1/3") ** 3, const("1/3", "2/3") ** 3))
    # Reduced identity (the nine-term relation after pairing).
    reduced = (
        const("0", "1/3") ** 3
        + const("1/3", "0") ** 3
        + terms["1/3;2/3"] * const("1/3", "2/3") ** 3
        + terms["1/3;1/3"] * const("1/3", "1/3") ** 3
    )
    pairs.append((const("0", "0") ** 3, reduced))
    zero = np.zeros(1, dtype=complex)
    return _report(pairs, (zero,) * 3, tau)


def jacobi_quartic_check(
    tau: PeriodMatrix, x: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> VerificationReport:
    """Quartic identity t00^4(x) + t11^4(x) = t01^4(x) + t10^4(x) and its
    x = 0 constants form t00^4 = t01^4 + t10^4."""
    half = Fraction(1, 2)

    def t(top, bottom, arg):
        return theta(Characteristic((top,), (bottom,)), arg, tau, settings).value

    pairs = []
    for arg in (x, 0.0):
        lhs = t(0, 0, arg) ** 4 + t(half, half, arg) ** 4
        rhs = t(0, half, arg) ** 4 + t(half, 0, arg) ** 4
        pairs.append((lhs, rhs))
    return _report(pairs, (x,), tau)


def smith_relation_check(
    z: Sequence, tau: PeriodMatrix, settings: EvalSettings = DEFAULT_SETTINGS
) -> VerificationReport:
    """Four-term signed relation 2(00) = (00)'+(01)'+(10)'-(11)' under the
    sum-preserving involution, via the general n=4 machinery."""
    lhs = lhs_value(_SMITH, z, tau, settings)
    rhs = rhs_value(_SMITH, z, tau, settings)
    return _compare(lhs, rhs, tuple(z), tau)


def constant_symmetries_check(
    tau: PeriodMatrix,
    alpha: Fraction,
    beta: Fraction,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> VerificationReport:
    """Reflection symmetries of genus-1 theta constants:

        [1-a; 0] = [a; 0],   [0; 1-b] = [0; b],
        [1-a; b] = exp(-2 pi i a) [a; 1-b].
    """
    a, b = Fraction(alpha), Fraction(beta)

    def const(top, bottom):
        return theta_constant(Characteristic((top,), (bottom,)), tau, settings).value

    phase = complex(np.exp(-2j * math.pi * float(a)))
    pairs = [
        (const(1 - a, 0), const(a, 0)),
        (const(0, 1 - b), const(0, b)),
        (const(1 - a, b), phase * const(a, 1 - b)),
    ]
    zero = np.zeros(1, dtype=complex)
    return _report(pairs, (zero,), tau)


def collapse_args_equal_check(
    tau: PeriodMatrix, x: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> VerificationReport:
    """Cross-path consistency: the n=3 relation right side evaluated at
    z = (x, x, x) must match the directly computed cube sum.

    The two sides come from independent evaluation paths: rhs_value
    reads every shift from one batched theta_shift_table sum per
    argument, the cube sum makes one theta() call per shift of the
    build_relation term list."""
    z = (x, x, x)
    engine_rhs = rhs_value(_TERNARY, z, tau, settings)
    direct = 0j
    for term in build_relation(_TERNARY):
        direct += term.coefficient * theta(term.shift, x, tau, settings).value ** 3
    return _compare(engine_rhs, direct, z, tau)


def _draw_x(rng: np.random.Generator, sampler: TrialSampler) -> complex:
    (x,) = sampler.draw_args(rng, 1, 1)
    return complex(x[0])


def _draw_twelfth(rng: np.random.Generator) -> Fraction:
    return Fraction(int(rng.integers(1, 12)), 12)


@dataclass(frozen=True)
class IdentityCase:
    """One named suite check.

    n seeds the case's rng.  run(rng, sampler, tau, settings) draws any
    further arguments from rng, after tau, and returns the report.
    """

    name: str
    n: int
    run: Callable[
        [np.random.Generator, TrialSampler, PeriodMatrix, EvalSettings],
        VerificationReport,
    ]


DEFAULT_CASES = (
    IdentityCase("collapse_args_equal", 3, lambda rng, sampler, tau, settings:
                 collapse_args_equal_check(tau, _draw_x(rng, sampler), settings)),
    IdentityCase("constant_symmetries", 1, lambda rng, sampler, tau, settings:
                 constant_symmetries_check(
                     tau, _draw_twelfth(rng), _draw_twelfth(rng), settings)),
    IdentityCase("constants_zero", 3, lambda rng, sampler, tau, settings:
                 ternary_cube_check(tau, 0j, settings)),
    IdentityCase("jacobi_quadruple", 4, lambda rng, sampler, tau, settings:
                 verify_jacobi_a(sampler.draw_args(rng, 4, 1), tau, settings)),
    IdentityCase("jacobi_quartic", 4, lambda rng, sampler, tau, settings:
                 jacobi_quartic_check(tau, _draw_x(rng, sampler), settings)),
    IdentityCase("smith_relation", 4, lambda rng, sampler, tau, settings:
                 smith_relation_check(sampler.draw_args(rng, 4, 1), tau, settings)),
    IdentityCase("ternary_constants", 3, lambda rng, sampler, tau, settings:
                 ternary_constants_check(tau, settings)),
    IdentityCase("ternary_cube", 3, lambda rng, sampler, tau, settings:
                 ternary_cube_check(tau, _draw_x(rng, sampler), settings)),
)


def run_suite(
    tau_samples: int = 10,
    seed: int = DEFAULT_SEED,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> dict:
    """Run every case over sampled trial points; failures are data.

    Returns {"cases": [{"name", "samples", "max_rel_error", "verdict"}...],
    "verdict"} with cases ordered by name.
    """
    sampler = TrialSampler(seed)
    out = []
    for case in sorted(DEFAULT_CASES, key=lambda c: c.name):
        rng = np.random.default_rng([case.n, 1, seed])
        max_rel = 0.0
        eval_failed = False
        for _ in range(tau_samples):
            tau = sampler.draw_tau(rng, 1)
            try:
                rep = case.run(rng, sampler, tau, settings)
            except TruncationError:
                eval_failed = True
                continue
            if rep.status == "ok":
                max_rel = max(max_rel, rep.rel_error)
        if eval_failed:
            verdict = "eval-failed"
        else:
            verdict = "pass" if max_rel <= SUITE_TOLERANCE else "fail"
        out.append(
            {
                "name": case.name,
                "samples": tau_samples,
                "max_rel_error": max_rel,
                "verdict": verdict,
            }
        )
    overall = "pass" if all(c["verdict"] == "pass" for c in out) else "fail"
    return {"cases": out, "verdict": overall}
