"""Named specializations of the theta relations, packaged as checks.

Each check compares one classical identity numerically and returns a
VerificationReport; where several equalities make up one named identity
(pairings, constants forms) the report carries the worst of them.  The
curated cases are re-derived from build_relation wherever the general
machinery covers them, so the suite exercises two independent code
paths; hard-coded coefficient multisets appear only in the tests as
cross-checks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

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
    DEGENERATE_FLOOR,
    REL_FLOOR,
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
    "Recipe",
    "IdentityCase",
    "DEFAULT_CASES",
    "ternary_cube_check",
    "ternary_constants_check",
    "jacobi_quartic_check",
    "smith_relation_check",
    "jacobi_quadruple_check",
    "constant_symmetries_check",
    "collapse_args_equal_check",
    "constants_zero_check",
    "run_suite",
]


class Recipe(enum.Enum):
    COLLAPSE_ARGS_EQUAL = "collapse_args_equal"
    CONSTANTS_ZERO = "constants_zero"
    JACOBI_QUARTIC = "jacobi_quartic"
    SMITH_RELATION = "smith_relation"
    JACOBI_A_RELATION = "jacobi_a_relation"
    TERNARY_CUBE = "ternary_cube"
    TERNARY_CONSTANTS = "ternary_constants"
    CONSTANT_SYMMETRIES = "constant_symmetries"


@dataclass(frozen=True)
class IdentityCase:
    name: str
    n: int
    g: int
    recipe: Recipe
    tolerance: float


DEFAULT_CASES = (
    IdentityCase("collapse_args_equal", 3, 1, Recipe.COLLAPSE_ARGS_EQUAL, 1e-10),
    IdentityCase("constant_symmetries", 1, 1, Recipe.CONSTANT_SYMMETRIES, 1e-10),
    IdentityCase("constants_zero", 3, 1, Recipe.CONSTANTS_ZERO, 1e-10),
    IdentityCase("jacobi_quadruple", 4, 1, Recipe.JACOBI_A_RELATION, 1e-10),
    IdentityCase("jacobi_quartic", 4, 1, Recipe.JACOBI_QUARTIC, 1e-10),
    IdentityCase("smith_relation", 4, 1, Recipe.SMITH_RELATION, 1e-10),
    IdentityCase("ternary_constants", 3, 1, Recipe.TERNARY_CONSTANTS, 1e-10),
    IdentityCase("ternary_cube", 3, 1, Recipe.TERNARY_CUBE, 1e-10),
)


def _report(pairs, z, tau, settings) -> VerificationReport:
    """Report for a multi-part identity: the evaluable comparison with the
    worst relative error wins; degenerate pairs only surface when every
    pair is degenerate."""
    worst_ok = None
    first = None
    for lhs, rhs in pairs:
        abs_error = abs(lhs - rhs)
        rel_error = abs_error / max(abs(lhs), abs(rhs), REL_FLOOR)
        degenerate = max(abs(lhs), abs(rhs)) < DEGENERATE_FLOOR
        status = "degenerate-pass" if degenerate else "ok"
        rep = VerificationReport(
            lhs, rhs, abs_error, rel_error, z, tau, settings, status
        )
        first = first or rep
        if status == "ok" and (worst_ok is None or rep.rel_error > worst_ok.rel_error):
            worst_ok = rep
    return worst_ok or first


def ternary_cube_check(
    tau: PeriodMatrix, x: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> VerificationReport:
    """Nine-cube identity: 3 theta_(0;0)(x)^3 equals the coefficient-weighted
    sum of the nine shifted cubes, obtained from the n=3 relation at
    z = (x, x, x) (a fixed point of the transform)."""
    spec = RelationSpec.create(3, 1)
    z = (x, x, x)
    lhs = lhs_value(spec, z, tau, settings)
    rhs = rhs_value(spec, z, tau, settings)
    return _report([(lhs, rhs)], z, tau, settings)


def ternary_constants_check(
    tau: PeriodMatrix, settings: EvalSettings = DEFAULT_SETTINGS
) -> VerificationReport:
    """Reduced four-term ternary constants identity plus the cube-pairing
    equalities used to reduce the nine-term constants relation.

    The root-of-unity weights of the reduced form are taken from the
    generated term list (not hard-coded), keeping this path consistent
    with the relation engine.
    """
    spec = RelationSpec.create(3, 1)
    terms = {str(t.shift): t.coefficient for t in build_relation(spec)}

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
    return _report(pairs, (zero,) * 3, tau, settings)


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
    return _report(pairs, (x,), tau, settings)


def smith_relation_check(
    z: Sequence, tau: PeriodMatrix, settings: EvalSettings = DEFAULT_SETTINGS
) -> VerificationReport:
    """Four-term signed relation 2(00) = (00)'+(01)'+(10)'-(11)' under the
    sum-preserving involution, via the general n=4 machinery."""
    spec = RelationSpec.create(4, 1)
    lhs = lhs_value(spec, z, tau, settings)
    rhs = rhs_value(spec, z, tau, settings)
    return _report([(lhs, rhs)], tuple(z), tau, settings)


def jacobi_quadruple_check(
    z: Sequence, tau: PeriodMatrix, settings: EvalSettings = DEFAULT_SETTINGS
) -> VerificationReport:
    """All-plus quadruple relation under the Jacobi matrix."""
    return verify_jacobi_a(z, tau, settings)


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
    return _report(pairs, (zero,), tau, settings)


def collapse_args_equal_check(
    tau: PeriodMatrix, x: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> VerificationReport:
    """Cross-path consistency: the n=3 relation right side evaluated at
    z = (x, x, x) must match the directly computed cube sum.

    The two sides come from independent evaluation paths: rhs_value
    reads every shift from one batched theta_shift_table sum per
    argument, the cube sum makes one theta() call per shift of the
    build_relation term list."""
    spec = RelationSpec.create(3, 1)
    z = (x, x, x)
    engine_rhs = rhs_value(spec, z, tau, settings)
    direct = 0j
    for term in build_relation(spec):
        direct += term.coefficient * theta(term.shift, x, tau, settings).value ** 3
    return _report([(engine_rhs, direct)], z, tau, settings)


def constants_zero_check(
    tau: PeriodMatrix, settings: EvalSettings = DEFAULT_SETTINGS
) -> VerificationReport:
    """The nine-term relation specialised to all arguments zero."""
    spec = RelationSpec.create(3, 1)
    zero = np.zeros(1, dtype=complex)
    z = (zero, zero, zero)
    lhs = lhs_value(spec, z, tau, settings)
    rhs = rhs_value(spec, z, tau, settings)
    return _report([(lhs, rhs)], z, tau, settings)


def _run_case(
    case: IdentityCase,
    rng: np.random.Generator,
    sampler: TrialSampler,
    settings: EvalSettings,
) -> VerificationReport:
    tau = sampler.draw_tau(rng, 1)
    if case.recipe is Recipe.TERNARY_CUBE:
        (x,) = sampler.draw_args(rng, 1, 1)
        return ternary_cube_check(tau, complex(x[0]), settings)
    if case.recipe is Recipe.TERNARY_CONSTANTS:
        return ternary_constants_check(tau, settings)
    if case.recipe is Recipe.JACOBI_QUARTIC:
        (x,) = sampler.draw_args(rng, 1, 1)
        return jacobi_quartic_check(tau, complex(x[0]), settings)
    if case.recipe is Recipe.SMITH_RELATION:
        return smith_relation_check(sampler.draw_args(rng, 4, 1), tau, settings)
    if case.recipe is Recipe.JACOBI_A_RELATION:
        return jacobi_quadruple_check(sampler.draw_args(rng, 4, 1), tau, settings)
    if case.recipe is Recipe.CONSTANT_SYMMETRIES:
        alpha = Fraction(int(rng.integers(1, 12)), 12)
        beta = Fraction(int(rng.integers(1, 12)), 12)
        return constant_symmetries_check(tau, alpha, beta, settings)
    if case.recipe is Recipe.COLLAPSE_ARGS_EQUAL:
        (x,) = sampler.draw_args(rng, 1, 1)
        return collapse_args_equal_check(tau, complex(x[0]), settings)
    if case.recipe is Recipe.CONSTANTS_ZERO:
        return constants_zero_check(tau, settings)
    raise ValueError(f"unknown recipe {case.recipe}")


def run_suite(
    tau_samples: int = 10,
    seed: int = DEFAULT_SEED,
    settings: EvalSettings = DEFAULT_SETTINGS,
    cases: Optional[Sequence[IdentityCase]] = None,
) -> dict:
    """Run every case over sampled trial points; failures are data.

    Returns {"cases": [{"name", "samples", "max_rel_error", "verdict"}...],
    "verdict"} with cases ordered by name.
    """
    cases = sorted(cases or DEFAULT_CASES, key=lambda c: c.name)
    sampler = TrialSampler(seed)
    out = []
    for case in cases:
        rng = np.random.default_rng([case.n, case.g, seed])
        max_rel = 0.0
        statuses = []
        for _ in range(tau_samples):
            try:
                rep = _run_case(case, rng, sampler, settings)
            except TruncationError:
                statuses.append("eval-failed")
                continue
            statuses.append(rep.status)
            if rep.status == "ok":
                max_rel = max(max_rel, rep.rel_error)
        if any(s == "eval-failed" for s in statuses):
            verdict = "eval-failed"
        else:
            verdict = "pass" if max_rel <= case.tolerance else "fail"
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
