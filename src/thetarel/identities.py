"""Named specializations of the theta relations, packaged as checks.

Each check compares one classical identity numerically and returns a
VerificationReport; where several equalities make up one named identity
(pairings, constants forms) the report carries the worst of them.  The
curated cases are re-derived from build_relation wherever the general
machinery covers them, so the suite exercises two independent code
paths; hard-coded coefficient multisets appear only in the tests as
cross-checks.  run_suite walks the named specializations of
DEFAULT_CASES.

A check of a whole relation compares lhs_value with rhs_value
(relations._compare) on a spec held once, _TERNARY or _QUADRUPLE.  Every
other check evaluates its theta values in one call of _values, as the
rows of one stacked evaluation (theta._block_rows, theta._theta_values),
each value bit for bit that of theta(); ternary_constants_check takes each
of the nine theta constants once.  The rows are built in the order in
which the values are used, so the first failed radius search raises
the TruncationError that one theta() call per value would, which
run_suite reports as "eval-failed".  Rational inputs must be exact
(charalg._rational).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .charalg import Characteristic, _rational
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
    _block_rows,
    _side,
    _theta_values,
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
_QUADRUPLE = RelationSpec.create(4, 1)


def _values(tau: PeriodMatrix, settings: EvalSettings, evaluations) -> list[complex]:
    """theta_mu(z, tau).value of each (mu, z) of evaluations, in order, bit
    for bit, from one block of rows and one stacked evaluation."""
    mus, zs = zip(*evaluations)
    z = np.array([np.atleast_1d(z) for z in zs], dtype=complex)
    return _theta_values(_block_rows(z, tau, *_side(mus, 1, settings)))


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
    return _compare(lhs_value(_TERNARY, z, tau, settings), rhs_value(_TERNARY, z, tau, settings),
                    z, tau)


def ternary_constants_check(
    tau: PeriodMatrix, settings: EvalSettings = DEFAULT_SETTINGS
) -> VerificationReport:
    """Reduced four-term ternary constants identity plus the cube-pairing
    equalities used to reduce the nine-term constants relation.

    The root-of-unity weights of the reduced form are taken from the
    generated term list (not hard-coded), keeping this path consistent
    with the relation engine.
    """
    terms = list(build_relation(_TERNARY))
    origin = np.zeros(tau.genus, dtype=complex)
    values = _values(tau, settings, [(t.shift, origin) for t in terms])
    coefficient = {str(t.shift): t.coefficient for t in terms}
    cube = {str(t.shift): v**3 for t, v in zip(terms, values)}
    # Pairing equalities between cubes.
    pairs = [
        (cube[a], cube[b])
        for a, b in [("1/3;0", "2/3;0"), ("0;1/3", "0;2/3"),
                     ("1/3;1/3", "2/3;2/3"), ("2/3;1/3", "1/3;2/3")]
    ]
    # Reduced identity (the nine-term relation after pairing).
    reduced = cube["0;1/3"] + cube["1/3;0"] + coefficient["1/3;2/3"] * cube["1/3;2/3"]
    reduced += coefficient["1/3;1/3"] * cube["1/3;1/3"]
    pairs.append((cube["0;0"], reduced))
    return _report(pairs, (np.zeros(1, dtype=complex),) * 3, tau)


def jacobi_quartic_check(
    tau: PeriodMatrix, x: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> VerificationReport:
    """Quartic identity t00^4(x) + t11^4(x) = t01^4(x) + t10^4(x) and its
    x = 0 constants form t00^4 = t01^4 + t10^4."""
    h = Fraction(1, 2)
    values = _values(tau, settings, [(Characteristic((top,), (bottom,)), arg)
                                     for arg in (x, 0.0) for top in (0, h) for bottom in (0, h)])
    pairs = [(t00**4 + t11**4, t01**4 + t10**4)
             for t00, t01, t10, t11 in (values[:4], values[4:])]
    return _report(pairs, (x,), tau)


def smith_relation_check(
    z: Sequence, tau: PeriodMatrix, settings: EvalSettings = DEFAULT_SETTINGS
) -> VerificationReport:
    """Four-term signed relation 2(00) = (00)'+(01)'+(10)'-(11)' under the
    sum-preserving involution, via the general n=4 machinery."""
    return _compare(lhs_value(_QUADRUPLE, z, tau, settings),
                    rhs_value(_QUADRUPLE, z, tau, settings), tuple(z), tau)


def constant_symmetries_check(
    tau: PeriodMatrix,
    alpha: Fraction,
    beta: Fraction,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> VerificationReport:
    """Reflection symmetries of genus-1 theta constants:

        [1-a; 0] = [a; 0],   [0; 1-b] = [0; b],
        [1-a; b] = exp(-2 pi i a) [a; 1-b].

    alpha and beta must be exact (an int, Fraction or rational string);
    a float raises TypeError.
    """
    a, b = _rational(alpha), _rational(beta)
    phase = complex(np.exp(-2j * math.pi * float(a)))
    v = _values(tau, settings, [(Characteristic((top,), (bottom,)), 0j) for top, bottom in
                                ((1 - a, 0), (a, 0), (0, 1 - b), (0, b), (1 - a, b), (a, 1 - b))])
    pairs = [(v[0], v[1]), (v[2], v[3]), (v[4], phase * v[5])]
    return _report(pairs, (np.zeros(1, dtype=complex),), tau)


def collapse_args_equal_check(
    tau: PeriodMatrix, x: complex, settings: EvalSettings = DEFAULT_SETTINGS
) -> VerificationReport:
    """Cross-path consistency: the n=3 relation right side evaluated at
    z = (x, x, x) must match the directly computed cube sum.

    The two sides come from independent evaluation paths: rhs_value
    reads every shift from one batched theta_shift_table sum per
    argument, the cube sum takes one theta value per shift of the
    build_relation term list, each from its own lattice sum."""
    z = (x, x, x)
    engine_rhs = rhs_value(_TERNARY, z, tau, settings)
    terms = list(build_relation(_TERNARY))
    direct = 0j
    for term, value in zip(terms, _values(tau, settings, [(t.shift, x) for t in terms])):
        direct += term.coefficient * value**3
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
    "verdict"} with cases ordered by name.  Raises ValueError when
    tau_samples < 1.
    """
    if tau_samples < 1:
        raise ValueError("need at least one tau sample")
    sampler = TrialSampler(seed)
    out = []
    for case in sorted(DEFAULT_CASES, key=lambda c: c.name):
        rng = np.random.default_rng([case.n, 1, seed])
        max_rel, verdict = 0.0, None
        for _ in range(tau_samples):
            tau = sampler.draw_tau(rng, 1)
            try:
                rep = case.run(rng, sampler, tau, settings)
            except TruncationError:
                verdict = "eval-failed"
                continue
            if rep.status == "ok":
                max_rel = max(max_rel, rep.rel_error)
        verdict = verdict or ("pass" if max_rel <= SUITE_TOLERANCE else "fail")
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
