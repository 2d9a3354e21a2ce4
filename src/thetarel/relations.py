"""Construction and numerical verification of general theta relations.

For an n-tuple of characteristics mu_j and arguments z_j, with
lambda = cycle_number(n), w = z S_n and nu = mu S_n, the relation reads

    lambda^g * prod_j theta_{mu_j}(z_j, tau)
        = sum over shifts a = (a'; a'') of  e[x(a)] *
          prod_j theta_{nu_j + a}(w_j, tau),

the shifts running over all lambda^(2g) representatives with
coordinates in {0, 1/lambda, ..., (lambda-1)/lambda}.  The exponent is

    x(a) = -(sum_j mu'_j + kappa * a') . a''   (mod 1),

with the cycle-corrected coefficient multiplier

    kappa = lambda                       for even n,
    kappa = lambda * (lambda + 1) / 2    for odd n.

The odd-n multiplier carries the inverse of 2 modulo lambda: the shift
classes produced by S_n on integer tuples are even multiples of
1/lambda, so matching a reduced shift a'' to its generating class K
solves 2K = lambda a'' (mod lambda), K = (lambda+1)/2 * lambda a''.  The
cross-phase e[K . a'] that the character decomposition produces is then
e[lambda (lambda+1)/2 * a'.a''] rather than e[lambda a'.a''].  Dropping
the correction conjugates the nontrivial root-of-unity coefficients and
the relation fails numerically; the widely printed form
e(-lambda a'.a'') is therefore used here only for even n, where the two
agree.  (For even n the classes are exactly (1/lambda)Z^g and no
inversion is needed.)

NAIVE mode keeps kappa = n, the uncorrected multiplier, as a
falsification target: for even n it collapses every coefficient of the
all-zero relation to +1 and the identity visibly fails at generic
arguments.

All coefficient arithmetic is exact rational; only the theta
evaluations are floating point.

Numerically the right side is not evaluated term by term.  Writing
a = (c/lambda; b/lambda), every theta_{nu_j + a}(w_j) is a sub-sum of
one lattice sum over v = nu_j' + k/lambda, k in Z^g, in the box
|v|_inf <= R that theta() would use for any of them (the radius depends
on w_j and tau only): the top shift c selects the coset k = c
(mod lambda), the bottom shift b multiplies each term by the
unit-modulus phase e[nu_j'.b/lambda] e[k.b/lambda^2].  theta_shift_table
therefore computes the terms once per j and returns all lambda^(2g)
values, and rhs_value multiplies the n tables by the coefficients
e[x(a)].  Each table entry sums exactly the points that
theta(nu_j + a, w_j) sums, so the omitted tail of an entry is that
coset's exterior times unit-modulus phases, and the w_j tail envelope of
theta() bounds it as before.

RelationSpec derives lambda, nu and the two exact parts of x(a), the
integers kappa c.b mod lambda^2 and the Fractions sum_j mu'_j.b/lambda
mod 1, once per instance.  build_relation's exact Fraction term list
(emit and the reports) and rhs_value's float coefficient table, which
adds the two parts in floating point only, are both read from them.

The exact term list needs no Fraction sum per term.  Each half of
nu_j + a depends on one digit vector only (the top half on c, the
bottom half on b), so RelationSpec also holds a digit table: for each
d in {0..lambda-1}^g, lexicographic, the rows (d/lambda,
nu_1 + d/lambda, ..., nu_n + d/lambda) of top and of bottom halves,
built with (n+1) g lambda Fraction additions per axis.  Term (c, b)
pairs top row c with bottom row b, and with drift[b] = p/q, q common to
all b, its exponent is the single integer numerator
-(cross[c, b] q + p lambda^2) mod lambda^2 q over lambda^2 q; terms with
equal numerators share one Fraction.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .charalg import Characteristic, _char_text, _memo, cycle_number
from .theta import (
    DEFAULT_SETTINGS,
    EvalSettings,
    PeriodMatrix,
    TruncationError,
    theta,
    theta_shift_table,
)
from .transforms import apply_to_args, apply_to_chars, jacobi_a_matrix, smith_matrix

__all__ = [
    "CoefficientMode",
    "RelationSpec",
    "RelationTerm",
    "VerificationReport",
    "TrialSampler",
    "coefficient_kappa",
    "build_relation",
    "lhs_value",
    "rhs_value",
    "verify",
    "verify_jacobi_a",
    "overall_verdict",
    "relation_report",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 0xA11CE

# Both sides below this are reported "degenerate-pass" and excluded
# from the max relative error.
DEGENERATE_FLOOR = 1e-12
# Relative-error denominator floor.
REL_FLOOR = 1e-300
# Naive-mode genericity: resample while |lhs-rhs| < GENERIC_GAP * scale,
# at most MAX_RESAMPLES times, then flag the trial.
GENERIC_GAP = 1e-6
MAX_RESAMPLES = 20


class CoefficientMode(enum.Enum):
    MODIFIED = "modified"
    NAIVE = "naive"


def coefficient_kappa(n: int, mode: CoefficientMode) -> int:
    """Multiplier of a' in the coefficient exponent (see module docstring)."""
    lam = cycle_number(n)
    if mode is CoefficientMode.NAIVE:
        return n
    return lam if n % 2 == 0 else lam * (lam + 1) // 2


@dataclass(frozen=True)
class RelationSpec:
    """One instance of the relation: (n, genus, mu-tuple, mode), with the
    values derived from it cached per instance (see the module docstring)."""

    n: int
    genus: int
    mu: tuple[Characteristic, ...]
    mode: CoefficientMode

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if len(self.mu) != self.n:
            raise ValueError(f"expected {self.n} characteristics, got {len(self.mu)}")
        for m in self.mu:
            if m.genus != self.genus:
                raise ValueError("all characteristics must have the spec genus")

    @classmethod
    def create(
        cls,
        n: int,
        genus: int,
        mu: Optional[Sequence[Characteristic]] = None,
        mode: CoefficientMode = CoefficientMode.MODIFIED,
    ) -> "RelationSpec":
        if mu is None:
            mu = tuple(Characteristic.zero(genus) for _ in range(n))
        return cls(n, genus, tuple(mu), mode)

    @property
    def lam(self) -> int:
        return cycle_number(self.n)

    @functools.cached_property
    def _nu(self) -> tuple[Characteristic, ...]:
        """nu = mu S_n."""
        return apply_to_chars(smith_matrix(self.n), self.mu)

    @functools.cached_property
    def _digit_table(self) -> tuple[list[tuple], list[tuple]]:
        """(tops, bottoms): for each digit vector d in {0..lambda-1}^g,
        lexicographic, the row (d/lambda, nu_1 + d/lambda, ...,
        nu_n + d/lambda) of top halves resp. bottom halves, as
        all-Fraction g-tuples.  Term (c, b) is (tops[c]; bottoms[b])."""
        lam, g = self.lam, self.genus
        steps = [Fraction(k, lam) for k in range(lam)]
        zero = (Fraction(0),) * g

        def rows(halves):
            sums = [[[h[i] + s for s in steps] for i in range(g)] for h in halves]
            return [
                tuple(tuple(per[i][k] for i, k in enumerate(d)) for per in sums)
                for d in itertools.product(range(lam), repeat=g)
            ]

        return (
            rows([zero] + [v.top for v in self._nu]),
            rows([zero] + [v.bottom for v in self._nu]),
        )

    @functools.cached_property
    def _exponent_parts(self) -> tuple[np.ndarray, tuple[Fraction, ...]]:
        """x(a) = -(cross[c, b]/lambda^2 + drift[b]) at a = (c/lambda; b/lambda)
        with c and b lexicographic: cross = kappa c.b mod lambda^2 as
        integers, drift = sum_j mu'_j.b/lambda mod 1 as Fractions."""
        lam, g = self.lam, self.genus
        digits = np.indices((lam,) * g).reshape(g, -1).T
        cross = (coefficient_kappa(self.n, self.mode) * (digits @ digits.T)) % (lam * lam)
        cross.flags.writeable = False
        sum_top = [sum(m.top[a] for m in self.mu) for a in range(g)]
        drift = tuple(sum(s * int(d) for s, d in zip(sum_top, b)) / lam % 1 for b in digits)
        return cross, drift

    @functools.cached_property
    def _coefficients(self) -> np.ndarray:
        """Read-only e[x(a)], flat in enumerate_shifts order."""
        cross, drift = self._exponent_parts
        x = cross / (self.lam * self.lam) + np.array([float(d) for d in drift])
        table = np.exp(-2j * math.pi * x).reshape(-1)
        table.flags.writeable = False
        return table


@dataclass(frozen=True)
class RelationTerm:
    """One summand of the right-hand side.

    exponent is exact, reduced to [0, 1); the complex coefficient is
    e[exponent].  nu_shifted keeps the characteristics unreduced, as the
    evaluator accepts arbitrary rationals directly.
    """

    shift: Characteristic
    exponent: Fraction
    nu_shifted: tuple[Characteristic, ...]

    @property
    def coefficient(self) -> complex:
        return complex(np.exp(2j * math.pi * float(self.exponent)))


def build_relation(spec: RelationSpec) -> list[RelationTerm]:
    """Term list of the relation, in enumerate_shifts order.

    Exactly lam^(2g) terms; exponents are exact rationals whose
    denominator divides lambda^2 whenever the mu_j are in standard form
    (coordinates multiples of 1/lambda).
    """
    tops, bottoms = spec._digit_table
    cross, drift = spec._exponent_parts
    sq = spec.lam * spec.lam
    # drift[b] = p/q over the common denominator q:
    # x(a) = (-(cross q + p lambda^2) mod lambda^2 q) / lambda^2 q
    q = math.lcm(*(d.denominator for d in drift))
    drift_sq = [d.numerator * (q // d.denominator) * sq for d in drift]
    exponents: dict[int, Fraction] = {}
    make = Characteristic._unchecked
    terms = []
    for top, row in zip(tops, cross.tolist()):
        for bottom, x, p_sq in zip(bottoms, row, drift_sq):
            shift, *nu_shifted = map(make, top, bottom)
            k = -(x * q + p_sq) % (sq * q)
            exponent = exponents.get(k)
            if exponent is None:
                exponent = exponents[k] = Fraction(k, sq * q)
            terms.append(RelationTerm(shift, exponent, tuple(nu_shifted)))
    return terms


def _as_arg_tuple(spec_n: int, genus: int, z) -> tuple[np.ndarray, ...]:
    vecs = [np.atleast_1d(np.asarray(v, dtype=complex)) for v in z]
    if len(vecs) != spec_n or any(v.shape != (genus,) for v in vecs):
        raise ValueError(f"need {spec_n} complex vectors of length {genus}")
    return tuple(vecs)


def lhs_value(
    spec: RelationSpec,
    z,
    tau: PeriodMatrix,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> complex:
    """lambda^g times the product of the n left-side theta values."""
    zs = _as_arg_tuple(spec.n, spec.genus, z)
    value = complex(spec.lam**spec.genus)
    for m, zj in zip(spec.mu, zs):
        value *= theta(m, zj, tau, settings).value
    return value


def rhs_value(
    spec: RelationSpec,
    z,
    tau: PeriodMatrix,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> complex:
    """Coefficient-weighted sum of shifted products at w = z S_n.

    One theta_shift_table per j gives theta_{nu_j + a}(w_j) for every
    shift a at once; no term list is built.
    """
    zs = _as_arg_tuple(spec.n, spec.genus, z)
    ws = apply_to_args(smith_matrix(spec.n), zs)
    products = spec._coefficients
    for chi, wj in zip(spec._nu, ws):
        products = products * theta_shift_table(chi, wj, tau, spec.lam, settings)
    return complex(products.sum())


@dataclass(frozen=True)
class VerificationReport:
    """Numerical comparison of both sides at one trial point."""

    lhs: complex
    rhs: complex
    abs_error: float
    rel_error: float
    z: tuple
    tau: PeriodMatrix
    status: str  # ok | degenerate-pass | eval-failed | flagged
    seed_index: int = 0


def _compare(
    lhs: complex, rhs: complex, z, tau: PeriodMatrix, seed_index: int = 0
) -> VerificationReport:
    """The one comparison of two sides: abs/rel error, status "ok", or
    "degenerate-pass" when both sides are below DEGENERATE_FLOOR."""
    abs_error = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    rel_error = abs_error / max(scale, REL_FLOOR)
    status = "degenerate-pass" if scale < DEGENERATE_FLOOR else "ok"
    return VerificationReport(lhs, rhs, abs_error, rel_error, z, tau, status, seed_index)


@dataclass
class TrialSampler:
    """Seeded sampler of trial points (z-tuple, tau).

    Genus 1: tau = u + i v with u ~ U[-0.5, 0.5], v ~ U[0.8, 1.6].
    Genus >= 2: Im tau = D + 0.2 W with D diagonal U[0.9, 1.4] and W
    symmetric with U[-1, 1] entries, redrawn until positive definite;
    Re tau symmetric with U[-0.3, 0.3] entries.  Arguments have real and
    imaginary parts U[-0.4, 0.4].  These windows keep the smallest
    eigenvalue of Im tau comfortably above 0.5 so truncation radii stay
    small.
    """

    seed: int = DEFAULT_SEED

    def make_rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def draw_tau(self, rng: np.random.Generator, genus: int) -> PeriodMatrix:
        if genus == 1:
            u = rng.uniform(-0.5, 0.5)
            v = rng.uniform(0.8, 1.6)
            return PeriodMatrix(np.array([[u + 1j * v]]))
        while True:
            d = rng.uniform(0.9, 1.4, genus)
            w = np.zeros((genus, genus))
            for i in range(genus):
                for j in range(i, genus):
                    w[i, j] = w[j, i] = rng.uniform(-1.0, 1.0)
            im = np.diag(d) + 0.2 * w
            try:
                np.linalg.cholesky(im)
            except np.linalg.LinAlgError:
                continue
            re = np.zeros((genus, genus))
            for i in range(genus):
                for j in range(i, genus):
                    re[i, j] = re[j, i] = rng.uniform(-0.3, 0.3)
            return PeriodMatrix(re + 1j * im)

    def draw_args(
        self, rng: np.random.Generator, n: int, genus: int
    ) -> tuple[np.ndarray, ...]:
        flat = rng.uniform(-0.4, 0.4, (n, genus, 2))
        return tuple(flat[j, :, 0] + 1j * flat[j, :, 1] for j in range(n))

    def draw(self, rng: np.random.Generator, n: int, genus: int):
        return self.draw_args(rng, n, genus), self.draw_tau(rng, genus)


def verify(
    spec: RelationSpec,
    trials: int,
    *,
    sampler: Optional[TrialSampler] = None,
    settings: EvalSettings = DEFAULT_SETTINGS,
    tau: Optional[PeriodMatrix] = None,
) -> list[VerificationReport]:
    """Sample trials and compare both sides; reports are in trial order.

    In NAIVE mode a trial whose two sides agree closer than GENERIC_GAP
    (relative) is resampled up to MAX_RESAMPLES times, so the
    falsification verdict rests on generic points rather than accidental
    coincidences; a trial still agreeing after the cap is reported with
    status "flagged".
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    sampler = sampler or TrialSampler()
    rng = sampler.make_rng()
    naive = spec.mode is CoefficientMode.NAIVE
    reports = []
    for idx in range(trials):
        for _ in range(MAX_RESAMPLES if naive else 1):
            zs = sampler.draw_args(rng, spec.n, spec.genus)
            trial_tau = tau if tau is not None else sampler.draw_tau(rng, spec.genus)
            try:
                lhs = lhs_value(spec, zs, trial_tau, settings)
                rhs = rhs_value(spec, zs, trial_tau, settings)
            except TruncationError:
                nan = complex(math.nan)
                report = VerificationReport(
                    nan, nan, math.nan, math.nan, zs, trial_tau, "eval-failed", idx
                )
                break
            report = _compare(lhs, rhs, zs, trial_tau, idx)
            if not naive or report.status != "ok" or report.rel_error >= GENERIC_GAP:
                break
            report = replace(report, status="flagged")
        reports.append(report)
    return reports


def overall_verdict(reports: Sequence[VerificationReport], tol: float) -> str:
    """"pass" iff every trial evaluated and the max rel_error over
    non-degenerate trials is within tol."""
    if any(r.status == "eval-failed" for r in reports):
        return "fail"
    errors = [r.rel_error for r in reports if r.status == "ok"]
    if not errors:
        return "pass"
    return "pass" if max(errors) <= tol else "fail"


def verify_jacobi_a(
    z,
    tau: PeriodMatrix,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> VerificationReport:
    """The classical genus-1 quadruple relation under the Jacobi matrix:

        2 prod_j theta_{(0;0)}(z_j) = sum over (alpha, beta) in {0,1}^2
            of prod_j theta_{(alpha/2; beta/2)}(w_j),   w = z A,

    all four summands entering with coefficient +1.
    """
    if tau.genus != 1:
        raise ValueError("the quadruple relation is a genus-1 statement")
    zs = _as_arg_tuple(4, 1, z)
    ws = apply_to_args(jacobi_a_matrix(), zs)
    zero = Characteristic.zero(1)
    lhs = 2.0 * math.prod(theta(zero, zj, tau, settings).value for zj in zs)
    rhs = 0j
    for alpha in (0, 1):
        for beta in (0, 1):
            chi = Characteristic((Fraction(alpha, 2),), (Fraction(beta, 2),))
            rhs += math.prod(theta(chi, wj, tau, settings).value for wj in ws)
    return _compare(lhs, rhs, zs, tau)


def _terms_json_obj(spec: RelationSpec, terms: Sequence[RelationTerm]) -> dict:
    """The "spec"/"terms" object shared by relation_report and emit.

    Each shared half and exponent is formatted once (charalg._memo)."""
    char, exponent = _char_text(), _memo(str)
    return {
        "spec": {
            "n": spec.n,
            "g": spec.genus,
            "lambda": spec.lam,
            "mode": spec.mode.value,
            "mu": [str(m) for m in spec.mu],
        },
        "terms": [
            {
                "shift": char(t.shift),
                "exponent": exponent(t.exponent),
                "nu_shifted": [char(c) for c in t.nu_shifted],
            }
            for t in terms
        ],
    }


def relation_report(
    spec: RelationSpec,
    terms: Sequence[RelationTerm],
    reports: Sequence[VerificationReport],
    tol: float,
) -> dict:
    """Assemble the stable JSON-ready report object."""
    return {
        **_terms_json_obj(spec, terms),
        "trials": [
            {
                "seed_index": r.seed_index,
                "tau": [
                    [[c.real, c.imag] for c in row] for row in r.tau.entries
                ],
                "z": [[[c.real, c.imag] for c in vec] for vec in r.z],
                "lhs": [r.lhs.real, r.lhs.imag],
                "rhs": [r.rhs.real, r.rhs.imag],
                "abs_error": r.abs_error,
                "rel_error": r.rel_error,
                "status": r.status,
            }
            for r in reports
        ],
        "verdict": overall_verdict(reports, tol),
    }
