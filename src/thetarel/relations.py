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

The top half of nu_j + a depends on c only and the bottom half on b
only, so RelationSpec._rows derives each half once per digit vector, as
Fractions (_digit_table, for the terms of a Relation) or as texts
(_text_rows for JSON and text, _latex_rows for LaTeX); term (c, b)
pairs top row c with bottom row b.  Every
relation output is written by _write_terms, one block per top row c:
a writer with the texts of c baked in (a % template for the texts of
JSON, LaTeX and text, a dict builder for the object API) is mapped
over the bottom rows and the exponent texts of the block.  The fields
of a JSON row are named only by _json_row, and this module writes no
JSON text: render.dumps alone lays out every row, the command line's
from a template it makes of one _json_row prototype per document.

RelationSpec.create returns one shared instance per value (n, genus,
mu, mode), from a process-wide least-recently-used cache of
_SPEC_CACHE_SIZE specs, as theta._plan keeps lattice-sum plans.  The
command line, render.parse_terms_json and the identity checks build
their specs through create, so nu, the row tables and the exponent and
coefficient tables are derived once per distinct spec per process.
That saves time only when a spec comes back in one process, as in a
long-running caller or a batch of commands; a one-shot command derives
its spec once either way.  Each of them is a tuple or a read-only array, so no caller can change
what the others share, and each is derived by the same operations
whether the spec is new or shared, so every output is byte-identical
cold or warm.  create builds, and so validates, a spec before it looks
it up: bad input raises on every call and is never kept.  A spec over
the caps of _kept is built afresh on every call, which bounds the
cache in bytes (see _SPEC_CACHE_SIZE).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .charalg import (
    Characteristic,
    _fraction_text,
    _latex_bottom,
    _latex_fraction,
    _latex_top,
    cycle_number,
    enumerate_shifts,
)
from .theta import (
    DEFAULT_SETTINGS,
    EvalSettings,
    PeriodMatrix,
    TruncationError,
    _min_eig_lower,
    theta,
    theta_shift_table,
)
from .transforms import apply_to_args, apply_to_chars, jacobi_a_matrix, smith_matrix

__all__ = [
    "CoefficientMode",
    "RelationSpec",
    "RelationTerm",
    "Relation",
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
    """One instance of the relation: (n, genus, mu-tuple, mode).

    create returns one shared instance per value, from a bounded
    process-wide cache (_shared_spec), so the values derived from a spec
    (nu, its row tables and its exponent and coefficient tables, each a
    cached property) are derived once per distinct spec per process; see
    the module docstring.  Every derived table is immutable: tuples and
    read-only arrays."""

    n: int
    genus: int
    mu: tuple[Characteristic, ...]
    mode: CoefficientMode

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.genus < 1:
            raise ValueError(f"need genus >= 1, got {self.genus}")
        if len(self.mu) != self.n:
            raise ValueError(f"expected {self.n} characteristics, got {len(self.mu)}")
        for m in self.mu:
            if m.genus != self.genus:
                raise ValueError(
                    f"characteristic {m} has genus {m.genus}, expected {self.genus}"
                )

    @classmethod
    def create(
        cls,
        n: int,
        genus: int,
        mu: Optional[Sequence[Characteristic]] = None,
        mode: CoefficientMode = CoefficientMode.MODIFIED,
    ) -> "RelationSpec":
        """The shared spec of (n, genus, mu, mode), mu all zero by default.
        The spec is built, and so validated, first; a spec over the caps
        of _kept is returned as built and not kept."""
        if mu is None:
            # No characteristic has genus < 1; __post_init__ reports it.
            mu = [Characteristic.zero(genus)] * n if genus >= 1 else []
        spec = cls(n, genus, tuple(mu), mode)
        return _shared_spec(spec, type(n), type(genus)) if _kept(spec) else spec

    @property
    def lam(self) -> int:
        return cycle_number(self.n)

    @functools.cached_property
    def _nu(self) -> tuple[Characteristic, ...]:
        """nu = mu S_n."""
        return apply_to_chars(smith_matrix(self.n), self.mu)

    def _rows(self, rational: Callable, top: Callable, bottom: Callable) -> tuple[tuple, tuple]:
        """(tops, bottoms): for each digit vector d in {0..lambda-1}^g,
        lexicographic, the row of halves (d/lambda, nu_1 + d/lambda, ...,
        nu_n + d/lambda), top halves joined by top and bottom halves by
        bottom.  A coordinate p/q of 0 or of nu_j is
        rational(p lambda + k q, q lambda) at digit k, made once per k."""
        lam, zero = self.lam, (Fraction(0),) * self.genus

        def rows(halves, join):
            per_half = []
            for half in halves:
                coordinates = [
                    [rational(v.numerator * lam + k * v.denominator, v.denominator * lam)
                     for k in range(lam)]
                    for v in half
                ]
                per_half.append(list(map(join, itertools.product(*coordinates))))
            return tuple(zip(*per_half))

        return (
            rows([zero, *(v.top for v in self._nu)], top),
            rows([zero, *(v.bottom for v in self._nu)], bottom),
        )

    @functools.cached_property
    def _digit_table(self) -> tuple[tuple, tuple]:
        """_rows as Fraction g-tuples, for the terms of a Relation."""
        return self._rows(Fraction, tuple, tuple)

    @functools.cached_property
    def _text_rows(self) -> tuple[tuple, tuple]:
        """_rows as "top;" and "bottom" texts, for JSON and text."""
        return self._rows(_fraction_text, lambda t: ",".join(t) + ";", ",".join)

    @functools.cached_property
    def _latex_rows(self) -> tuple[tuple, tuple]:
        """_rows as primed LaTeX stacks, split into their top and bottom
        halves, for render.relation_to_latex."""
        return self._rows(_latex_fraction, _latex_top, lambda t: _latex_bottom(t) + "'")

    @functools.cached_property
    def _exponent_parts(self) -> tuple[np.ndarray, tuple[int, ...], int]:
        """(cross, drift, den): x(a) = -(cross[c, b]/lambda^2 + drift[b]/den)
        at a = (c/lambda; b/lambda) with c and b lexicographic, where
        cross = kappa c.b mod lambda^2 and drift[b]/den =
        sum_j mu'_j.b/lambda mod 1, all integers."""
        lam, g = self.lam, self.genus
        digits = np.indices((lam,) * g).reshape(g, -1).T
        cross = (coefficient_kappa(self.n, self.mode) * (digits @ digits.T)) % (lam * lam)
        cross.flags.writeable = False
        # sum_j mu'_j = tops / q, so drift[b] = tops.b mod q lambda over q lambda.
        q = math.lcm(*(v.denominator for m in self.mu for v in m.top))
        tops = [
            sum(v.numerator * (q // v.denominator) for v in column)
            for column in zip(*(m.top for m in self.mu))
        ]
        den = q * lam
        drift = tuple(sum(map(operator.mul, tops, b)) % den for b in digits.tolist())
        return cross, drift, den

    @functools.cached_property
    def _coefficients(self) -> np.ndarray:
        """Read-only e[x(a)], flat in enumerate_shifts order."""
        cross, drift, den = self._exponent_parts
        x = cross / (self.lam * self.lam) + np.array([p / den for p in drift])
        table = np.exp(-2j * math.pi * x).reshape(-1)
        table.flags.writeable = False
        return table


# What create keeps.  A kept spec has at most _SPEC_TERM_CAP terms and at
# most _SPEC_ROW_CAP row units (see _kept).  Its derived values take at
# most 16 kB, plus 24 bytes per term (the int64 exponent and complex128
# coefficient tables), plus 320 bytes per row unit (nu and the three row
# tables): 0.4 MB + 1.3 MB = 1.7 MB per spec, so 55 MB for the
# _SPEC_CACHE_SIZE kept specs in the worst shape, as
# tests/test_relations.py measures.  The specs of the benchmark take
# under 0.3 MB each, and that of (5, 3), with 15625 terms, 0.8 MB.
# Each cap is the least power of two that keeps the all-zero (5, 3)
# spec (3000 row units), the largest of the (n, g) grid in ROADMAP item
# 1.  32 specs is the least power of two at which the benchmark's
# create calls hit as often as with an unbounded cache: 84% of them in
# emit and 45% in verify (8 specs give 79% and 7%).
_SPEC_CACHE_SIZE = 32
_SPEC_TERM_CAP = 2**14
_SPEC_ROW_CAP = 2**12


def _kept(spec: RelationSpec) -> bool:
    """Whether create keeps spec: it has at most _SPEC_TERM_CAP terms,
    lambda^(2g), and at most _SPEC_ROW_CAP row units, (n + 1) lambda^g
    (g + w).  Each of the 2 lambda^g rows of a row table holds n + 1
    texts or tuples of g coordinates, whose size grows with w, the
    64-bit words in all the numerators and denominators of mu."""
    rows = spec.lam**spec.genus
    bits = sum(v.numerator.bit_length() + v.denominator.bit_length()
               for m in spec.mu for half in (m.top, m.bottom) for v in half)
    return (rows * rows <= _SPEC_TERM_CAP
            and (spec.n + 1) * rows * (spec.genus + -(-bits // 64)) <= _SPEC_ROW_CAP)


@functools.lru_cache(maxsize=_SPEC_CACHE_SIZE)
def _shared_spec(spec: RelationSpec, n_type: type, genus_type: type) -> RelationSpec:
    """The first spec equal to spec, with an n and a genus of the same
    types, that is still cached: equal values of other types, such as
    True for 1 or a numpy integer, would be written differently."""
    return spec


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


class Relation(Sequence):
    """The term list of one spec, in enumerate_shifts order, read-only.

    Supports len, int and slice indexing with the index rules of
    range(len(self)) (a slice is a list), iteration and element-wise ==
    with any sequence of terms; like a list it is unhashable.  Term
    i = (c, b) is built when it is accessed, from spec._digit_table and
    the exponent numerators, which are computed once per Relation (see
    the module docstring).
    """

    __slots__ = ("spec", "_numerators", "_denominator")

    def __init__(self, spec: RelationSpec):
        self.spec = spec
        cross, drift, q = spec._exponent_parts
        sq = spec.lam * spec.lam
        # x(a) = (-(cross q + drift lambda^2) mod lambda^2 q) / lambda^2 q
        self._denominator = den = sq * q
        self._numerators = [
            -(x * q + p * sq) % den for row in cross.tolist() for x, p in zip(row, drift)
        ]

    def __len__(self) -> int:
        return len(self._numerators)

    def __getitem__(self, index):
        i = range(len(self))[index]
        return list(map(self._term, i)) if isinstance(i, range) else self._term(i)

    def __iter__(self) -> Iterator[RelationTerm]:
        return map(self._term, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"Relation({self.spec!r})"

    def _term(self, i: int) -> RelationTerm:
        tops, bottoms = self.spec._digit_table
        c, b = divmod(i, len(bottoms))
        shift, *nu_shifted = map(Characteristic._unchecked, tops[c], bottoms[b])
        exponent = Fraction(self._numerators[i], self._denominator)
        return RelationTerm(shift, exponent, tuple(nu_shifted))


def build_relation(spec: RelationSpec) -> Relation:
    """Term list of the relation, in enumerate_shifts order.

    Exactly lam^(2g) terms; exponents are exact rationals whose
    denominator divides lambda^2 whenever the mu_j are in standard form
    (coordinates multiples of 1/lambda).  Terms are built when they are
    accessed, so two accesses give equal terms, not the same objects.
    """
    return Relation(spec)


def _write_terms(
    spec: RelationSpec,
    terms: Relation,
    writer: Callable,
    rows: Optional[tuple[list, list]] = None,
    exponent: Callable = str,
) -> Iterator[Iterator]:
    """The one row writer of relation outputs: for each top digit row c,
    in order, one block of the terms (c, b), b in order.  writer(top row
    c) is called once per block, with the top texts of c; what it returns
    is mapped over the terms' (shift text, exponent text, *nu_shifted
    bottom texts).  A % template with the top texts baked in is such a
    writer, through its __mod__, so a term costs one C-level format call.

    Rows come from rows, a spec._rows table of texts, by default
    spec._text_rows.  Its texts hold no "%", so they can be baked into a
    template; those of spec._text_rows hold only digits, "-", "/", ","
    and ";", so JSON writes each one quoted as it is
    (encode_basestring_ascii(t) == '"' + t + '"').  Each distinct
    exponent is formatted once, by exponent.  Raises TypeError for terms
    that are not a Relation and ValueError for a Relation of another
    spec."""
    if not isinstance(terms, Relation):
        raise TypeError(f"terms must be a Relation, got {type(terms).__name__}")
    if terms.spec != spec:
        raise ValueError("terms are the relation of another spec")
    tops, bottoms = rows or spec._text_rows
    den = terms._denominator
    texts = {k: exponent(Fraction(k, den)) for k in set(terms._numerators)}
    exponents = list(map(texts.__getitem__, terms._numerators))
    shifts = [row[0] for row in bottoms]
    nus = [row[1:] for row in bottoms]
    width = len(bottoms)
    return (
        map(writer(top), map(operator.add, zip(map(top[0].__add__, shifts),
                                               exponents[c * width:(c + 1) * width]), nus))
        for c, top in enumerate(tops)
    )


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


def _check(
    spec: RelationSpec, z, tau: PeriodMatrix, settings: EvalSettings, seed_index: int = 0
) -> VerificationReport:
    """The one relation check: lhs_value, then rhs_value, then _compare."""
    lhs = lhs_value(spec, z, tau, settings)
    rhs = rhs_value(spec, z, tau, settings)
    return _compare(lhs, rhs, tuple(z), tau, seed_index)


@dataclass
class TrialSampler:
    """Seeded sampler of trial points (z-tuple, tau).

    Genus 1: tau = u + i v with u ~ U[-0.5, 0.5], v ~ U[0.8, 1.6].
    Genus >= 2: Im tau = D + 0.2 W with D diagonal U[0.9, 1.4] and W
    symmetric with U[-1, 1] entries, redrawn until positive definite;
    Re tau symmetric with U[-0.3, 0.3] entries.  Arguments have real and
    imaginary parts U[-0.4, 0.4].  By Gershgorin (diagonal at least 0.7,
    g - 1 off-diagonal entries of at most 0.2) the smallest eigenvalue
    of Im tau is at least 0.7 - 0.2 (g - 1): 0.5, 0.3 and 0.1 at g = 2,
    3 and 4, so no draw is redrawn there and truncation radii stay
    small.  From g = 5 on there is no such floor, and only the redraw
    keeps Im tau positive definite.  Positive definiteness is decided by
    the certified test of PeriodMatrix, _min_eig_lower(Im tau) > 0,
    before Re tau is drawn, so every drawn matrix is one PeriodMatrix
    accepts, and the bound is handed to it rather than computed again.
    """

    seed: int = DEFAULT_SEED

    def make_rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def draw_tau(self, rng: np.random.Generator, genus: int) -> PeriodMatrix:
        if genus == 1:
            u = rng.uniform(-0.5, 0.5)
            v = rng.uniform(0.8, 1.6)
            return PeriodMatrix(np.array([[u + 1j * v]]))
        upper = np.triu_indices(genus)

        def symmetric(lo, hi):
            # One draw per upper-triangle entry, row by row.
            m = np.zeros((genus, genus))
            m[upper] = m.T[upper] = rng.uniform(lo, hi, len(upper[0]))
            return m

        while True:
            d = rng.uniform(0.9, 1.4, genus)
            im = np.diag(d) + 0.2 * symmetric(-1.0, 1.0)
            lam_min = _min_eig_lower(im)
            if lam_min > 0.0:
                # The imaginary part of the sum is im exactly.
                return PeriodMatrix._certified(symmetric(-0.3, 0.3) + 1j * im, lam_min)

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
                report = _check(spec, zs, trial_tau, settings, idx)
            except TruncationError:
                nan = complex(math.nan)
                report = VerificationReport(
                    nan, nan, math.nan, math.nan, zs, trial_tau, "eval-failed", idx
                )
                break
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


# The all-zero n = 4 spec: its lhs_value is 2 prod_j theta_0(z_j).
_QUADRUPLE = RelationSpec.create(4, 1)


def verify_jacobi_a(
    z,
    tau: PeriodMatrix,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> VerificationReport:
    """The classical genus-1 quadruple relation under the Jacobi matrix:

        2 prod_j theta_{(0;0)}(z_j) = sum over (alpha, beta) in {0,1}^2
            of prod_j theta_{(alpha/2; beta/2)}(w_j),   w = z A,

    all four summands entering with coefficient +1.  The left side is
    lhs_value of the all-zero (4, 1) spec; the four characteristics are
    enumerate_shifts(1, 2), alpha major.
    """
    if tau.genus != 1:
        raise ValueError("the quadruple relation is a genus-1 statement")
    zs = _as_arg_tuple(4, 1, z)
    ws = apply_to_args(jacobi_a_matrix(), zs)
    lhs = lhs_value(_QUADRUPLE, zs, tau, settings)
    rhs = 0j
    for chi in enumerate_shifts(1, 2):
        rhs += math.prod(theta(chi, wj, tau, settings).value for wj in ws)
    return _compare(lhs, rhs, zs, tau)


def _json_row(top: tuple[str, ...]) -> Callable:
    """The _write_terms writer of the JSON rows, the one place that names
    their fields: the dict row of each term of a top row."""
    nu_tops = top[1:]
    return lambda t: {"shift": t[0], "exponent": t[1],
                      "nu_shifted": list(map(str.__add__, nu_tops, t[2:]))}


@dataclass(frozen=True, eq=False)
class _JsonRows:
    """The "terms" of a relation document: iterating it gives the
    _json_row of each term, as terms_to_json_obj holds them and
    render.parse_terms_json checks them.  The command line passes it to
    render.dumps unlisted, which lays the rows out without the dicts."""

    spec: RelationSpec
    terms: Relation

    def __iter__(self) -> Iterator[dict]:
        return itertools.chain.from_iterable(_write_terms(self.spec, self.terms, _json_row))


def _terms_json_obj(spec: RelationSpec, terms: Relation, written: bool = False) -> dict:
    """The "spec"/"terms" object shared by relation_report and emit.  Its
    "terms" is the list of the rows of _JsonRows(spec, terms), or,
    written, that _JsonRows itself, which the command line passes to
    render.dumps."""
    rows = _JsonRows(spec, terms)
    return {
        "spec": {
            "n": spec.n,
            "g": spec.genus,
            "lambda": spec.lam,
            "mode": spec.mode.value,
            "mu": [str(m) for m in spec.mu],
        },
        "terms": rows if written else list(rows),
    }


def relation_report(
    spec: RelationSpec,
    terms: Relation,
    reports: Sequence[VerificationReport],
    tol: float,
) -> dict:
    """Assemble the stable JSON-ready report object."""
    return _with_trials(_terms_json_obj(spec, terms), reports, tol)


def _with_trials(document: dict, reports: Sequence[VerificationReport], tol: float) -> dict:
    """A _terms_json_obj document followed by the "trials" and the
    "verdict" of reports."""
    return {
        **document,
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
