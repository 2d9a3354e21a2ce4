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

The exponent is a sum over the g coordinates, so at a = (c/lambda;
b/lambda), with t_i/q = sum_j mu'_j[i] over the lcm q of the top
denominators of mu, the coefficient is a product over the axes i,

    e[x(a)] = prod_i C[c_i, b_i] * e[-t_i b_i / (q lambda)],
    C[c, b] = e[-kappa c b / lambda^2],

one lambda x lambda table C for every axis.  A spec keeps its exact
exponents per axis only (RelationSpec._exponent_parts): the integers
kappa c b mod lambda^2 of C, the drift numerators t_i b, and the sum
of both as one numerator over q lambda^3, O(g lambda^2) integers in
all.  Relation and RelationSpec._coefficients build the
lambda^(2g) table where they use it, as a Kronecker sum over the axes
(_kronecker_sum, c major and b minor, each lexicographic with axis 0
major), so no array has more than four dimensions at any genus.

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
theta() bounds it as before.  As in theta(), an entry also leaves out
the in-box terms of its coset whose exponent has a real part at or
below theta._SKIP_EXPONENT = -50, so a bound of an entry must add their
mass, as theta's rounding bound does.

lhs_value and rhs_value each evaluate their n sums as the rows of one
stacked evaluation (theta._theta_values, theta._shift_tables), every
value and table bit for bit that of theta() and theta_shift_table(), and
so does verify_jacobi_a with its 4 left and 16 right values.  Every
row comes from theta's one row builder, theta._block_rows, given the
parts a row takes from its characteristics alone (theta._side: the
tops, the float bottoms as one (n, g) array, lambda and a dict of the
plans built so far) and an (n, g) argument block.
One check, _check, compares the two sides for a list of drawn trials:
the n left and n right rows of every trial whose radius search succeeds
are evaluated stacked, then each trial's sides are multiplied in j
order, so every value is bit for bit that of lhs_value and rhs_value,
and a trial whose search fails is reported "eval-failed".  A verify run
derives the _side of mu and of nu once and hands them to every check
it makes, so each (side, j, radius) plan is built once per run, and
each trial's rows are built from its argument block.  A verify run draws its trials' first attempts in
the order of a trial-by-trial run (the arguments, then tau, per trial),
and checks them in chunks of at most theta._STACK_POINTS shift-table
entries (or one trial), so the tables it holds at once do not grow with
the number of trials.  A naive-mode run resamples a trial whose sides
agree, so its later draws depend on earlier results: it keeps the rng
state after each draw of a chunk, and from the first trial whose sides
agree on, it rewinds the rng to just after that trial's draw and checks
one attempt at a time, so at most trials - 1 first attempts are checked
and dropped.  apply_to_args's product stays one (n, n) @ (n, g)
product per trial, as the tables' mixing stays one np.dot per table and
axis: a BLAS product over stacked operands may sum in another order.
Before drawing, verify builds the lattice-sum plans of the first radius
for every mu_j and nu_j into its sides, so a spec whose smallest boxes
are over theta's cap raises TruncationError at once, and no row builds
those plans again.

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
from a template it makes of one _json_row prototype per document, and
the object API's dict rows from a template of their first row.

RelationSpec.create returns one shared instance per value (n, genus,
mu, mode), from a process-wide least-recently-used cache of
_SPEC_CACHE_SIZE specs, as theta._axis keeps lattice-sum axes.  The
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
    char_linear_combine,
    cycle_number,
    enumerate_shifts,
)
from . import theta as _theta
from .theta import (
    DEFAULT_SETTINGS,
    EvalSettings,
    PeriodMatrix,
    TruncationError,
    _block_rows,
    _min_eig_lower,
    _plan,
    _shift_tables,
    _side,
    _theta_values,
)
from .transforms import apply_to_args, jacobi_a_matrix, smith_matrix

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
# Draws of Im tau that TrialSampler.draw_tau rejects before it raises.
# Counted over seeds 0..4: accepted within 17 draws for g <= 32, 207 at
# g = 36, 18 to 5676 at g = 40; at g = 44 two seeds needed 21143 and
# 68777, the others none within 10^5; at g = 48 none within 2 10^5.  A
# draw at g = 65 takes about 0.3 ms (2-CPU Xeon), so the cap is reached
# in about 3 s there.
_MAX_TAU_DRAWS = 10_000


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
    (nu, its row tables, its per-axis exponent tables and its coefficient
    table, each a cached property) are derived once per distinct spec
    per process; see the module docstring.  Of size lambda^(2g) it keeps
    the complex coefficients e[x(a)] = prod_i C[c_i, b_i] e[-t_i b_i /
    (q lambda)] only, once rhs_value asks for them; the exponents it
    keeps per axis.  Every derived table is immutable: tuples and
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
        """nu = mu S_n in closed form: nu_k = (2/n) sum_j mu_j - mu_k."""
        total = char_linear_combine((Fraction(2, self.n),) * self.n, self.mu)
        return tuple(total - m for m in self.mu)

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
    def _exponent_parts(self) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
        """(cross, drifts, den, tables), read-only integer tables of one
        axis each: x(a) = -sum_i (cross[c_i, b_i]/lambda^2 + drifts[i, 0,
        b_i]/(q lambda)) mod 1 at a = (c/lambda; b/lambda), where the
        lambda x lambda table cross = kappa c b mod lambda^2 is the same on
        every axis, the 1 x lambda table drifts[i] holds t_i b, with t_i/q
        = sum_j mu'_j[i] and q the lcm of the top denominators of mu, and
        tables[i, c, b] = -(cross[c, b] q lambda + drifts[i, 0, b]
        lambda^2) is the term of axis i as one numerator over den = q
        lambda^3, for Relation.  Only cross is reduced; drifts and tables
        hold Python ints, so no size overflows."""
        lam, digits = self.lam, np.arange(self.lam)
        cross = coefficient_kappa(self.n, self.mode) * np.outer(digits, digits) % (lam * lam)
        q = math.lcm(*(v.denominator for m in self.mu for v in m.top))
        tops = [sum(v.numerator * (q // v.denominator) for v in column)
                for column in zip(*(m.top for m in self.mu))]
        drifts = np.array(tops, dtype=object)[:, None, None] * digits
        tables = -q * lam * cross.astype(object) - lam * lam * drifts
        return _read_only(cross), _read_only(drifts), q * lam**3, _read_only(tables)

    @functools.cached_property
    def _coefficients(self) -> np.ndarray:
        """Read-only e[x(a)], flat in enumerate_shifts order.  The
        Kronecker sums of cross and of the drifts, reduced mod lambda^2
        and mod q lambda, are the integers of the whole exponent; each is
        divided once in floats, cross/lambda^2 + drift/(q lambda), and
        then exponentiated."""
        cross, drifts, den, _ = self._exponent_parts
        sq, den = self.lam * self.lam, den // self.lam**2
        drift = [p % den / den for p in _kronecker_sum(drifts).flat]
        # A sum of genus entries of cross is below genus lambda^2, so its
        # (sum mod lambda^2)/lambda^2 is read from a table of those floats.
        x = (np.arange(self.genus * sq) % sq / sq)[_kronecker_sum([cross] * self.genus)]
        return _read_only(np.exp(-2j * math.pi * (x + np.array(drift))).reshape(-1))


def _kronecker_sum(tables) -> np.ndarray:
    """The table of sum_i tables[i][c_i, b_i] at row c and column b, c and
    b lexicographic with axis 0 major, from 2-d tables: one broadcast add
    per table, so no array has more than 4 dimensions at any genus."""
    total, *rest = tables
    for t in rest:
        total = (total[:, None, :, None] + t[None, :, None, :]).reshape(len(total) * len(t), -1)
    return total


def _read_only(array: np.ndarray) -> np.ndarray:
    """array, made read-only in place."""
    array.flags.writeable = False
    return array


# What create keeps.  A kept spec has at most _SPEC_TERM_CAP terms and at
# most _SPEC_ROW_CAP row units (see _kept).  Its derived values take at
# most 16 kB, plus 16 bytes per term (the complex128 coefficient table),
# plus 320 bytes per row unit (nu, the three row tables and the per-axis
# exponent tables, whose g lambda^2 entries are at most the row units):
# 0.26 MB + 1.3 MB = 1.6 MB per spec, so 50 MB for the _SPEC_CACHE_SIZE
# kept specs in the worst shape, as tests/test_relations.py measures.
# The specs of the benchmark take under 0.3 MB each, and that of (5, 3),
# with 15625 terms, 0.65 MB.
# Each cap is the least power of two that keeps the all-zero (5, 3)
# spec (3000 row units), the largest of the (n, g) grid in ROADMAP item
# 1.  32 specs is the least power of two at which the benchmark's
# create calls hit as often as with an unbounded cache: 84% of them in
# emit and 45% in verify (8 specs give 79% and 7%).
# With create returning unshared specs, emit (20 s runs at seed 1, four
# alternating pairs, 2-CPU Xeon) read op_ms.p50 1.72-1.89 ms against
# 1.20-1.61 ms shared (medians 1.78 and 1.37) and ops_per_s 243-265
# against 230-305 (medians 261 and 279).  So the cache stays for traffic
# that repeats a spec; whether a one-shot command needs it waits for the
# one-shot lane of ROADMAP item 1.
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
    the exponent numerators, which are computed once per Relation, as the
    Kronecker sum of the spec's per-axis tables (see the module
    docstring).
    """

    __slots__ = ("spec", "_numerators", "_denominator")

    def __init__(self, spec: RelationSpec):
        self.spec = spec
        *_, self._denominator, tables = spec._exponent_parts
        self._numerators = (_kronecker_sum(tables) % self._denominator).ravel().tolist()

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
    # The bottom texts by column: the shift halves, then those of each nu_j.
    shifts, *nus = zip(*bottoms)
    width = len(shifts)
    return (
        map(writer(top), zip(map(top[0].__add__, shifts),
                             exponents[c * width:(c + 1) * width], *nus))
        for c, top in enumerate(tops)
    )


def _as_arg_tuple(spec_n: int, genus: int, z) -> tuple[np.ndarray, ...]:
    vecs = [np.atleast_1d(np.asarray(v, dtype=complex)) for v in z]
    if len(vecs) != spec_n or any(v.shape != (genus,) for v in vecs):
        raise ValueError(f"need {spec_n} complex vectors of length {genus}")
    return tuple(vecs)


def _lhs(spec: RelationSpec, values) -> complex:
    """lambda^g times the n theta values, multiplied in j order."""
    return math.prod(values, start=complex(spec.lam**spec.genus))


def _rhs(spec: RelationSpec, tables) -> complex:
    """The coefficient table times the n shift tables, in j order, summed."""
    return complex(math.prod(tables, start=spec._coefficients).sum())


def lhs_value(
    spec: RelationSpec,
    z,
    tau: PeriodMatrix,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> complex:
    """lambda^g times the product of the n left-side theta values, each
    bit for bit the value of theta(mu_j, z_j, tau, settings)."""
    z = np.array(_as_arg_tuple(spec.n, spec.genus, z))
    return _lhs(spec, _theta_values(_block_rows(z, tau, *_side(spec.mu, 1, settings))))


def rhs_value(
    spec: RelationSpec,
    z,
    tau: PeriodMatrix,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> complex:
    """Coefficient-weighted sum of shifted products at w = z S_n.

    The theta_shift_table of each j gives theta_{nu_j + a}(w_j) for
    every shift a at once; no term list is built.
    """
    w = np.array(apply_to_args(smith_matrix(spec.n), _as_arg_tuple(spec.n, spec.genus, z)))
    return _rhs(spec, _shift_tables(_block_rows(w, tau, *_side(spec._nu, spec.lam, settings))))


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
    """The one comparison of two sides: abs/rel error, status "ok",
    "degenerate-pass" when both sides are below DEGENERATE_FLOOR, or
    "eval-failed" when abs_error is not finite, as for a side that is
    not a finite number (NaN errors then, for NaN sides)."""
    abs_error = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    rel_error = abs_error / max(scale, REL_FLOOR)
    status = ("eval-failed" if not math.isfinite(abs_error)
              else "degenerate-pass" if scale < DEGENERATE_FLOOR else "ok")
    return VerificationReport(lhs, rhs, abs_error, rel_error, z, tau, status, seed_index)


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
    keeps Im tau positive definite; after _MAX_TAU_DRAWS rejected draws
    (reached from about g = 44 on) draw_tau raises ValueError.  Positive
    definiteness is decided by the certified test of PeriodMatrix,
    _min_eig_lower(Im tau) > 0, before Re tau is drawn, so every drawn
    matrix is one PeriodMatrix accepts, and the bound is handed to it
    rather than computed again; at genus 1, where v > 0, the bound is
    computed once and handed over the same way.  The upper-triangle index
    of each genus is made once per process.  A genus below 1 raises
    ValueError before anything is drawn.
    """

    seed: int = DEFAULT_SEED

    def make_rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def draw_tau(self, rng: np.random.Generator, genus: int) -> PeriodMatrix:
        if genus < 1:
            raise ValueError(f"need genus >= 1, got {genus}")
        if genus == 1:
            u = rng.uniform(-0.5, 0.5)
            v = rng.uniform(0.8, 1.6)
            entries = np.array([[u + 1j * v]])
            return PeriodMatrix._certified(entries, _min_eig_lower(entries.imag))
        upper = _upper_triangle(genus)

        def symmetric(lo, hi):
            # One draw per upper-triangle entry, row by row.
            m = np.zeros((genus, genus))
            m[upper] = m.T[upper] = rng.uniform(lo, hi, len(upper[0]))
            return m

        for _ in range(_MAX_TAU_DRAWS):
            d = rng.uniform(0.9, 1.4, genus)
            im = np.diag(d) + 0.2 * symmetric(-1.0, 1.0)
            lam_min = _min_eig_lower(im)
            if lam_min > 0.0:
                # The imaginary part of the sum is im exactly.
                return PeriodMatrix._certified(symmetric(-0.3, 0.3) + 1j * im, lam_min)
        raise ValueError(
            f"no positive definite Im tau at genus {genus} in {_MAX_TAU_DRAWS} draws")

    def draw_args(
        self, rng: np.random.Generator, n: int, genus: int
    ) -> tuple[np.ndarray, ...]:
        if genus < 1:
            raise ValueError(f"need genus >= 1, got {genus}")
        flat = rng.uniform(-0.4, 0.4, (n, genus, 2))
        return tuple(flat[j, :, 0] + 1j * flat[j, :, 1] for j in range(n))

    def draw(self, rng: np.random.Generator, n: int, genus: int):
        return self.draw_args(rng, n, genus), self.draw_tau(rng, genus)


@functools.lru_cache(maxsize=8)
def _upper_triangle(genus: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(genus), made once per genus, as read-only arrays."""
    return tuple(map(_read_only, np.triu_indices(genus)))


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
    status "flagged".  Every attempt goes through _check, with the same
    reports as one attempt at a time: the trials' first attempts are
    drawn and checked together, chunk by chunk; in NAIVE mode, from the
    first trial whose sides agree on, the rng is rewound to just after
    that trial's draw and the attempts are drawn and checked one at a
    time.  A trial whose radius search fails is reported "eval-failed".  Raises
    TruncationError, before drawing, when the box of the first radius
    of some mu_j or nu_j is over theta's cap.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    sampler = sampler or TrialSampler()
    # One pair of sides serves every check of the run, so each
    # (side, j, radius) plan is built once per run.  A spec whose
    # smallest boxes are too large is refused before any draw; the plans
    # of the first radius are kept in their sides for the rows.
    sides = _side(spec.mu, 1, settings), _side(spec._nu, spec.lam, settings)
    for tops, _, lam, plans, radii in sides:
        for j, top in enumerate(tops):
            plans[j, radii[0]] = _plan(top, radii[0], lam)
    rng = sampler.make_rng()

    def draw():
        if tau is None:
            return sampler.draw(rng, spec.n, spec.genus)
        return sampler.draw_args(rng, spec.n, spec.genus), tau

    def agrees(report):
        return report.status == "ok" and report.rel_error < GENERIC_GAP

    def settled(report):
        # A naive-mode trial from its first attempt on: resampled while
        # its sides agree, and flagged after MAX_RESAMPLES attempts that
        # all agree.
        for _ in range(MAX_RESAMPLES - 1):
            if not agrees(report):
                return report
            (report,) = _check(spec, [draw()], settings, report.seed_index, sides)
        return replace(report, status="flagged") if agrees(report) else report

    # A chunk holds at most _STACK_POINTS shift-table entries, n
    # lambda^(2g) a trial, or one trial.  Its first attempts are drawn,
    # keeping the rng state after each draw, and checked together.  In
    # naive mode, from the first trial whose sides agree on, the rng is
    # rewound to just after that trial's draw and the attempts run one
    # at a time, as resampling needs; the chunk's later first attempts,
    # at most trials - 1, are dropped.
    step = max(1, _theta._STACK_POINTS // (spec.n * spec.lam ** (2 * spec.genus)))
    naive, reports = spec.mode is CoefficientMode.NAIVE, []
    for start in range(0, trials, step):
        draws, states = [], []
        for _ in range(start, min(start + step, trials)):
            draws.append(draw())
            states.append(rng.bit_generator.state)
        for report, state in zip(_check(spec, draws, settings, start, sides), states):
            if naive and agrees(report):
                rng.bit_generator.state = state
                reports.append(settled(report))
                for idx in range(report.seed_index + 1, trials):
                    reports.append(settled(_check(spec, [draw()], settings, idx, sides)[0]))
                return reports
            reports.append(report)
    return reports


def _check(
    spec: RelationSpec, draws: Sequence[tuple], settings: EvalSettings, start: int = 0,
    sides: Optional[tuple] = None,
) -> list[VerificationReport]:
    """The one relation check, the report of every drawn (z-tuple, tau),
    trial i with seed_index start + i: the n left and n right rows of
    every trial whose radius search succeeds are evaluated together
    (theta._theta_values and theta._shift_tables), then each trial's two
    sides are multiplied in j order and compared, every value bit for
    bit that of lhs_value and rhs_value.  The rows are built from each
    trial's argument block with sides, the theta._side of mu and of nu,
    which a run derives once and hands to each of its checks (a check
    given none derives its own), so each (side, j, radius) plan is built
    once per run.  A trial whose search fails, or whose box at some
    radius is over theta's cap, is compared as NaN sides, and so is
    "eval-failed" with NaN errors; a ValueError is raised at the first
    row that raises it."""
    sides = sides or (_side(spec.mu, 1, settings), _side(spec._nu, spec.lam, settings))
    # apply_to_args's one (n, n) @ (n, g) product per trial gives w = z S_n.
    smith, left, right, failed = smith_matrix(spec.n).as_float().T, [], [], set()
    for i, (zs, tau) in enumerate(draws):
        z = np.array(zs, dtype=complex)
        try:
            rows = (_block_rows(z, tau, *sides[0]), _block_rows(smith @ z, tau, *sides[1]))
        except TruncationError:
            failed.add(i)
            continue
        left += rows[0]
        right += rows[1]
    values, tables, n = iter(_theta_values(left)), iter(_shift_tables(right)), spec.n
    nan_sides = (complex(math.nan),) * 2
    return [
        _compare(*(nan_sides if i in failed else (
            _lhs(spec, itertools.islice(values, n)), _rhs(spec, itertools.islice(tables, n)))),
            tuple(zs), tau, start + i)
        for i, (zs, tau) in enumerate(draws)
    ]


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

    all four summands entering with coefficient +1.  The four
    characteristics are enumerate_shifts(1, 2), alpha major, the first
    of them (0; 0).  The 4 left and 16 right values are the rows of one
    stacked evaluation, each bit for bit that of theta(), built in the
    order the left side and then each summand use them.
    """
    if tau.genus != 1:
        raise ValueError("the quadruple relation is a genus-1 statement")
    zs = _as_arg_tuple(4, 1, z)
    ws = apply_to_args(jacobi_a_matrix(), zs)
    chis = enumerate_shifts(1, 2)
    v = _theta_values(_block_rows(np.array(zs + ws * 4), tau, *_side(
        [chis[0]] * 4 + [chi for chi in chis for _ in ws], 1, settings)))
    rhs = 0j
    for k in range(4, 20, 4):
        rhs += math.prod(v[k : k + 4])
    return _compare(math.prod(v[:4], start=2 + 0j), rhs, zs, tau)


def _json_row(top: tuple[str, ...]) -> Callable:
    """The _write_terms writer of the JSON rows, the one place that names
    their fields: the dict row of each term of a top row.  The top texts
    are baked into one % template per block ("%" escaped), which writes
    a term's n nu_shifted texts joined by spaces, so a term costs one
    format call and one split: no text of _write_terms holds a space."""
    nu = ("%.0s%.0s" + " ".join(t.replace("%", "%%") + "%s" for t in top[1:])).__mod__
    return lambda t: {"shift": t[0], "exponent": t[1], "nu_shifted": nu(t).split(" ")}


@dataclass(frozen=True, eq=False)
class _JsonRows:
    """The "terms" of a relation document: iterating it gives the
    _json_row of each term, as terms_to_json_obj holds them and
    render.parse_terms_json checks them.  The command line passes it to
    render.dumps unlisted, which lays the rows out without the dicts;
    render.dumps writes the listed dict rows as flat records, from a
    template of the same layout."""

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
