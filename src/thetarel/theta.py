"""Numerical evaluation of theta functions with rational characteristics.

The series evaluated here is

    theta_mu(z, tau) = sum over xi in Z^g of
        e[ (1/2) (xi+mu') tau . (xi+mu') + (xi+mu') . (z+mu'') ],

with e[x] = exp(2*pi*i*x), mu = (mu'; mu'') a rational characteristic,
z a complex g-vector and tau a symmetric g x g matrix whose imaginary
part is positive definite.

Truncation uses the axis-aligned box max_a |xi_a + mu'_a| <= R.  Every
omitted term satisfies

    |term| <= exp(-pi * lam_min * r^2 + 2*pi * r * |Im z|_2),   r = |v|_2 > R,

where lam_min is a certified lower bound on the smallest eigenvalue of
Im tau (numpy.linalg.eigvalsh less a margin for its rounding),
so the tail is bounded by a geometric-style envelope summed over integer
shells.  The radius search stops at the smallest R whose envelope meets
the fixed target TARGET_ABS_ERROR; the reported tail_bound is that
envelope plus a proven bound on the rounding error of the computed box
sum, so it bounds the total absolute error.

The terms are computed by one kernel on the broadcast grid
v_a = mu'_a + k_a/lambda (lambda = 1 for theta): per axis a 1-D array
of correctly rounded v_a, the exponent (1/2) v tau . v + v . shift
accumulated from those arrays with 2 pi i folded into tau and shift,
and the complex exp of the exponent wherever its real part is above
_SKIP_EXPONENT = -50; any other term, at most about e^-50 in modulus,
is an exact zero, as most of a box is Gaussian tail.  The grid ravels
in lexicographic order.  theta() sums the terms by halving (zero-pad to
2^L, then add the upper half onto the lower half L times; the terms are
exponentiated straight into that buffer), whose rounding error is
within gamma_L * sum (|Re t| + |Im t|) (Higham 2002, section 4.2).  Its
rounding bound adds the error of each term's exponent, which grows with
a weight M_t of the term's point, and counts the skipped terms, each at
most e^-50 times the error factor of its exponent.  The weights are
never formed on the grid: the bound takes the sum of size_t M_t over
the terms exactly, from moments of the term sizes along each axis
against the table [1, |v_a|, |v_a|^2] of the axis, and bounds each
term's error factor by a convexity factor F taken once, at the box
corner.  _sums derives the whole bound.  The order is fixed, so results
are reproducible bit-for-bit for identical inputs and settings.

theta_shift_table evaluates theta_{nu+a}(w) for all lambda^(2g) shifts
a in ((1/lambda) Z / Z)^(2g) from one such sum over the finer lattice
nu' + (1/lambda) Z^g, with the same radius and tail envelope, and the
same skipped terms.

What a sum needs of the top mu' alone factors by axis, as the box
does: per coordinate a, the range of k_a, the points v_a and, for a
shift table, the phases of its shifts b (_Axis.phase), and for theta()
the table [1, |v_a|, |v_a|^2] of its rounding bound.  Each is held by
an _Axis, built from the key (p, q, radius, lambda) of mu'_a = p/q and
kept in one process-wide least-recently-used cache, _axis, for every
lambda (_PLAN_CACHE_SIZE).  The plan of a sum (_plan) is the tuple of its
axes.  The key holds four integers, which hash far faster than a
Fraction; no cache holds a float input, so z, tau and the float mu''
are used afresh on every call, and characteristics whose tops agree in
a coordinate share that axis, whatever their bottoms.  An axis is built
by the same operations whether it comes from the cache or not, and its
arrays are read-only, so every result is bit-identical cold or warm.
A shift table's padded buffers are made on each call, as its grid of
terms is from the per-axis v, so no cached array is longer than the
points of its axis or lambda.  The pads and the phases are exact for a
top of any size; a large mu'' still loses the digits of its float.
One rule refuses, with _Oversized, a TruncationError, whatever is too
large to hold: _plan refuses a box of more than _MAX_BOX_POINTS points
before any array of it, even the v of one axis, is allocated, as an
_Axis is built holding only its range of k; and _side, which every row
builder calls first, builds the plans of the first radius and then
refuses n shift tables that would not fit in _MAX_SIDE_BYTES.

theta() sums one row and builds none: after its checks (_check_row)
and its search (_search), _box_sum forms the shift z + mu'' by the
same numpy add as _block_rows and the weights of the bound in Python
floats, by the operations _block_rows takes on arrays, and calls _sums
once, so its bits are its row's.

Every lattice sum that is stacked is a row, and one builder makes every
row: _block_rows takes the n characteristics of one side (_side: their
tops, their float bottoms as one (n, g) array, lambda, the plans built
so far and the radii to try) and an (n, g) argument block, checks the
block once for finiteness, searches each row's radius (_search), adds
the bottoms to the block in one add, and returns one _Row per
characteristic: its plan, its shift z + mu'' and its tau entries, with
its radius and its tail envelope.  A caller that evaluates many blocks
(a relation check) derives its sides once and keeps them, so each
(j, radius) plan is built once.

One kernel, _sums, sums the terms of one row or of R rows stacked along
a last axis of every array: one _grid_terms call, one masked exp and
one halving sum along the point axis give each row's value, and, where
the caller asks, the same stack gives each row's rounding bound
(derived in _sums's docstring), taken row by row from contiguous copies
of the row's arrays, as its one-row call takes it.  Every element goes
through exactly the operations of its one-row sum, and whether a term
is skipped depends on its own exponent alone, so a value or a bound is
the same bit for bit whatever it is stacked with.  _box_sum is one row
of the kernel, on unstacked arrays, with its bound.  _theta_values and
_shift_tables stack the rows of one lambda and box shape, up to
_STACK_POINTS points per stack (_stacks), with (2 pi i) tau and
(2 pi i)(z + mu'') taken per row.  _theta_values sums each stack with
_sums; _shift_tables folds each stack one axis at a time (_fold).  An
axis of the box holds k = k0 + j, j < L, and for k = lambda (k0 div
lambda + u) + c, e[k b / lambda^2] = e[(k0 div lambda + u) b / lambda]
e[c b / lambda^2].  So each row's terms go into a zero buffer
left-padded by k0 mod lambda, where slot lambda u + c holds that k; one
np.matmul, batched over the rows, contracts u against e[(k0 div lambda
+ u) b / lambda]; and once every axis is folded, a twiddle,
e[c b / lambda^2] times the axis's phase, is applied elementwise over
the stack.  Each row's product keeps its one-row shape: one product
over all the columns of a stack was measured to sum in another order
by column position.  Every theta value the package takes internally
is such a row: both sides of a relation check (relations), the values
of the identity checks and of verify_jacobi_a, and theta_shift_table,
which is one row.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .charalg import Characteristic

__all__ = [
    "PeriodMatrix",
    "EvalSettings",
    "ThetaValue",
    "TruncationError",
    "theta",
    "theta_constant",
    "theta_shift_table",
    "char_shift_phase",
    "DEFAULT_SETTINGS",
]

TWO_PI = 2.0 * math.pi
_U = 2.0**-53  # unit roundoff of float64

# Shells of the tail envelope below this are closed with a geometric
# remainder; the envelope decays like exp(-pi*lam_min*r^2) so only a
# couple of dozen shells are ever needed.
_SHELL_CAP = 4096
TARGET_ABS_ERROR = 1e-13    # what the tail envelope of every radius must meet
# Box axes kept by _axis, one per (top_a, radius, lam).  A lam = 1 axis
# of L points holds v (8 L bytes) and, once theta() has summed it, its
# bound's table (24 L): 5 kB at radius 64, so 256 of them hold at most
# 1.3 MB.  theta-eval's fresh tops p/q, q <= 6, at radii 4 to 16 touch
# 76 keys in 300 cycles (seed 1; 75 at seed 7919): 16 axes missed 30% of
# its 13,200 lookups, 256 miss only the first of each key.  A shift
# table's axis holds v (8 L) and its phases (16 lam): 3.8 kB at lam = 48
# (n = 96) and radius 4, 16 kB at lam = 199.  A verify
# run looks each axis up once per (side, j, radius), as its sides keep
# their plans.
_PLAN_CACHE_SIZE = 256
# A sum over a box of N points peaks, as tracemalloc reads it, in the
# three temporaries of its exponent (16 bytes a point each) or just
# after: theta()'s sum holds the exponent, two masks (1 byte each) and
# the zero-padded halving buffer (16 to 32 bytes), a shift table its
# terms and then each fold's padded buffer (_fold).  At g = 1 to 3, with
# the plan's axes built, tests/test_stacked_rows.py reads 48.6 to 49.0
# bytes a point for theta()'s sum of just over 2^19 points and 48.0 to
# 48.3 for lam = 3 shift tables of about 2^19 points, alone or two
# stacked.  _plan refuses a box of more than _MAX_BOX_POINTS points,
# which would need over 1 GiB at 50 bytes a point, before any array of
# it is allocated.
_MAX_BOX_POINTS = 2**30 // 50
# A relation check holds a side's n shift tables, lam^(2g) complex
# entries of 16 bytes each, until the side is summed, and one stack's
# fold adds its temporaries to that.  tracemalloc reads 64.0 to 64.2
# bytes per entry for one table at g = 1, lam = 1000 and 3000, and 17.0
# to 21.5 per held entry for a one-trial verify at (n, g) = (199, 1),
# (23, 2), (9, 3) and (11, 3); tests/test_stacked_rows.py checks the
# rule at lam = 1000 and the first three.  _side refuses n tables that
# would need more than _MAX_SIDE_BYTES at _HELD_BYTES per held entry and
# _FOLD_BYTES per entry of one table: (13, 3) and (401, 1) are refused,
# (11, 3) and (199, 1) run, and one table at g = 1 runs up to lam = 3596.
_MAX_SIDE_BYTES = 2**30
_HELD_BYTES, _FOLD_BYTES = 18, 65
# A lattice sum exponentiates only the terms whose computed exponent has
# a real part above _SKIP_EXPONENT = T (_grid_terms): a term below about
# e^T = 1.9e-22 in modulus is left out of the sum and counted in its
# rounding bound instead (_sums).  A skipped term is at most
# e^T (1 + expm1(gamma_{g+7} 2 pi M)) in modulus, a factor within 1e-9
# of 1 at g <= 3, radius <= 32, tops in [0, 1) and entries of tau, z
# and mu'' up to 10 in modulus (M < 7.2e4), and the bound adds about e^T
# at every point.  So a box of _MAX_BOX_POINTS points adds 2^30 / 50 *
# e^-50 = 4.1e-15 < TARGET_ABS_ERROR / 16 times that factor, and the
# bound stays well under the target; a box the radius search picks adds
# far less.  A Gaussian box is mostly tail: at g = 3 most points are
# below e^T.
_SKIP_EXPONENT = -50.0
# Rows of one box shape are summed together up to _STACK_POINTS points
# per stack (R rows of N points each, R N <= _STACK_POINTS, at least one
# row), so a stack's arrays stay within about 1 MB.
_STACK_POINTS = 2**14


class TruncationError(ArithmeticError):
    """TARGET_ABS_ERROR unreachable within the radius cap."""

    def __init__(self, target: float, best_bound: float, radius: int):
        super().__init__(
            f"tail bound {best_bound:.3e} at radius {radius} "
            f"does not reach target {target:.3e}"
        )
        self.target = target
        self.best_bound = best_bound
        self.radius = radius


class _Oversized(TruncationError):
    """A box over _MAX_BOX_POINTS points, or a side whose shift tables
    would not fit in _MAX_SIDE_BYTES, refused before any of its arrays is
    allocated.  best_bound is inf, as no sum is taken."""

    def __init__(self, message: str, radius: int):
        ArithmeticError.__init__(self, message)
        self.target, self.best_bound, self.radius = TARGET_ABS_ERROR, math.inf, radius


@dataclass(frozen=True, eq=False)
class PeriodMatrix:
    """Symmetric g x g complex matrix with positive-definite imaginary part.

    Positive definiteness is decided by the certified bound lam_min > 0,
    so every accepted matrix has a finite tail envelope."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.entries, dtype=complex))
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"period matrix must be square, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("period matrix entries must be finite")
        if not (arr == arr.T).all():
            raise ValueError("period matrix must be symmetric")
        lam_min = _min_eig_lower(arr.imag)
        if not lam_min > 0.0:
            raise ValueError(
                "imaginary part must be positive definite: its certified "
                f"smallest-eigenvalue bound {lam_min:.3e} is not positive"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "_lam_min", lam_min)

    @classmethod
    def _certified(cls, entries: np.ndarray, lam_min: float) -> "PeriodMatrix":
        """From a new symmetric finite complex array, kept read-only, whose
        imaginary part has the certified bound lam_min > 0 of
        _min_eig_lower; unchecked."""
        self = object.__new__(cls)
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_lam_min", lam_min)
        return self

    @property
    def genus(self) -> int:
        return self.entries.shape[0]

    @property
    def lam_min(self) -> float:
        """Certified lower bound on the smallest eigenvalue of Im tau
        (eigvalsh minus a backward-error margin, see _min_eig_lower);
        always positive, as the constructor refuses any other matrix."""
        return self._lam_min


def _min_eig_lower(y: np.ndarray) -> float:
    """Lower bound on the smallest eigenvalue of the symmetric matrix y.

    LAPACK's symmetric eigensolver (numpy.linalg.eigvalsh) is backward
    stable: its eigenvalues are the exact ones of y + E with
    |E|_2 <= p(g) * eps * |y|_2, p a modest function of g, so by Weyl's
    inequality each is within |E|_2 of the true eigenvalue.  The margin
    subtracted from the computed minimum is 8 * g * eps * max|lambda_hat|,
    which covers that error with p(g) = 8g.
    """
    eig = np.linalg.eigvalsh(y)
    # eig is ascending, so its largest modulus is -eig[0] or eig[-1].
    margin = 8.0 * y.shape[0] * 2.0**-52 * float(max(-eig[0], eig[-1]))
    return float(eig[0]) - margin


@dataclass(frozen=True)
class EvalSettings:
    """Radius cap for the truncated lattice sum."""

    max_radius: int = 32

    def __post_init__(self):
        if not 1 <= self.max_radius <= 64:
            raise ValueError("max_radius must be in [1, 64]")

    @functools.cached_property
    def _radii(self) -> tuple[int, ...]:
        """The radii the search tries: 4, 6, 8, ... below max_radius,
        then max_radius."""
        return (*range(4, self.max_radius, 2), self.max_radius)


DEFAULT_SETTINGS = EvalSettings()


@dataclass(frozen=True)
class ThetaValue:
    """Evaluated series value with its truncation radius and error bound.

    tail_bound is the tail envelope of the omitted series plus the
    rounding bound of the computed box sum, so it bounds the total
    absolute error of `value`.
    """

    value: complex
    truncation_radius: int
    tail_bound: float


def _tail_envelope(radius: int, lam_min: float, y_norm: float, g: int) -> float:
    """Upper bound on the sum of |term| over the omitted box exterior.

    Shell k holds lattice points with sup-norm in (radius+k, radius+k+1];
    each contributes at most (2(radius+k)+3)^g points, every one with
    l2-norm above radius+k.  Monotonicity of the per-point bound needs
    r >= y_norm/lam_min, below which the bound is reported as infinite
    (forcing the radius search onward), as it is when a shell's bound
    overflows a float.  lam_min is a PeriodMatrix's, so it is positive.

    A shell whose exponential underflows is counted as (2r+3)^g 2^-1074:
    exp returns 0 only for a value below its smallest subnormal 2^-1074
    (glibc's exp is within 1 ulp), so this is above the shell's bound.
    A shell so counted is followed by the same geometric remainder as
    any other, so a loop whose every shell underflows ends on a positive
    bound, at least 2^-1074, never on a zero that bounds nothing.
    """
    if radius < y_norm / lam_min:
        return math.inf
    total = 0.0
    try:
        for k in range(_SHELL_CAP):
            r = float(radius + k)
            t = (2.0 * r + 3.0) ** g * max(
                math.exp(-math.pi * lam_min * r * r + TWO_PI * r * y_norm), 2.0**-1074)
            total += t
            # Envelope ratio between consecutive shells, polynomial factor
            # bounded by (5/3)^g <= 3^g for r >= 1.
            ratio = 3.0 ** g * math.exp(-math.pi * lam_min * (2.0 * r + 1.0) + TWO_PI * y_norm)
            if ratio < 0.5 and t * ratio / (1.0 - ratio) < max(total, 1e-300) * 1e-9:
                total += t * ratio / (1.0 - ratio)
                return total
    except OverflowError:
        pass
    return math.inf


class _Axis:
    """One axis of the box of a lattice sum over v in top + (1/lam) Z^g,
    |v|_inf <= radius: everything that depends on (top_a = p/q, radius,
    lam) and on no float input.  The bottom mu'' is not part of it: the
    sums convert it with float on every call, so tops that differ only
    in their bottoms share their axes.

    ks holds the integers k with |top_a + k/lam| <= radius and v the
    points v_a = top_a + k/lam.  With lam = 1 these are the xi_a of the
    theta series; with lam > 1 they index the finer lattice
    top + (1/lam) Z^g of a shift table.  The bounds are exact integer
    floor divisions on top_a = p/q, and each v is the one correctly
    rounded division (p lam + k q) / (q lam), so it carries a relative
    error of at most u = 2^-53 however large top_a is.

    _plan shares one axis among all calls with its key, so every array
    is read-only.  An axis is built holding only ks, so _plan can refuse
    an oversized box before any array of it exists; v is built on first
    use, and so are powers, which only theta()'s rounding bound reads,
    and phase, which only a shift table's fold reads, so theta() never
    pays for the phase and the stacked values of a relation check never
    pay for powers.
    """

    def __init__(self, p: int, q: int, radius: int, lam: int):
        self.top, self.lam = Fraction(p, q), lam
        self.ks = range(-(lam * (radius * q + p) // q), lam * (radius * q - p) // q + 1)

    @functools.cached_property
    def v(self) -> np.ndarray:
        """(p lam + k q) / (q lam) for each k of ks, top_a = p/q."""
        p, q, k, lam = self.top.numerator, self.top.denominator, self.ks, self.lam
        den = q * lam
        v = np.array([x / den for x in range(p * lam + k.start * q, p * lam + k.stop * q, q)])
        v.flags.writeable = False
        return v

    @functools.cached_property
    def powers(self) -> np.ndarray:
        """The (3, L) table [1, |v|, |v|^2] against which _sums takes the
        moments of theta()'s rounding bound; |v|^2 is the one rounding of
        the product."""
        powers = np.empty((3, len(self.v)))
        powers[0] = 1.0
        np.abs(self.v, out=powers[1])
        np.multiply(powers[1], powers[1], out=powers[2])
        powers.flags.writeable = False
        return powers

    @functools.cached_property
    def phase(self) -> np.ndarray:
        """e[b m / lam] for the shifts b = 0, ..., lam - 1 of this axis,
        m = top_a - lam * int(top_a / lam): as b is an integer, this is
        e[b top_a / lam], with m top_a itself whenever |top_a| < lam and
        the phase exact for any other top_a."""
        lam = self.lam
        m = float(self.top - lam * int(self.top / lam))
        phase = np.exp(TWO_PI * 1j * (np.arange(lam) * m / lam))
        phase.flags.writeable = False
        return phase


_axis = functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)(_Axis)


def _plan(top: Sequence[Fraction], radius: int, lam: int) -> tuple[_Axis, ...]:
    """The axes of the sum over top + (1/lam) Z^g, |v|_inf <= radius, top
    a sequence of exact rationals, from _axis.  Raises _Oversized for a
    box of more than _MAX_BOX_POINTS points."""
    axes = tuple(_axis(m.numerator, m.denominator, radius, lam) for m in top)
    points = math.prod(len(axis.ks) for axis in axes)
    if points > _MAX_BOX_POINTS:
        raise _Oversized(f"the box at radius {radius} has {points} points, "
                         f"above the cap of {_MAX_BOX_POINTS} points", radius)
    return axes


def _on_grid(axes: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The arrays laid along axes 0..g-1 of the broadcast grid, whose
    C-order ravel is the lexicographic order of the points.  An axis
    array of shape (len_a, R) holds R rows' values, and its grid keeps
    the row axis last."""
    g = len(axes)
    return [x.reshape(x.shape[:1] + (1,) * (g - 1 - a) + x.shape[1:]) for a, x in enumerate(axes)]


def _quadratic(v: Sequence[np.ndarray], quad: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """sum_a v_a (quad_aa v_a / 2 + lin_a + sum_{b>a} quad_ab v_b) on the
    broadcast grid of the axis arrays v, accumulated from the last axis.
    For R stacked rows (axis arrays of shape (len_a, R)), quad has shape
    (g, g, R) and lin (g, R): every element takes the operations of its
    one-row sum, with its row's coefficients."""
    v = _on_grid(v)
    total = 0.0
    for a in reversed(range(len(v))):
        inner = 0.5 * quad[a, a] * v[a] + lin[a]
        for b in range(a + 1, len(v)):
            inner = inner + quad[a, b] * v[b]
        total = v[a] * inner + total
    return total


def _grid_terms(v: Sequence[np.ndarray], shift: np.ndarray, tau: np.ndarray,
                padded: bool = False) -> np.ndarray:
    """Series terms e[(1/2) v tau . v + v . shift] on the broadcast grid of
    the axis arrays v: the exponent P from _quadratic, with 2 pi i folded
    into tau and shift before the grid is formed, then the complex exp
    of P where Re P > _SKIP_EXPONENT and an exact zero where Re P is at
    or below it; _sums bounds the terms so skipped.  A NaN exponent is
    exponentiated, so it still shows in the sum.  The terms replace the
    exponent in place.

    With padded, the N terms of each row are exponentiated instead
    straight into the first N slots of the halving sum's zero-filled
    buffer of 2^L, L = ceil(log2 N), raveled along the point axis
    (_halving_sum), and that buffer is returned.  It is allocated once
    the exponent's temporaries are freed, so the peak memory of a sum
    stays that of its exponent."""
    p = _quadratic(v, (TWO_PI * 1j) * tau, (TWO_PI * 1j) * shift)
    if padded:
        n = math.prod(len(x) for x in v)
        buf = np.zeros((1 << (n - 1).bit_length(),) + shift.shape[1:], dtype=complex)
        np.exp(p, out=buf[:n].reshape(p.shape), where=~(p.real <= _SKIP_EXPONENT))
        return buf
    skip = p.real <= _SKIP_EXPONENT
    np.exp(p, out=p, where=~skip)
    p[skip] = 0
    return p


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u): the relative error of n roundings."""
    return n * _U / (1.0 - n * _U)


def _halving_sum(buf: np.ndarray) -> np.ndarray:
    """The sums along the first axis of a complex buffer of 2^L terms,
    zero-padded, in a fixed pairwise order: L times the upper half of the
    buffer is added onto its lower half, in place.  For a (2^L, R) buffer
    of R stacked rows, each row's sum is by the same additions as that
    row alone.  Every term passes through exactly L additions, so the
    real and imaginary parts of the result are each within
    gamma_L * sum |part| of the exact sum (Higham, Accuracy and Stability
    of Numerical Algorithms, 2nd ed., section 4.2).
    """
    n = len(buf)
    while n > 1:
        n //= 2
        buf[:n] += buf[n : 2 * n]
    return buf[0]


def _sums(v: Sequence[np.ndarray], shift: np.ndarray, tau: np.ndarray,
          s: np.ndarray | None = None,
          powers: Sequence[np.ndarray] | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """(values, bounds): the sum of the series terms e[(1/2) v tau . v +
    v . shift] over the broadcast grid of the axis arrays v, for one row
    (each v_a of shape (len_a,), shift (g,), tau (g, g)) or for R rows
    stacked along a last axis of every array ((len_a, R), (g, R),
    (g, g, R)), each row's sum and bound by the operations of its
    one-row call.  bounds is None unless s, the weights below for each
    row, shaped as shift, and powers, the per-axis tables [1, |v_a|,
    |v_a|^2] of shape (3,) + v_a.shape (the powers of a plan's axes), are
    given.

    The terms are exponentiated straight into the zero-padded buffer of
    the halving sum (_grid_terms), and the sizes below are taken from it
    before it is halved.

    A bound bounds |value - S|, S the exact sum of the same terms, with z
    and tau taken as the exact values of their floats and mu exact.  Each
    term is t = e^P, where the exponent P = 2 pi i ((1/2) v tau . v +
    v . (z + mu'')) is a sum of products of 2 pi i with entries of v,
    tau, z and mu''.  As _quadratic computes it, every product passes
    through at most g + 7 roundings (2 for 2 pi i times an entry, 2 for
    each factor v_a: its division and its product, and g + 1 additions),
    so

        |P_hat - P| <= k M,   k = gamma_{g+7} * 2 pi,
        M = sum_a |v_a| (w_aa |v_a| / 2 + s_a + sum_{b>a} w_ab |v_b|),

    with w = |Re tau| + |Im tau| and s_a = |Re z_a| + |Im z_a| + |mu''_a|.
    A term whose Re P_hat is above T = _SKIP_EXPONENT is kept: then
    |e^P_hat - e^P| <= |e^P_hat| * expm1(|P_hat - P|), and the complex
    exp adds at most 10u to each part (exp, cos and sin each within
    2 ulps; glibc's are within 1).  Any other term is skipped, a zero
    in the sum (_grid_terms), so its whole exact value is error, and
    |e^P| <= e^(Re P_hat + |P_hat - P|) <= e^T (1 + expm1(k M)).  With
    size_t = |Re t| + |Im t| + e^T of the computed terms (|t|_1 = 0 for a
    skipped one), c = gamma_L + 10u for the halving sum of depth L and
    x_t = expm1(k M_t) of each term, the error is at most

        sum over all N terms of size_t (c + x_t) + N e^T:

    a kept term takes |t|_1 (c + x_t) of it, its rounding, and a skipped
    one e^T (1 + c + x_t), more than its mass.  Each kept term also adds
    e^T (1 + c + x_t), at most about N e^T in all: under 1e-17 for a box
    of 50,000 points and 4.1e-15 for a box at _MAX_BOX_POINTS.

    The x_t are bounded without a grid of weights.  expm1 is convex and
    0 at 0, so expm1(x) / x is nondecreasing for x > 0, and M is
    nondecreasing in each |v_a|, so every x_t <= F k M_t with F =
    expm1(Y) / Y, Y = k M at the box corner |v_a| = max over the axis:
    every term keeps its own weight M_t, and F = 1 + Y/2 + O(Y^2).
    The sum of size_t M_t is exactly

        sum_a (w_aa m[2 e_a] / 2 + s_a m[e_a]) + sum_{a<b} w_ab m[e_a + e_b],

    with the moments m[alpha] = sum_t size_t prod_a |v_a|^alpha_a of the
    size grid, and m[0] the sum of the sizes.  They come from g matrix
    products of the size grid with the tables powers, one axis at a
    time, which give every m[alpha] with alpha in {0, 1, 2}^g.  So the
    bound is

        1.01 * (c m[0] + F k sum_t size_t M_t + N e^T).

    Every moment is a sum of products of non-negative floats, whose
    computed value is within a relative gamma_n of it, n the sum of the
    axis lengths, whatever the order of summation BLAS takes (Higham
    2002, sections 3.1 and 3.3): under 1e-13 for any box under the cap.
    The factor 1.01 covers those sums, the rounding of the sizes, of the
    tables, of M at the corner, of F and of e^T.  F is inf when expm1(Y)
    overflows (Y > 709.78), and then so is the bound.  Where Y is 0 or
    inf, or a term is NaN, the bound is NaN or inf, and it is reported
    as inf.  A stacked row's bound is taken alone, from contiguous copies
    of its size grid and tables, as its one-row call takes it, so matrix
    products of other shapes never sum it in another order.

    No term underflows, so the bound has no clause for subnormals: a
    kept term is above about e^T = 1.9e-22 in modulus, and each of its
    parts, that modulus times a cosine or sine of a float, which is
    never below 1e-19 in magnitude unless it is zero, is a normal float;
    a sum of normal floats that is subnormal is exact.
    """
    rows = shift.shape[1:]
    grid = tuple(len(x) for x in v)
    n = math.prod(grid)
    buf = _grid_terms(v, shift, tau, True)
    if s is not None:
        skip = math.exp(_SKIP_EXPONENT)
        size = np.abs(buf.real[:n]) + np.abs(buf.imag[:n]) + skip
    values = _halving_sum(buf)
    if s is None:
        return values, None
    c, k = _gamma((n - 1).bit_length()) + 10.0 * _U, _gamma(len(v) + 7) * TWO_PI
    if not rows:
        return values, _moment_bound(size.reshape(grid), powers, tau, s, c, k, n * skip)
    bounds = []
    for r in range(rows[0]):
        size_r, tau_r, *powers_r = (np.ascontiguousarray(x[..., r]) for x in (size, tau, *powers))
        bounds.append(_moment_bound(size_r.reshape(grid), powers_r, tau_r, s[..., r], c, k,
                                    n * skip))
    return values, np.array(bounds)


def _moment_bound(size: np.ndarray, powers: Sequence[np.ndarray], tau: np.ndarray,
                  s: Sequence[float], c: float, k: float, skipped: float) -> float:
    """1.01 (c m[0] + F k sum_t size_t M_t + skipped) for one row: its size
    grid, its contiguous (3, len_a) tables, tau (g, g) and s (g); _sums
    derives it.  Each product contracts the leading axis of the grid and
    appends an axis of the three powers, so after g of them the moments
    lie in C order over {0, 1, 2}^g, axis 0 most significant: m[e_a] at
    3^(g-1-a).  The rest, a few dozen scalars, is taken in Python floats:
    the moment form of sum_t size_t M_t and M at the corner x, each as
    M is formed (_sums)."""
    m = size
    for p in powers:
        m = m.reshape(p.shape[1], -1).T @ p.T
    m = m.ravel().tolist()
    g = len(powers)
    at = [3 ** (g - 1 - a) for a in range(g)]
    w = [[abs(x.real) + abs(x.imag) for x in row] for row in tau.tolist()]
    s = list(map(float, s))
    x = [float(max(p[1, 0], p[1, -1])) for p in powers]
    weighted = corner = 0.0
    for a in range(g):
        moment = 0.5 * w[a][a] * m[2 * at[a]] + s[a] * m[at[a]]
        inner = 0.5 * w[a][a] * x[a] + s[a]
        for b in range(a + 1, g):
            moment += w[a][b] * m[at[a] + at[b]]
            inner += w[a][b] * x[b]
        weighted += moment
        corner += x[a] * inner
    y = k * corner
    try:
        f = math.expm1(y) / y
    except (OverflowError, ZeroDivisionError):
        f = math.inf
    bound = 1.01 * (c * m[0] + f * k * weighted + skipped)
    # A NaN, from a NaN term or from inf / inf, bounds nothing: inf does.
    return bound if bound < math.inf else math.inf


def _box_sum(
    mu_top: Sequence[Fraction],
    mu_bottom: Sequence[Fraction],
    z: np.ndarray,
    tau: np.ndarray,
    radius: int,
) -> tuple[complex, float]:
    """(value, rounding_bound) of the sum of the series terms over the box
    max_a |xi_a + mu'_a| <= radius: one row of _sums, whose docstring
    derives the bound.  The shift is numpy's complex + float add, as in
    _block_rows; the weights s are Python floats."""
    bottom = [float(m) for m in mu_bottom]
    plan = _plan(mu_top, radius, 1)
    value, bound = _sums([axis.v for axis in plan], z + np.array(bottom), tau,
                         [abs(x.real) + abs(x.imag) + abs(b) for x, b in zip(z.tolist(), bottom)],
                         [axis.powers for axis in plan])
    return complex(value), bound


def _search(z: np.ndarray, tau: PeriodMatrix, radii: Sequence[int]) -> tuple[int, float]:
    """(radius, tail envelope): the first of radii whose envelope at
    |Im z|_2 meets TARGET_ABS_ERROR.  It depends on Im z and tau.lam_min
    only, never on the characteristic.  Raises TruncationError when no
    radius does."""
    # As np.linalg.norm takes it, without its per-call set-up: the square
    # root of the dot product of a contiguous copy (a strided dot may
    # add in another order).
    y = z.imag.ravel()
    y_norm = math.sqrt(y.dot(y))
    for radius in radii:
        bound = _tail_envelope(radius, tau.lam_min, y_norm, tau.genus)
        if bound <= TARGET_ABS_ERROR:
            return radius, bound
    raise TruncationError(TARGET_ABS_ERROR, bound, radius)


def _check_row(top: Sequence[Fraction], z: np.ndarray, g: int, finite: bool = False) -> None:
    """Raises ValueError unless top and z are of genus g and z, unless
    known to be, is finite."""
    if len(top) != g or z.shape != (g,):
        raise ValueError(f"genus mismatch: characteristic {len(top)}, z {z.shape}, tau {g}")
    if not finite and not np.isfinite(z).all():
        raise ValueError("argument z must be finite")


class _Row(tuple):
    """One lattice sum, (plan, shift, tau): the axes of its box, z + mu''
    and the tau entries, with the radius of the box and the tail
    envelope at that radius as the attributes radius and envelope."""

    def __new__(cls, plan, shift, tau, radius: int, envelope: float):
        row = tuple.__new__(cls, (plan, shift, tau))
        row.radius, row.envelope = radius, envelope
        return row


def _side(chars: Sequence[Characteristic], lam: int, settings: EvalSettings) -> tuple:
    """What _block_rows takes from the characteristics mu_j alone, in its
    order: their tops, their float bottoms as an (n, g) array, lam, a
    dict for the plan of each (j, radius), holding those of the first
    radius the search tries, and those radii (settings._radii).  A caller
    derives a side once and hands it to every block it builds, so each
    plan is built once.  Raises _Oversized, before any array of a sum is
    allocated, for a box of the first radius over _MAX_BOX_POINTS
    (_plan), and then for n shift tables of lam^(2g) entries each that
    would need more than _MAX_SIDE_BYTES."""
    tops, radius = [m.top for m in chars], settings._radii[0]
    plans = {(j, radius): _plan(top, radius, lam) for j, top in enumerate(tops)}
    entries = lam ** (2 * len(tops[0]))
    need = (_HELD_BYTES * len(tops) + _FOLD_BYTES) * entries
    if need > _MAX_SIDE_BYTES:
        raise _Oversized(f"{len(tops)} shift tables of {entries} entries would need {need} "
                         f"bytes, above the cap of {_MAX_SIDE_BYTES} bytes", radius)
    bottoms = np.array([[float(v) for v in m.bottom] for m in chars])
    return tops, bottoms, lam, plans, settings._radii


def _block_rows(
    z: np.ndarray,
    tau: PeriodMatrix,
    tops: Sequence[Sequence[Fraction]],
    bottoms: np.ndarray,
    lam: int,
    plans: dict,
    radii: Sequence[int],
) -> list[_Row]:
    """The rows of the characteristics mu_j, j in order, at the rows z_j
    of the (n, g) complex block z: the sum of theta_mu_j(z_j, tau) for
    lam = 1, or of the shift table of (mu_j, z_j, tau, lam), each at the
    first of radii whose tail envelope meets TARGET_ABS_ERROR.  The parts
    after tau are a _side of the mu_j; plans holds the plan of each
    (j, radius) built so far, and this call extends it.  One finiteness
    check and one add of bottoms serve the block.  Raises ValueError for
    a row of another genus or a non-finite row, and TruncationError for
    a row whose search fails, at the first such row."""
    finite, found = np.isfinite(z).all(), []
    for j, (top, zj) in enumerate(zip(tops, z)):
        _check_row(top, zj, tau.genus, finite)
        radius, envelope = _search(zj, tau, radii)
        plan = plans.get((j, radius))
        if plan is None:
            plan = plans[j, radius] = _plan(top, radius, lam)
        found.append((plan, radius, envelope))
    return [_Row(plan, shift, tau.entries, radius, envelope)
            for (plan, radius, envelope), shift in zip(found, z + bottoms)]


def theta(
    mu: Characteristic,
    z,
    tau: PeriodMatrix,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> ThetaValue:
    """Evaluate theta_mu(z, tau) with a bound on its absolute error.

    z may be a complex scalar (genus 1) or a length-g complex vector.
    The box radius is the first whose tail envelope meets
    TARGET_ABS_ERROR; tail_bound is that envelope plus the rounding
    bound of the box sum (see _sums), so it bounds |value - theta|
    whatever the rounding contributes.  Raises TruncationError when no
    radius up to settings.max_radius brings the envelope below
    TARGET_ABS_ERROR, and, with best_bound inf at its radius, when the
    value is not a finite number.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    _check_row(mu.top, z, tau.genus)
    radius, envelope = _search(z, tau, settings._radii)
    value, rounding = _box_sum(mu.top, mu.bottom, z, tau.entries, radius)
    if not cmath.isfinite(value):
        raise TruncationError(TARGET_ABS_ERROR, math.inf, radius)
    return ThetaValue(value, radius, envelope + rounding)


def theta_shift_table(
    nu: Characteristic,
    w,
    tau: PeriodMatrix,
    lam: int,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> np.ndarray:
    """theta_{nu+a}(w, tau) for all lam^(2g) shifts a = (c/lam; b/lam).

    c and b run over {0, ..., lam-1}^g; the values come back flat in
    enumerate_shifts order (c major, b minor).  Every theta_{nu+a} sums
    over v = nu' + k/lam with k = c (mod lam), so all of them are
    sub-sums of one sum over the box |v|_inf <= R:

        theta_{nu+a}(w) = e[nu'.b/lam] * sum over k = c (mod lam) of
                          T(k) * e[k.b/lam^2],
        T(k) = e[(1/2) v tau . v + v . (w + nu'')].

    The terms T(k) are computed once, by the grid kernel theta() uses,
    and folded one axis at a time (_fold): with k = lam (k0 div lam + u)
    + c, k0 the first k of the axis, a sum over u of
    e[(k0 div lam + u) b / lam] and the twiddle e[c b / lam^2 + nu'_a b
    / lam]; the ranges of k and the phases come from the cached axes
    (nu'_a, R, lam) of _plan.  R comes from the same search as
    theta(), so each entry sums exactly the points theta(nu + a, w)
    sums, and its omitted tail, the same coset's points outside the box
    times unit-modulus phases, is bounded by the same envelope.  An entry
    also omits the in-box terms of its coset whose exponent has a real
    part at or below _SKIP_EXPONENT (_grid_terms), as theta() does; a
    bound of an entry must add their mass, e^_SKIP_EXPONENT times the
    error factor of each one's exponent, as _sums adds it for theta().
    Raises TruncationError exactly when theta(nu + a, w) would.
    """
    if lam < 1:
        raise ValueError(f"need lambda >= 1, got {lam}")
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    return _shift_tables(_block_rows(w[None], tau, *_side([nu], lam, settings)))[0]


def _stacks(rows: Sequence[_Row]) -> Iterator[tuple]:
    """(indices, plans, v, shifts, taus) for each stack of rows: rows of
    one lam and box shape, in order, at most _STACK_POINTS points
    together (or one row), their plans, and their axis arrays, shifts
    and tau entries stacked along a last axis, as _sums and _grid_terms
    take R rows."""
    groups: dict[tuple, list[int]] = {}
    for i, (plan, _, _) in enumerate(rows):
        groups.setdefault((plan[0].lam, tuple(len(axis.v) for axis in plan)), []).append(i)
    for (_, shape), group in groups.items():
        step = max(1, _STACK_POINTS // math.prod(shape))
        for start in range(0, len(group), step):
            index = group[start : start + step]
            plans, shifts, taus = zip(*map(rows.__getitem__, index))
            v = [np.stack([axis.v for axis in axes], axis=1) for axes in zip(*plans)]
            yield index, plans, v, np.stack(shifts, axis=1), np.stack(taus, axis=2)


def _theta_values(rows: Sequence[_Row]) -> list[complex]:
    """theta_mu(z, tau).value of each row of lam = 1, bit for bit: each
    stack summed by _sums."""
    values = np.empty(len(rows), dtype=complex)
    for index, _, *stack in _stacks(rows):
        values[index] = _sums(*stack)[0]
    return values.tolist()


def _shift_tables(rows: Sequence[_Row]) -> list[np.ndarray]:
    """The theta_shift_table of each row, bit for bit: each stack's tables
    from _fold."""
    tables: dict[int, np.ndarray] = {}
    for index, plans, *stack in _stacks(rows):
        tables.update(zip(index, _fold(plans, *stack)))
    return [tables[i] for i in range(len(rows))]


def _fold(plans: Sequence[tuple[_Axis, ...]], v: Sequence[np.ndarray], shift: np.ndarray,
          tau: np.ndarray) -> np.ndarray:
    """The (R, lam^(2g)) tables of a stack of R rows, its grid of terms
    folded one axis at a time.  The rows go into a zero buffer, rows
    first, each left-padded by k0 mod lam, k0 = ks.start, so that slot
    lam u + c holds k = lam (q + u) + c, q = k0 div lam; then one
    np.matmul, batched over the rows at each table's one-row shape,
    contracts u against e[(q + u) b / lam], which is exactly 1 on the
    block of k = 0, where a small top's largest terms lie.  Once every
    axis is folded, each is twiddled by e[c b / lam^2] times its phase,
    elementwise over the stack."""
    lam, count, g = plans[0][0].lam, len(plans), len(plans[0])
    b = np.arange(lam)
    roots = np.exp((TWO_PI * 1j / lam**2) * np.arange(lam**2))
    x = np.moveaxis(_grid_terms(v, shift, tau), -1, 0)
    for axes in zip(*plans):
        # x is (row, k, rest) and leaves as (row, rest, b, c); u blocks
        # of lam slots hold the axis whatever its pad.
        rest, u = x.shape[2:], (x.shape[1] + 2 * lam - 2) // lam
        buf = np.zeros((count, lam * u) + rest, dtype=complex)
        slots = np.lib.stride_tricks.as_strided(  # [r, p] is row r from slot p on
            buf, (count, lam) + x.shape[1:], buf.strides[:2] + buf.strides[1:])
        slots[np.arange(count), [axis.ks.start % lam for axis in axes]] = x
        x = buf.reshape(count, u, -1).transpose(0, 2, 1)
        del buf, slots  # the terms, and then the buffer, go once read
        # Block u of row r holds k = lam (q + u) + c, q = k0 div lam.  Its
        # e[(q + u) b / lam] are gathered from roots; a named index would
        # stay alive through the gather, 8 more bytes a point at lam = 3.
        q = [axis.ks.start // lam % lam for axis in axes]
        x = np.matmul(x, roots[lam * (np.multiply.outer(np.add.outer(q, range(u)) % lam, b) % lam)])
        x = np.moveaxis(x.reshape((count, lam) + rest + (lam,)), 1, -1)
    for a, axes in enumerate(zip(*plans)):
        twiddle = roots[np.outer(b, b)] * np.stack([axis.phase for axis in axes])[:, :, None]
        x *= twiddle.reshape((count,) + (1, 1) * a + (lam, lam) + (1, 1) * (g - 1 - a))
    return x.transpose(0, *range(2, 2 * g + 1, 2), *range(1, 2 * g, 2)).reshape(count, -1)


def theta_constant(
    mu: Characteristic,
    tau: PeriodMatrix,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> ThetaValue:
    """The theta constant theta_mu(0, tau)."""
    return theta(mu, np.zeros(tau.genus, dtype=complex), tau, settings)


def char_shift_phase(mu: Characteristic, k_bottom: Sequence[int]) -> complex:
    """Root of unity e[mu' . k''] picked up when the bottom characteristic
    is shifted by the integer vector k''."""
    ks = [int(k) for k in k_bottom]
    if len(ks) != mu.genus:
        raise ValueError(f"expected {mu.genus} integers, got {len(ks)}")
    dot = sum(m * k for m, k in zip(mu.top, ks)) % 1
    return complex(np.exp(TWO_PI * 1j * float(dot)))
