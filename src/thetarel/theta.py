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
and one complex exp; the grid ravels in lexicographic order.  theta()
sums the terms by halving (zero-pad to 2^L, then add the upper half
onto the lower half L times), whose rounding error is within
gamma_L * sum (|Re t| + |Im t|) (Higham 2002, section 4.2); _box_sum
states the full bound.  The order is fixed, so results are
reproducible bit-for-bit for identical inputs and settings.

theta_shift_table evaluates theta_{nu+a}(w) for all lambda^(2g) shifts
a in ((1/lambda) Z / Z)^(2g) from one such sum over the finer lattice
nu' + (1/lambda) Z^g, with the same radius and tail envelope.

What a sum needs of the top mu' alone (the per-axis v arrays and, for
a shift table, the residue bins and the per-axis root-of-unity mixing
matrices) is a plan, built by _plan from the key (mu', radius, lambda)
and kept in a process-wide least-recently-used cache of
_PLAN_CACHE_SIZE plans; the bins of a box of more than _KEPT_BIN_POINTS
points are built on each use and not kept.  The key holds exact
rationals and integers only; no cache holds a float input, so z, tau
and the float mu'' are used afresh on every call, and characteristics
that differ only in mu'' share one plan.  A plan is built by the same operations whether
it comes from the cache or not, and its arrays are read-only, so every
result is bit-identical cold or warm.  The bins and the phases are
exact for a top of any size; a large mu'' still loses the digits of
its float.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
# Lattice-sum plans kept by _plan.  A relation check of n <= 8 at one
# radius needs at most 2n (n theta() keys and n shift-table keys).  A
# theta() plan is < 1 kB.  A shift-table plan's bins take 8 bytes per box
# point: 2 kB at (n, g) = (3, 1) and 130 kB at (3, 3) at radius 4, and
# 7.3 MB at (3, 3) at radius 16 (912673 points).  A plan keeps them only
# for a box of at most _KEPT_BIN_POINTS points, 0.5 MB, so the 16 plans
# keep at most 8 MB of bins; a larger box builds its bins on each call,
# which took 4% to 10% of the time of that call's grid of terms (1.8 MB
# of bins at (5, 3) at radius 6, 7.3 MB at (3, 3) at radius 16).  The
# other arrays of a plan take 8 bytes per box row and 16 lam^4 bytes per
# axis.
_PLAN_CACHE_SIZE = 16
_KEPT_BIN_POINTS = 2**16


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
        if not np.array_equal(arr, arr.T):
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
    margin = 8.0 * y.shape[0] * np.finfo(float).eps * float(np.abs(eig).max())
    return float(eig[0]) - margin


@dataclass(frozen=True)
class EvalSettings:
    """Radius cap for the truncated lattice sum."""

    max_radius: int = 32

    def __post_init__(self):
        if not 1 <= self.max_radius <= 64:
            raise ValueError("max_radius must be in [1, 64]")


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
    """
    if radius < y_norm / lam_min:
        return math.inf
    total = 0.0
    try:
        for k in range(_SHELL_CAP):
            r = float(radius + k)
            t = (2.0 * r + 3.0) ** g * math.exp(-math.pi * lam_min * r * r + TWO_PI * r * y_norm)
            total += t
            # Envelope ratio between consecutive shells, polynomial factor
            # bounded by (5/3)^g <= 3^g for r >= 1.
            ratio = 3.0 ** g * math.exp(-math.pi * lam_min * (2.0 * r + 1.0) + TWO_PI * y_norm)
            if ratio < 0.5 and t * ratio / (1.0 - ratio) < max(total, 1e-300) * 1e-9:
                total += t * ratio / (1.0 - ratio)
                return total
            if t == 0.0:
                return total
    except OverflowError:
        pass
    return math.inf


class _Plan:
    """The exact part of one lattice sum over v in top + (1/lam) Z^g,
    |v|_inf <= radius: everything that depends on (top, radius, lam) and
    on no float input.  The bottom mu'' is not part of it: the sums
    convert it with float on every call, so tops that differ only in
    their bottoms share one plan.

    Per axis a, ks[a] holds the integers k with |top_a + k/lam| <= radius
    and v[a] the points v_a = top_a + k/lam.  With lam = 1 these are the
    xi of the theta series; with lam > 1 they index the finer lattice
    top + (1/lam) Z^g of a shift table.  The bounds are exact integer
    floor divisions on top_a = p/q, and each v is the one correctly
    rounded division (p lam + k q) / (q lam), so it carries a relative
    error of at most u = 2^-53 however large top_a is.

    _plan shares one plan among all calls with its key, so every array
    is read-only.  The shift-table fields are built on first use, so
    theta() never pays for them.
    """

    def __init__(self, top, radius: int, lam: int):
        self.top, self.lam, self.ks, v = top, lam, [], []
        for m in top:
            p, q = m.numerator, m.denominator
            k = range(-(lam * (radius * q + p) // q), lam * (radius * q - p) // q + 1)
            self.ks.append(k)
            # (p lam + j q) / (q lam) for each j in k.
            den = q * lam
            axis = np.array([x / den for x in range(p * lam + k.start * q, p * lam + k.stop * q, q)])
            axis.flags.writeable = False
            v.append(axis)
        self.v = tuple(v)

    @property
    def bins(self) -> np.ndarray:
        """The bincount bin of every grid point, in ravel order: its
        residues k_a mod lam^2 read as base-lam^2 digits, axis 0 first.
        The residues are taken of the offsets from k.start, so they fit
        in int64 however large top_a, and so k.start, is.

        They take 8 bytes per grid point, so they are kept on the plan,
        under this name, only for a box of at most _KEPT_BIN_POINTS
        points; a larger box gets them built afresh, by the same
        operations, on each use."""
        bins = vars(self).get("bins")
        if bins is None:
            sq, g = self.lam * self.lam, len(self.ks)
            residues = [(np.arange(len(k)) + k.start % sq) % sq * sq ** (g - 1 - a)
                        for a, k in enumerate(self.ks)]
            bins = sum(_on_grid(residues)).ravel()
            bins.flags.writeable = False
            if bins.size <= _KEPT_BIN_POINTS:
                vars(self)["bins"] = bins
        return bins

    @functools.cached_property
    def mixes(self) -> tuple[np.ndarray, ...]:
        """Per axis a, the lam^2 x lam^2 mixing matrix as an array
        [r, c, b] -> [r = c (mod lam)] * e[b (r/lam + top_a) / lam]: it
        picks the coset c of the residue r and applies the phase of the
        shift b.  As b is an integer, e[b top_a / lam] is taken of
        top_a - lam * int(top_a / lam), which is top_a itself whenever
        |top_a| < lam and keeps the phase exact for any other top_a."""
        lam, sq = self.lam, self.lam * self.lam
        r = np.arange(sq)[:, None, None]
        c = np.arange(lam)[None, :, None]
        b = np.arange(lam)[None, None, :]
        mixes = tuple(
            np.where(r % lam == c, np.exp(TWO_PI * 1j * ((r * b) % sq / sq + b * m / lam)), 0)
            for m in (float(t - lam * int(t / lam)) for t in self.top)
        )
        for mix in mixes:
            mix.flags.writeable = False
        return mixes


# The plan of the sum over top + (1/lam) Z^g, |v|_inf <= radius, for
# _plan(top, radius, lam) with top a tuple of exact rationals.
_plan = functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)(_Plan)


def _on_grid(axes: Sequence[np.ndarray]) -> list[np.ndarray]:
    """The 1-D arrays laid along axes 0..g-1 of the broadcast grid, whose
    C-order ravel is the lexicographic order of the points."""
    g = len(axes)
    return [x.reshape((-1,) + (1,) * (g - 1 - a)) for a, x in enumerate(axes)]


def _quadratic(v: Sequence[np.ndarray], quad: np.ndarray, lin: np.ndarray) -> np.ndarray:
    """sum_a v_a (quad_aa v_a / 2 + lin_a + sum_{b>a} quad_ab v_b) on the
    broadcast grid of the axis arrays v, accumulated from the last axis."""
    v = _on_grid(v)
    total = 0.0
    for a in reversed(range(len(v))):
        inner = 0.5 * quad[a, a] * v[a] + lin[a]
        for b in range(a + 1, len(v)):
            inner = inner + quad[a, b] * v[b]
        total = v[a] * inner + total
    return total


def _grid_terms(v: Sequence[np.ndarray], shift: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Series terms e[(1/2) v tau . v + v . shift] on the broadcast grid of
    the axis arrays v, from one complex exp; 2 pi i is folded into tau
    and shift before the grid is formed."""
    return np.exp(_quadratic(v, (TWO_PI * 1j) * tau, (TWO_PI * 1j) * shift))


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u): the relative error of n roundings."""
    return n * _U / (1.0 - n * _U)


def _halving_sum(terms: np.ndarray) -> tuple[complex, int]:
    """(sum, L) of a 1-D complex array in a fixed pairwise order.

    The terms are zero-padded to 2^L, L = ceil(log2 N); then L times the
    upper half of the buffer is added onto its lower half.  Every term
    passes through exactly L additions, so the real and imaginary parts
    of the result are each within gamma_L * sum |part| of the exact sum
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 4.2).
    """
    depth = (terms.size - 1).bit_length()
    buf = np.zeros(1 << depth, dtype=complex)
    buf[: terms.size] = terms
    n = buf.size
    while n > 1:
        n //= 2
        buf[:n] += buf[n : 2 * n]
    return complex(buf[0]), depth


def _box_sum(
    mu_top: Sequence[Fraction],
    mu_bottom: Sequence[Fraction],
    z: np.ndarray,
    tau: np.ndarray,
    radius: int,
) -> tuple[complex, float]:
    """Sum of the series terms over the box max_a |xi_a + mu'_a| <= radius.

    Returns (value, rounding_bound).  rounding_bound bounds |value - S|,
    S the exact sum of the same terms, with z and tau taken as the exact
    values of their floats and mu exact.  Each term is t = e^P, where the
    exponent P = 2 pi i ((1/2) v tau . v + v . (z + mu'')) is a sum of
    products of 2 pi i with entries of v, tau, z and mu''.  As _quadratic
    computes it, every product passes through at most g + 7 roundings
    (2 for 2 pi i times an entry, 2 for each factor v_a: its division
    and its product, and g + 1 additions), so

        |P_hat - P| <= gamma_{g+7} * 2 pi * M,
        M = sum_a |v_a| (w_aa |v_a| / 2 + s_a + sum_{b>a} w_ab |v_b|),

    with w = |Re tau| + |Im tau| and s_a = |Re z_a| + |Im z_a| + |mu''_a|.
    Then |e^P_hat - e^P| <= |e^P_hat| * expm1(|P_hat - P|), and the
    complex exp adds at most 10u to each part (exp, cos and sin each
    within 2 ulps; glibc's are within 1).  With |t|_1 = |Re t| + |Im t|
    and the halving sum of depth L, the bound is

        1.01 * sum over terms of |t|_1 (gamma_L + 10u
                                        + expm1(gamma_{g+7} 2 pi M))
        + N * 2^-1070,

    where the factor 1.01 covers the rounding of the bound itself and of
    M, and the last term the terms that underflow to subnormals.
    """
    plan = _plan(tuple(mu_top), radius, 1)
    bottom = np.array([float(m) for m in mu_bottom])
    terms = _grid_terms(plan.v, z + bottom, tau).ravel()
    value, depth = _halving_sum(terms)
    weight = _quadratic(
        [np.abs(v) for v in plan.v],
        np.abs(tau.real) + np.abs(tau.imag),
        np.abs(z.real) + np.abs(z.imag) + np.abs(bottom),
    ).ravel()
    size = np.abs(terms.real) + np.abs(terms.imag)
    # An exponent error beyond expm1's range leaves no accuracy to claim:
    # the bound is then inf, also where the term underflowed (0 * inf).
    with np.errstate(over="ignore", invalid="ignore"):
        per_term = _gamma(depth) + 10.0 * _U + np.expm1(_gamma(len(plan.v) + 7) * TWO_PI * weight)
        bound = 1.01 * float((size * per_term).sum()) + terms.size * 2.0**-1070
    return value, math.inf if math.isnan(bound) else bound


def _truncation(
    mu: Characteristic, z, tau: PeriodMatrix, settings: EvalSettings
) -> tuple[np.ndarray, int, float]:
    """Validated argument vector, truncation radius and tail envelope.

    The radius is the first of 4, 6, 8, ... below settings.max_radius,
    then settings.max_radius itself, whose envelope meets
    TARGET_ABS_ERROR; it depends on Im z and tau.lam_min only, never on
    the characteristic.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    g = tau.genus
    if mu.genus != g or z.shape != (g,):
        raise ValueError(
            f"genus mismatch: characteristic {mu.genus}, z {z.shape}, tau {g}"
        )
    if not np.isfinite(z).all():
        raise ValueError("argument z must be finite")
    y_norm = float(np.linalg.norm(z.imag))
    for radius in [*range(4, settings.max_radius, 2), settings.max_radius]:
        bound = _tail_envelope(radius, tau.lam_min, y_norm, g)
        if bound <= TARGET_ABS_ERROR:
            return z, radius, bound
    raise TruncationError(TARGET_ABS_ERROR, bound, radius)


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
    bound of the box sum (see _box_sum), so it bounds |value - theta|
    whatever the rounding contributes.  Raises TruncationError when no
    radius up to settings.max_radius brings the envelope below
    TARGET_ABS_ERROR.
    """
    z, radius, bound = _truncation(mu, z, tau, settings)
    value, rounding = _box_sum(mu.top, mu.bottom, z, tau.entries, radius)
    return ThetaValue(value, radius, bound + rounding)


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
    and binned by the per-axis residues k_a mod lam^2; per axis,
    one lam^2 x lam^2 root-of-unity matrix then picks the coset and
    applies the phase; the bins and those matrices come from the cached
    plan of (nu', R, lam).  R comes from the same search as
    theta(), so each entry sums exactly the points theta(nu + a, w)
    sums, and its omitted tail, the same coset's points outside the box
    times unit-modulus phases, is bounded by the same envelope.  Raises
    TruncationError exactly when theta(nu + a, w) would.
    """
    if lam < 1:
        raise ValueError(f"need lambda >= 1, got {lam}")
    w, radius, _ = _truncation(nu, w, tau, settings)
    g = tau.genus
    sq = lam * lam
    plan = _plan(nu.top, radius, lam)
    bottom = np.array([float(m) for m in nu.bottom])
    terms = _grid_terms(plan.v, w + bottom, tau.entries).ravel()
    table = (
        np.bincount(plan.bins, terms.real, sq**g) + 1j * np.bincount(plan.bins, terms.imag, sq**g)
    ).reshape((sq,) * g)
    for mix in plan.mixes:
        # The contracted axis is always the leading one, the new (c, b)
        # pair goes to the end.
        table = np.tensordot(table, mix, axes=(0, 0))
    order = list(range(0, 2 * g, 2)) + list(range(1, 2 * g, 2))
    return table.transpose(order).reshape(-1)


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
