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
envelope floored at the rounding-noise level of the computed sum, making
it a bound on the total absolute error.

Summation is vectorised and then accumulated with exactly-rounded
compensated summation (math.fsum on real and imaginary parts), in a
fixed lexicographic box order, so results are reproducible bit-for-bit
for identical inputs and settings.

theta_shift_table evaluates theta_{nu+a}(w) for all lambda^(2g) shifts
a in ((1/lambda) Z / Z)^(2g) from one such sum over the finer lattice
nu' + (1/lambda) Z^g, with the same radius and tail envelope.
"""

from __future__ import annotations

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

# Shells of the tail envelope below this are closed with a geometric
# remainder; the envelope decays like exp(-pi*lam_min*r^2) so only a
# couple of dozen shells are ever needed.
_SHELL_CAP = 4096
TARGET_ABS_ERROR = 1e-13    # what the tail envelope of every radius must meet


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
    """Symmetric g x g complex matrix with positive-definite imaginary part."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.entries, dtype=complex))
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"period matrix must be square, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("period matrix entries must be finite")
        if not np.array_equal(arr, arr.T):
            raise ValueError("period matrix must be symmetric")
        try:
            np.linalg.cholesky(arr.imag)
        except np.linalg.LinAlgError:
            raise ValueError("imaginary part must be positive definite") from None
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "_lam_min", _min_eig_lower(arr.imag))

    @property
    def genus(self) -> int:
        return self.entries.shape[0]

    @property
    def lam_min(self) -> float:
        """Certified lower bound on the smallest eigenvalue of Im tau
        (eigvalsh minus a backward-error margin, see _min_eig_lower)."""
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

    tail_bound upper-bounds the omitted tail of the series and is floored
    at the arithmetic noise of the computed sum, so it is a usable bound
    on the total absolute error of `value`.
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
    (forcing the radius search onward).
    """
    if lam_min <= 0.0:
        return math.inf
    if radius < y_norm / lam_min:
        return math.inf
    total = 0.0
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
    return math.inf


def _box(top: Sequence[Fraction], radius: int, lam: int = 1) -> np.ndarray:
    """Integer points k with |top_a + k_a/lam| <= radius on every axis.

    Lexicographic order, shape (points, g).  With lam = 1 these are the
    xi of the theta series; with lam > 1 they index the finer lattice
    top + (1/lam) Z^g of a shift table.  The bounds are exact integer
    floor divisions on the numerator p and denominator q of top_a.
    """
    ranges = [
        np.arange(
            -(lam * (radius * m.denominator + m.numerator) // m.denominator),
            lam * (radius * m.denominator - m.numerator) // m.denominator + 1,
        )
        for m in top
    ]
    mesh = np.meshgrid(*ranges, indexing="ij")
    return np.stack([axis.reshape(-1) for axis in mesh], axis=-1)


def _terms(v: np.ndarray, shift: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Series terms e[(1/2) v tau . v + v . shift] at the rows of v, with their phases."""
    quad = ((v @ tau) * v).sum(axis=1)
    phase = TWO_PI * (0.5 * quad + v @ shift)
    return np.exp(1j * phase), phase


def _box_sum(
    mu_top: Sequence[Fraction],
    mu_bottom: Sequence[Fraction],
    z: np.ndarray,
    tau: np.ndarray,
    radius: int,
) -> tuple[complex, float]:
    """Lattice sum over the box, lexicographic order, exactly-rounded accumulation.

    Returns (value, noise_bound) where noise_bound estimates the rounding
    error of the computed terms: the accumulation itself is exactly
    rounded, so per-term error |term| * (|phase| + 2) * O(eps) dominates.
    """
    v = _box(mu_top, radius).astype(float) + np.array([float(m) for m in mu_top])
    terms, phase = _terms(v, z + np.array([float(m) for m in mu_bottom]), tau)
    value = complex(math.fsum(terms.real), math.fsum(terms.imag))
    eps = np.finfo(float).eps
    noise = 5.0 * eps * math.fsum(np.abs(terms) * (np.abs(phase) + 2.0))
    return value, noise


def _truncation(
    mu: Characteristic, z, tau: PeriodMatrix, settings: EvalSettings
) -> tuple[np.ndarray, int, float]:
    """Validated argument vector, truncation radius and tail envelope.

    The radius is the first of 4, 6, 8, ... (capped at
    settings.max_radius) whose envelope meets TARGET_ABS_ERROR; it
    depends on Im z and tau.lam_min only, never on the characteristic.
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
    radius = min(4, settings.max_radius)
    bound = _tail_envelope(radius, tau.lam_min, y_norm, g)
    while bound > TARGET_ABS_ERROR:
        if radius >= settings.max_radius:
            raise TruncationError(TARGET_ABS_ERROR, bound, radius)
        radius = min(radius + 2, settings.max_radius)
        bound = _tail_envelope(radius, tau.lam_min, y_norm, g)
    return z, radius, bound


def theta(
    mu: Characteristic,
    z,
    tau: PeriodMatrix,
    settings: EvalSettings = DEFAULT_SETTINGS,
) -> ThetaValue:
    """Evaluate theta_mu(z, tau) to the absolute error TARGET_ABS_ERROR.

    z may be a complex scalar (genus 1) or a length-g complex vector.
    Raises TruncationError when no radius up to settings.max_radius
    brings the tail envelope below TARGET_ABS_ERROR.
    """
    z, radius, bound = _truncation(mu, z, tau, settings)
    value, noise = _box_sum(mu.top, mu.bottom, z, tau.entries, radius)
    return ThetaValue(value, radius, max(bound, noise))


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

    The terms T(k) are computed once and binned by k mod lam^2; per axis,
    one lam^2 x lam^2 root-of-unity matrix then picks the coset and
    applies the phase.  R comes from the same search as theta(), so each
    entry sums exactly the points theta(nu + a, w) sums, and its omitted
    tail, the same coset's points outside the box times unit-modulus
    phases, is bounded by the same envelope.  Raises TruncationError
    exactly when theta(nu + a, w) would.
    """
    if lam < 1:
        raise ValueError(f"need lambda >= 1, got {lam}")
    w, radius, _ = _truncation(nu, w, tau, settings)
    g = tau.genus
    sq = lam * lam
    k = _box(nu.top, radius, lam)
    top = np.array([float(m) for m in nu.top])
    bottom = np.array([float(m) for m in nu.bottom])
    terms, _ = _terms(k / lam + top, w + bottom, tau.entries)
    bins = np.ravel_multi_index(tuple((k % sq).T), (sq,) * g)
    table = (
        np.bincount(bins, terms.real, sq**g) + 1j * np.bincount(bins, terms.imag, sq**g)
    ).reshape((sq,) * g)
    r = np.arange(sq)[:, None, None]
    c = np.arange(lam)[None, :, None]
    b = np.arange(lam)[None, None, :]
    for m in top:
        # [r, c, b] -> [r = c (mod lam)] * e[b (r/lam + nu'_a) / lam]; the
        # contracted axis is always the leading one, the new (c, b) pair
        # goes to the end.
        phase = (r * b) % sq / sq + b * m / lam
        mix = np.where(r % lam == c, np.exp(TWO_PI * 1j * phase), 0)
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
