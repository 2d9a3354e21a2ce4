"""Independent reference values for the theta-eval workload.

Nothing here imports thetarel: the reference sum is the defining series
summed over a sup-norm box whose radius comes from the true smallest
eigenvalue of Im tau (``numpy.linalg.eigvalsh``), so it shares no code
and no truncation logic with the evaluator under test.

    theta_mu(z, tau) = sum over xi in Z^g of
        e[ (1/2) (xi+mu') tau . (xi+mu') + (xi+mu') . (z+mu'') ]
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

TWO_PI = 2.0 * math.pi
EPS = float(np.finfo(float).eps)
# Omitted-tail target of the reference; far below the evaluator's
# 1e-13 so the reference error is dominated by rounding.
REF_TAIL = 1e-18
# Box terms smaller than e^-PRUNE times the largest term are not summed.
PRUNE = 55.0


def _tail(radius: int, lam: float, y_norm: float, g: int) -> float:
    """Sum of the per-point bound exp(-pi lam r^2 + 2 pi r |Im z|) over the
    points outside the box of the given sup-norm radius (r > radius).

    Shell k (sup-norm in (radius+k, radius+k+1]) has fewer than
    (2(radius+k)+3)^g points, each with l2-norm above radius+k; the
    per-point bound decreases in r once r >= |Im z| / lam.
    """
    total = 0.0
    for k in range(10_000):
        r = float(radius + k)
        t = (2.0 * r + 3.0) ** g * math.exp(-math.pi * lam * r * r + TWO_PI * r * y_norm)
        total += t
        if t < 1e-6 * REF_TAIL:
            return total
    return math.inf


def reference_radius(tau: np.ndarray, z: np.ndarray) -> int:
    """Smallest sup-norm radius whose omitted tail is below REF_TAIL."""
    g = tau.shape[0]
    # eigvalsh is backward stable: its error is a few eps * ||Im tau||, so
    # shaving 1e-9 * ||Im tau|| keeps lam a lower bound.
    eig = np.linalg.eigvalsh(tau.imag)
    lam = float(eig[0]) - 1e-9 * float(eig[-1])
    if lam <= 0.0:
        raise ValueError("Im tau is not positive definite")
    y_norm = float(np.linalg.norm(np.asarray(z).imag))
    radius = max(1, math.ceil(y_norm / lam))
    while _tail(radius, lam, y_norm, g) > REF_TAIL:
        radius += 1
    return radius


def box_points(mu_top: Sequence[Fraction], radius: int) -> int:
    """Number of xi in Z^g with max_a |xi_a + mu'_a| <= radius.

    This is the size of the evaluator's summation box at truncation
    radius ``radius``; the benchmark reports it as a computed count.
    """
    count = 1
    for m in mu_top:
        m = Fraction(m)
        count *= max(0, math.floor(radius - m) - math.ceil(-radius - m) + 1)
    return count


def reference_theta(
    mu_top: Sequence[Fraction],
    mu_bottom: Sequence[Fraction],
    z: np.ndarray,
    tau: np.ndarray,
) -> tuple[complex, float]:
    """(value, rounding_bound) of theta_mu(z, tau) by a big-box numpy sum.

    rounding_bound covers the rounding of the computed terms (each term's
    phase carries a relative error of a few eps * |phase|), the pruned
    box terms and the tail outside the box.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    tau = np.asarray(tau, dtype=complex)
    radius = reference_radius(tau, z)
    top = np.array([float(m) for m in mu_top])
    bottom = np.array([float(m) for m in mu_bottom])
    axes = [
        np.arange(math.ceil(-radius - Fraction(m)), math.floor(radius - Fraction(m)) + 1)
        for m in mu_top
    ]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
    v = grid.astype(float) + top
    # log |term| = -pi v.Y.v - 2 pi v.Im z; terms below e^-PRUNE of the
    # largest are left out and their sum is added to the bound.
    log_mag = -math.pi * ((v @ tau.imag) * v).sum(axis=1) - TWO_PI * (v @ z.imag)
    keep = log_mag > log_mag.max() - PRUNE
    pruned = float(np.exp(log_mag.max() - PRUNE)) * int((~keep).sum())
    v = v[keep]
    phase = TWO_PI * (0.5 * ((v @ tau) * v).sum(axis=1) + v @ (z + bottom))
    terms = np.exp(1j * phase)
    value = complex(terms.sum())
    magnitude = np.abs(terms)
    # Term rounding (relative error a few eps * |phase|) plus numpy's
    # pairwise summation (error below (log2(N) + 1) eps * sum |term|).
    rounding = EPS * float((magnitude * (8.0 * np.abs(phase) + 16.0 + math.log2(len(terms)))).sum())
    return value, 1.01 * rounding + pruned + REF_TAIL
