"""The involution matrices behind the theta relations.

Two families, both exact-rational and both squaring to the identity:

* the classical 4x4 Jacobi matrix with entries +-1/2, which preserves
  sum of squares but not the plain sum, and
* the n x n Smith-type matrix (2/n)*ones - identity, which preserves
  both the sum and the sum of squares of the transformed tuple.

Tuples of arguments (complex g-vectors) and tuples of characteristics
are transformed with the row-vector-times-matrix convention
w_k = sum_j z_j M[j][k]; a single convention is used everywhere and
pinned by tests.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .charalg import Characteristic, _combine, char_linear_combine

__all__ = [
    "TransformMatrix",
    "smith_matrix",
    "jacobi_a_matrix",
    "apply_to_args",
    "apply_to_chars",
]


@dataclass(frozen=True)
class TransformMatrix:
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if not self.entries or any(len(r) != self.n for r in self.entries):
            raise ValueError("entries must form an n x n matrix, n >= 1")
        # Involution check, exact: M @ M == identity.
        for i in range(self.n):
            for j in range(self.n):
                acc = sum(self.entries[i][k] * self.entries[k][j] for k in range(self.n))
                if acc != (1 if i == j else 0):
                    raise ValueError("matrix does not square to the identity")

    @property
    def n(self) -> int:
        return len(self.entries)

    def as_float(self) -> np.ndarray:
        """The entries as a read-only float array, built once per matrix."""
        return self._float

    @functools.cached_property
    def _float(self) -> np.ndarray:
        m = np.array([[float(v) for v in row] for row in self.entries])
        m.flags.writeable = False
        return m

    def column(self, k: int) -> tuple[Fraction, ...]:
        return tuple(self.entries[j][k] for j in range(self.n))


# One relation uses one n, and the benchmark at most six; a kept matrix
# holds n^2 references to two shared Fractions, 78 kB at n = 96.  A call
# that raises is not kept.
@functools.lru_cache(maxsize=16)
def smith_matrix(n: int) -> TransformMatrix:
    """The n x n involution with diagonal (2-n)/n and off-diagonal 2/n.

    Built once per n and shared by later calls: the matrix is immutable.
    Its square is checked by its two entry identities, in O(1), in place
    of the constructor's O(n^3) product.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    d, o = Fraction(2 - n, n), Fraction(2, n)
    # The diagonal and the off-diagonal entries of M @ M.
    if d * d + (n - 1) * o * o != 1 or 2 * d * o + (n - 2) * o * o != 0:
        raise ValueError("matrix does not square to the identity")
    m = object.__new__(TransformMatrix)
    object.__setattr__(m, "entries", tuple(
        tuple(d if i == j else o for j in range(n)) for i in range(n)))
    return m


@functools.lru_cache(maxsize=1)
def jacobi_a_matrix() -> TransformMatrix:
    """Jacobi's 4x4 half-integer involution used in the quartic relations.

    Built, and its square checked, once per process and shared by later
    calls, as smith_matrix's are: the matrix is immutable."""
    h = Fraction(1, 2)
    signs = (
        (1, 1, 1, 1),
        (1, 1, -1, -1),
        (1, -1, 1, -1),
        (1, -1, -1, 1),
    )
    rows = tuple(tuple(h * s for s in row) for row in signs)
    return TransformMatrix(rows)


def _is_exact_arg(value) -> bool:
    if isinstance(value, (Fraction, int)):
        return True
    if isinstance(value, (tuple, list)):
        return all(isinstance(v, (Fraction, int)) for v in value)
    return False


def apply_to_args(m: TransformMatrix, args: Sequence):
    """Transform a length-n tuple of argument vectors: w_k = sum_j z_j M[j][k].

    Accepts either complex scalars/arrays (double-precision path) or
    Fraction scalars/tuples (exact path, used by the conservation and
    involution property checks; each coordinate is one charalg._combine).
    Returns a tuple in the same style.
    """
    if len(args) != m.n:
        raise ValueError(f"expected {m.n} arguments, got {len(args)}")
    if all(_is_exact_arg(a) for a in args):
        scalar = not isinstance(args[0], (tuple, list))
        vecs = [
            (Fraction(a),) if scalar else tuple(Fraction(v) for v in a) for a in args
        ]
        g = len(vecs[0])
        if any(len(v) != g for v in vecs):
            raise ValueError("argument vectors must share one genus")
        out = (tuple(_combine(m.column(k), x) for x in zip(*vecs)) for k in range(m.n))
        return tuple(w[0] if scalar else w for w in out)
    vecs = [np.atleast_1d(np.asarray(a, dtype=complex)) for a in args]
    g = vecs[0].shape[0]
    if any(v.shape != (g,) for v in vecs):
        raise ValueError("argument vectors must share one genus")
    stacked = np.stack(vecs)              # (n, g)
    out = m.as_float().T @ stacked        # row k: sum_j z_j M[j][k]
    return tuple(out[k] for k in range(m.n))


def apply_to_chars(
    m: TransformMatrix, chars: Sequence[Characteristic]
) -> tuple[Characteristic, ...]:
    """Transform a length-n tuple of characteristics, exactly.

    Each column is one char_linear_combine, which raises ValueError when
    the count of chars is not n or their genera differ."""
    return tuple(char_linear_combine(m.column(k), chars) for k in range(m.n))
