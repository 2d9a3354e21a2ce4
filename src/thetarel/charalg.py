"""Exact arithmetic on rational theta characteristics.

A characteristic is a pair of genus-g vectors of rationals, written
(top; bottom).  The top vector shifts the summation lattice of the theta
series, the bottom vector shifts the argument.  All arithmetic here is
exact (`fractions.Fraction`); characteristics are deliberately NOT
reduced mod 1, because shifted characteristics appearing inside theta
relations must keep their unreduced values (reduction changes the theta
value by a root-of-unity phase, which is handled in the evaluator).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

__all__ = [
    "Characteristic",
    "CycleClass",
    "MixedClassError",
    "cycle_number",
    "class_of",
    "enumerate_shifts",
    "char_linear_combine",
]

class MixedClassError(ValueError):
    """Entries do not all lie in a single class Z + l/lambda."""


def _coerce_vector(values) -> tuple[Fraction, ...]:
    if isinstance(values, (int, str, Fraction)):
        values = (values,)
    if type(values) is tuple and all(type(v) is Fraction for v in values):
        return values
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class Characteristic:
    """A rational theta characteristic (top; bottom) of genus g.

    Values are arbitrary finite rationals; in particular they may lie
    outside [0, 1) so that lattice-shifted characteristics remain
    representable verbatim.
    """

    top: tuple[Fraction, ...]
    bottom: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "top", _coerce_vector(self.top))
        object.__setattr__(self, "bottom", _coerce_vector(self.bottom))
        if len(self.top) != len(self.bottom):
            raise ValueError(
                f"top/bottom length mismatch: {len(self.top)} != {len(self.bottom)}"
            )
        if not self.top:
            raise ValueError("characteristic needs genus >= 1")

    @property
    def genus(self) -> int:
        return len(self.top)

    @classmethod
    def _unchecked(cls, top: tuple[Fraction, ...], bottom: tuple[Fraction, ...]):
        """Construct from all-Fraction tuples of one length >= 1, unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bottom", bottom)
        return self

    @classmethod
    def zero(cls, genus: int) -> "Characteristic":
        return cls((Fraction(0),) * genus, (Fraction(0),) * genus)

    @classmethod
    def parse(cls, text: str) -> "Characteristic":
        """Parse the text format "p/q,...;p/q,..." (top;bottom)."""
        parts = text.split(";")
        if len(parts) != 2:
            raise ValueError(f"characteristic needs exactly one ';': {text!r}")
        vectors = []
        for part in parts:
            tokens = [t.strip() for t in part.split(",")]
            try:
                vectors.append(tuple(Fraction(t) for t in tokens))
            except (ValueError, ZeroDivisionError):
                bad = next(
                    (t for t in tokens if not _is_rational_token(t)), part.strip()
                )
                raise ValueError(f"bad rational token {bad!r} in {text!r}") from None
        return cls(vectors[0], vectors[1])

    def __str__(self) -> str:
        return f"{_half_text(self.top)};{_half_text(self.bottom)}"

    def __add__(self, other: "Characteristic") -> "Characteristic":
        self._check_genus(other)
        return Characteristic(
            tuple(a + b for a, b in zip(self.top, other.top)),
            tuple(a + b for a, b in zip(self.bottom, other.bottom)),
        )

    def __sub__(self, other: "Characteristic") -> "Characteristic":
        self._check_genus(other)
        return Characteristic(
            tuple(a - b for a, b in zip(self.top, other.top)),
            tuple(a - b for a, b in zip(self.bottom, other.bottom)),
        )

    def __mul__(self, scalar) -> "Characteristic":
        c = Fraction(scalar)
        return Characteristic(
            tuple(c * v for v in self.top), tuple(c * v for v in self.bottom)
        )

    __rmul__ = __mul__

    def _check_genus(self, other: "Characteristic") -> None:
        if self.genus != other.genus:
            raise ValueError(f"genus mismatch: {self.genus} != {other.genus}")


def _half_text(half: tuple[Fraction, ...]) -> str:
    return ",".join(map(str, half))


def _memo(fmt: Callable) -> Callable:
    """fmt, computed once per distinct object for as long as the returned
    function lives (one rendering call).

    Keyed on id(v), not on v: hashing a tuple of Fractions costs more
    than formatting it, while the halves of a relation's terms are
    shared objects (see relations.RelationSpec._digit_table).  Each entry
    holds v, so its id cannot be reused by another object meanwhile."""
    seen: dict[int, tuple] = {}

    def get(v):
        try:
            return seen[id(v)][1]
        except KeyError:
            value = fmt(v)
            seen[id(v)] = (v, value)
            return value

    return get


def _char_text() -> Callable[[Characteristic], str]:
    """str(c) for one rendering call, each half object formatted once."""
    half = _memo(_half_text)
    return lambda c: f"{half(c.top)};{half(c.bottom)}"


def _is_rational_token(token: str) -> bool:
    try:
        Fraction(token)
        return True
    except (ValueError, ZeroDivisionError):
        return False


@dataclass(frozen=True)
class CycleClass:
    """The residue class [l] = Z + l/lambda shared by a transformed tuple."""

    ell: int
    lam: int

    def __post_init__(self):
        if self.lam < 1:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not 0 <= self.ell < self.lam:
            raise ValueError(f"class index {self.ell} outside [0, {self.lam})")


def cycle_number(n: int) -> int:
    """Cycle number of the order-n involution: n for odd n, n/2 for even n.

    This is the denominator governing both the shift lattice (1/lambda)Z^g
    and the coefficient exponents of the theta relations; the drop to n/2
    for even n is the halving phenomenon.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return n if n % 2 else n // 2


def class_of(values: Iterable, lam: int) -> CycleClass:
    """Shared class [l] of a tuple whose entries all lie in Z + l/lambda.

    Raises MixedClassError when two entries differ by a non-integer, and
    ValueError when the common fractional part is not a multiple of
    1/lambda.
    """
    vals = [Fraction(v) for v in values]
    if not vals:
        raise ValueError("empty tuple has no class")
    if lam < 1:
        raise ValueError(f"lambda must be positive, got {lam}")
    frac = vals[0] % 1
    for v in vals[1:]:
        if (v - vals[0]).denominator != 1:
            raise MixedClassError(
                f"mixed classes: {vals[0]} and {v} differ by a non-integer"
            )
    scaled = frac * lam
    if scaled.denominator != 1:
        raise ValueError(f"fractional part {frac} is not a multiple of 1/{lam}")
    return CycleClass(int(scaled), lam)


def enumerate_shifts(g: int, lam: int) -> list[Characteristic]:
    """All lambda^(2g) shift characteristics with coordinates in {0..lambda-1}/lambda.

    Ordered lexicographically with the top vector major and the bottom
    vector minor, so generated relations are byte-stable across runs.
    """
    if g < 1:
        raise ValueError(f"need genus >= 1, got {g}")
    if lam < 1:
        raise ValueError(f"need lambda >= 1, got {lam}")
    shifts = []
    for idx in itertools.product(range(lam), repeat=2 * g):
        top = tuple(Fraction(k, lam) for k in idx[:g])
        bottom = tuple(Fraction(k, lam) for k in idx[g:])
        shifts.append(Characteristic(top, bottom))
    return shifts


def char_linear_combine(
    coeffs: Sequence, chars: Sequence[Characteristic]
) -> Characteristic:
    """Exact rational linear combination sum_i coeffs[i] * chars[i]."""
    if len(coeffs) != len(chars):
        raise ValueError(f"length mismatch: {len(coeffs)} coeffs, {len(chars)} chars")
    if not chars:
        raise ValueError("empty combination")
    genus = chars[0].genus
    for c in chars:
        if c.genus != genus:
            raise ValueError("genus mismatch inside combination")
    result = Fraction(coeffs[0]) * chars[0]
    for c, ch in zip(coeffs[1:], chars[1:]):
        result = result + Fraction(c) * ch
    return result
