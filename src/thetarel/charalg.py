"""Exact arithmetic on rational theta characteristics.

A characteristic is a pair of genus-g vectors of rationals, written
(top; bottom).  The top vector shifts the summation lattice of the theta
series, the bottom vector shifts the argument.  All arithmetic here is
exact (`fractions.Fraction`); characteristics are deliberately NOT
reduced mod 1, because shifted characteristics appearing inside theta
relations must keep their unreduced values (reduction changes the theta
value by a root-of-unity phase, which is handled in the evaluator).

Inputs must be exact: _rational turns a numbers.Rational or a rational
string into a Fraction, and raises TypeError for anything else, a float
included.  Characteristic coordinates, the scalars of
char_linear_combine and the values of class_of go through it; + and -
take only Characteristics, * only a numbers.Rational.

char_linear_combine (and so +, - and scalar *) and the exact path of
transforms.apply_to_args sum each coordinate as one integer numerator
over a common denominator (_combine).  _fraction_text and
_latex_fraction write a rational given as integers p/q as str(Fraction)
and the LaTeX renderer do, so shifted coordinates are written without
building Fractions; _latex_top and _latex_bottom write the two halves of
a LaTeX characteristic stack, for render's stacks and for the primed
LaTeX rows that relations.RelationSpec keeps.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

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


def _rational(v) -> Fraction:
    """v as an exact Fraction: any numbers.Rational, or a rational string.
    Anything else, a float included, raises TypeError."""
    if isinstance(v, (numbers.Rational, str)):
        return Fraction(v)
    raise TypeError(
        f"exact rational needed (int, Fraction or rational string), got {v!r}"
    )


def _coerce_vector(values) -> tuple[Fraction, ...]:
    if isinstance(values, (int, str, Fraction)):
        values = (values,)
    if type(values) is tuple and all(type(v) is Fraction for v in values):
        return values
    return tuple(map(_rational, values))


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

        def rational(token):
            try:
                return Fraction(token)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad rational token {token!r} in {text!r}") from None

        top, bottom = (tuple(rational(t.strip()) for t in part.split(",")) for part in parts)
        return cls(top, bottom)

    def __str__(self) -> str:
        return f"{_half_text(self.top)};{_half_text(self.bottom)}"

    def __add__(self, other: "Characteristic") -> "Characteristic":
        if not isinstance(other, Characteristic):
            return NotImplemented
        return char_linear_combine((1, 1), (self, other))

    def __sub__(self, other: "Characteristic") -> "Characteristic":
        if not isinstance(other, Characteristic):
            return NotImplemented
        return char_linear_combine((1, -1), (self, other))

    def __mul__(self, scalar) -> "Characteristic":
        if not isinstance(scalar, numbers.Rational):
            return NotImplemented
        return char_linear_combine((scalar,), (self,))

    __rmul__ = __mul__


def _half_text(half: tuple[Fraction, ...]) -> str:
    return ",".join(map(str, half))


def _fraction_text(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q >= 1, reduced with one gcd."""
    d = math.gcd(p, q)
    return str(p // d) if d == q else f"{p // d}/{q // d}"


def _latex_fraction(p: int, q: int) -> str:
    """p/q for q >= 1 in LaTeX, reduced with one gcd: an integer, or
    [-]\\frac{|p|}{q}."""
    d = math.gcd(p, q)
    p, q = p // d, q // d
    if q == 1:
        return str(p)
    return f"{'-' if p < 0 else ''}\\frac{{{abs(p)}}}{{{q}}}"


def _latex_top(texts) -> str:
    """The top half of a LaTeX characteristic stack, from its coordinate
    texts."""
    return "\\binom{" + "\\,".join(texts) + "}{"


def _latex_bottom(texts) -> str:
    """The bottom half of a LaTeX characteristic stack, which closes it."""
    return "\\,".join(texts) + "}"


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

    The entries must be exact (see _rational); a float raises TypeError.
    Raises MixedClassError when two entries differ by a non-integer, and
    ValueError when the common fractional part is not a multiple of
    1/lambda.
    """
    vals = [_rational(v) for v in values]
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
    """Exact rational linear combination sum_i coeffs[i] * chars[i].
    The coeffs must be exact (see _rational); a float raises TypeError.

    Each coordinate is summed as one integer numerator over the lcm of
    its products' denominators, and one Fraction is built from it."""
    if len(coeffs) != len(chars):
        raise ValueError(f"length mismatch: {len(coeffs)} coeffs, {len(chars)} chars")
    if not chars:
        raise ValueError("empty combination")
    genus = chars[0].genus
    for c in chars:
        if c.genus != genus:
            raise ValueError("genus mismatch inside combination")
    scalars = [_rational(c) for c in coeffs]
    return Characteristic._unchecked(
        tuple(_combine(scalars, col) for col in zip(*(ch.top for ch in chars))),
        tuple(_combine(scalars, col) for col in zip(*(ch.bottom for ch in chars))),
    )


def _combine(scalars: Sequence[Fraction], values: Sequence[Fraction]) -> Fraction:
    """sum_i scalars[i] * values[i] as one integer numerator over the lcm
    of the products' denominators, built into one Fraction."""
    dens = [s.denominator * v.denominator for s, v in zip(scalars, values)]
    den = math.lcm(*dens)
    num = sum(
        s.numerator * v.numerator * (den // d) for s, v, d in zip(scalars, values, dens)
    )
    return Fraction(num, den)
