"""Byte-stable serialization: JSON reports and LaTeX fragments.

Floats are rendered with 17 significant digits (fixed width rather than
shortest round-trip) so identical inputs always produce identical
bytes.  LaTeX emission targets a standalone math fragment with
binomial-style characteristic stacks; coefficients render as omega
powers for lambda = 3, as bare signs when they are exactly +-1, and as
e[p/q] otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .charalg import Characteristic, cycle_number
from .relations import (
    CoefficientMode,
    RelationSpec,
    RelationTerm,
    _terms_json_obj,
    build_relation,
)

__all__ = [
    "dumps",
    "terms_to_json_obj",
    "parse_terms_json",
    "relation_to_latex",
    "terms_to_text",
]


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return "null"
    return f"{x:.17g}"


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON text with fixed float formatting.

    Supports dicts (insertion order preserved), lists, strings, ints,
    bools, None and floats; Fractions render as "p/q" strings.
    """
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {dumps(v, indent + 2)}"
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        scalars = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if scalars:
            return "[" + ", ".join(dumps(v) for v in obj) + "]"
        inner = ",\n".join(f"{pad}  {dumps(v, indent + 2)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot render {type(obj)!r}")


def terms_to_json_obj(spec: RelationSpec, terms: Sequence[RelationTerm]) -> dict:
    """The emit JSON object: relation_report's "spec" and "terms" part."""
    return _terms_json_obj(spec, terms)


def parse_terms_json(text: str) -> tuple[RelationSpec, list[RelationTerm]]:
    """Inverse of terms_to_json_obj + dumps; round-trips byte-identically.

    Only "spec" is parsed: the terms are rebuilt from it, and a "terms"
    list other than the rebuilt one, or a "lambda" other than
    cycle_number(n), raises ValueError."""
    obj = json.loads(text)
    s = obj["spec"]
    n = int(s["n"])
    if int(s["lambda"]) != cycle_number(n):
        raise ValueError(f"lambda {s['lambda']} is not cycle_number({n})")
    spec = RelationSpec(
        n=n,
        genus=int(s["g"]),
        mu=tuple(Characteristic.parse(m) for m in s["mu"]),
        mode=CoefficientMode(s["mode"]),
    )
    terms = build_relation(spec)
    if obj["terms"] != _terms_json_obj(spec, terms)["terms"]:
        raise ValueError("terms do not match the relation of their spec")
    return spec, terms


def _latex_rational(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    sign = "-" if v < 0 else ""
    return f"{sign}\\frac{{{abs(v.numerator)}}}{{{v.denominator}}}"


def _latex_stack(c: Characteristic) -> str:
    top = "\\,".join(_latex_rational(v) for v in c.top)
    bottom = "\\,".join(_latex_rational(v) for v in c.bottom)
    return f"\\binom{{{top}}}{{{bottom}}}"


def _latex_coefficient(exponent: Fraction, lam: int) -> tuple[str, str]:
    """(separator, prefix) for a term; separator is '+' or '-'."""
    if exponent == 0:
        return "+", ""
    if exponent == Fraction(1, 2):
        return "-", ""
    if lam == 3:
        power = exponent * 3
        if power.denominator == 1:
            omega = "\\omega" if power == 1 else f"\\omega^{{{power.numerator}}}"
            return "+", omega + " "
    return "+", f"{{\\bf e}}\\left({exponent}\\right) "


def relation_to_latex(spec: RelationSpec, terms: Sequence[RelationTerm]) -> str:
    """Standalone math fragment for the relation.

    A term whose shifted characteristics all coincide is abbreviated as a
    single primed stack (meaning the product of the n equal factors, the
    classical shorthand); otherwise the n primed factors are written out.
    """
    lam_pow = (
        str(spec.lam) if spec.genus == 1 else f"{spec.lam}^{{{spec.genus}}}"
    )
    if all(m == spec.mu[0] for m in spec.mu):
        lhs = f"{lam_pow}\\cdot{_latex_stack(spec.mu[0])}"
    else:
        factors = "".join(_latex_stack(m) for m in spec.mu)
        lhs = f"{lam_pow}\\cdot {factors}"
    pieces = []
    for i, term in enumerate(terms):
        sep, prefix = _latex_coefficient(term.exponent, spec.lam)
        if all(c == term.nu_shifted[0] for c in term.nu_shifted):
            body = _latex_stack(term.nu_shifted[0]) + "'"
        else:
            body = "".join(_latex_stack(c) + "'" for c in term.nu_shifted)
        if i == 0 and sep == "+":
            pieces.append(f"{prefix}{body}")
        else:
            pieces.append(f"{sep} {prefix}{body}")
    return lhs + " = " + " ".join(pieces)


def terms_to_text(spec: RelationSpec, terms: Sequence[RelationTerm]) -> str:
    lines = [
        f"n={spec.n} g={spec.genus} lambda={spec.lam} mode={spec.mode.value} "
        f"terms={len(terms)}",
        f"{'shift':>16s}  {'exponent':>10s}  nu+a",
    ]
    for t in terms:
        nu = " ".join(str(c) for c in t.nu_shifted)
        lines.append(f"{str(t.shift):>16s}  {str(t.exponent):>10s}  {nu}")
    return "\n".join(lines) + "\n"
