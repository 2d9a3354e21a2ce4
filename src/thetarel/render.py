"""Byte-stable serialization: JSON reports and LaTeX fragments.

Floats are rendered with 17 significant digits (fixed width rather than
shortest round-trip) so identical inputs always produce identical
bytes.  LaTeX emission targets a standalone math fragment with
binomial-style characteristic stacks; coefficients render as omega
powers for lambda = 3, as bare signs when they are exactly +-1, and as
e[p/q] otherwise.

Each renderer of a term list (JSON, LaTeX, text) formats each distinct
top or bottom half, and each exponent, once per call.  The top halves
of build_relation's terms depend on the top digit vector only, so each
is one object shared by lambda^g terms, and likewise the bottom halves:
at (7,2) the 19,208 characteristics have 784 distinct halves.  The
memo is keyed on object identity, because hashing a tuple of Fractions
costs more than formatting it; it holds every object it has seen, so no
id is reused during the call, and it is dropped when the call returns.
A term list whose halves are not shared simply misses every time.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Sequence

from .charalg import Characteristic, _char_text, _memo, cycle_number
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


# What json.dumps(str) calls under its default ensure_ascii=True.
_encode_str = json.encoder.encode_basestring_ascii


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        return "null"
    return f"{x:.17g}"


def dumps(obj, indent: int = 0) -> str:
    """Deterministic JSON text with fixed float formatting.

    Supports dicts (insertion order preserved), lists, strings, ints,
    bools, None and floats; Fractions render as "p/q" strings.
    """
    if type(obj) is str:
        return _encode_str(obj)
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {_encode_str(str(k))}: {dumps(v, indent + 2)}"
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
    if isinstance(obj, (Fraction, str)):
        return _encode_str(str(obj))
    raise TypeError(f"cannot render {type(obj)!r}")


def terms_to_json_obj(spec: RelationSpec, terms: Sequence[RelationTerm]) -> dict:
    """The emit JSON object: relation_report's "spec" and "terms" part."""
    return _terms_json_obj(spec, terms)


def parse_terms_json(text: str) -> tuple[RelationSpec, list[RelationTerm]]:
    """Inverse of terms_to_json_obj + dumps; round-trips byte-identically.

    Only "spec" is parsed: the terms are rebuilt from it, and a "terms"
    list other than the rebuilt one, or a "lambda" other than
    cycle_number(n), raises ValueError.  So does a document that is not
    an object, lacks a key, or has an "n", "g" or "lambda" that is not a
    JSON integer."""
    obj = json.loads(text)
    s = obj.get("spec") if isinstance(obj, dict) else None
    if not isinstance(s, dict):
        raise ValueError('relation JSON must be an object with a "spec" object')
    missing = [f"spec.{k}" for k in ("n", "g", "lambda", "mode", "mu") if k not in s]
    if "terms" not in obj:
        missing.append("terms")
    if missing:
        raise ValueError(f"relation JSON lacks {', '.join(missing)}")
    for key in ("n", "g", "lambda"):
        if type(s[key]) is not int:
            raise ValueError(f'spec "{key}" must be a JSON integer, got {s[key]!r}')
    if not isinstance(s["mu"], list) or not all(isinstance(m, str) for m in s["mu"]):
        raise ValueError('spec "mu" must be a list of characteristic strings')
    n = s["n"]
    if s["lambda"] != cycle_number(n):
        raise ValueError(f"lambda {s['lambda']} is not cycle_number({n})")
    spec = RelationSpec(
        n=n,
        genus=s["g"],
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


def _latex_half(half: tuple[Fraction, ...]) -> str:
    return "\\,".join(map(_latex_rational, half))


def _latex_stack(c: Characteristic, half=_latex_half) -> str:
    return f"\\binom{{{half(c.top)}}}{{{half(c.bottom)}}}"


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
    half = _memo(_latex_half)
    coefficient = _memo(lambda e: _latex_coefficient(e, spec.lam))
    pieces = []
    for i, term in enumerate(terms):
        sep, prefix = coefficient(term.exponent)
        # str(Fraction) is canonical, so equal stacks mean equal factors.
        stacks = [_latex_stack(c, half) + "'" for c in term.nu_shifted]
        body = stacks[0] if stacks.count(stacks[0]) == len(stacks) else "".join(stacks)
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
    char, exponent = _char_text(), _memo(str)
    for t in terms:
        nu = " ".join(map(char, t.nu_shifted))
        lines.append(f"{char(t.shift):>16s}  {exponent(t.exponent):>10s}  {nu}")
    return "\n".join(lines) + "\n"
