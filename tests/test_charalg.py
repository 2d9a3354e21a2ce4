from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thetarel.charalg import _fraction_text, _latex_fraction
from thetarel import (
    Characteristic,
    CycleClass,
    MixedClassError,
    char_linear_combine,
    class_of,
    cycle_number,
    enumerate_shifts,
    smith_matrix,
    apply_to_args,
)

F = Fraction

CYCLE_TABLE = {3: 3, 4: 2, 5: 5, 6: 3, 7: 7, 8: 4, 9: 9, 10: 5}


def test_cycle_number_table():
    for n, lam in CYCLE_TABLE.items():
        assert cycle_number(n) == lam


def test_cycle_number_small_and_parity():
    assert cycle_number(2) == 1
    for n in range(2, 40):
        lam = cycle_number(n)
        if n % 2:
            assert lam == n
        else:
            assert 2 * lam == n


@pytest.mark.parametrize("bad", [1, 0, -3])
def test_cycle_number_domain(bad):
    with pytest.raises(ValueError):
        cycle_number(bad)


def test_class_of_examples():
    assert class_of([F(1, 3), F(4, 3), F(-2, 3)], 3) == CycleClass(1, 3)
    assert class_of([0, 1, -2], 3) == CycleClass(0, 3)
    with pytest.raises(MixedClassError):
        class_of([F(1, 2), F(1, 3)], 6)


@pytest.mark.parametrize("values, lam", [([0.5, 1.5], 2), ([0.1], 10), ([F(1, 3), 0.25], 3)],
                         ids=["halves", "tenth", "fraction-then-float"])
def test_class_of_rejects_floats(values, lam):
    # A float would be read at its binary value: 0.5 and 1.5 exactly, 0.1
    # as a 55-digit fraction.
    with pytest.raises(TypeError, match="exact rational needed"):
        class_of(values, lam)


def test_class_of_takes_ints_fractions_and_rational_strings():
    assert class_of([1, -4, np.int64(3)], 2) == CycleClass(0, 2)
    assert class_of([F(5, 2), "-1/2"], 2) == CycleClass(1, 2)
    assert class_of(["4/3", F(1, 3)], 3) == CycleClass(1, 3)


def test_class_of_rejects_incompatible_lambda():
    with pytest.raises(ValueError):
        class_of([F(1, 2), F(3, 2)], 3)
    with pytest.raises(ValueError):
        class_of([], 3)


def test_enumerate_shifts_counts():
    assert len(enumerate_shifts(1, 3)) == 9
    assert len(enumerate_shifts(2, 3)) == 81
    assert enumerate_shifts(1, 1) == [Characteristic.zero(1)]


def test_enumerate_shifts_no_duplicates_and_order():
    for g, lam in [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3)]:
        shifts = enumerate_shifts(g, lam)
        assert len(shifts) == lam ** (2 * g)
        assert len(set(shifts)) == len(shifts)
        keys = [s.top + s.bottom for s in shifts]
        assert keys == sorted(keys)
        for s in shifts:
            for v in s.top + s.bottom:
                assert 0 <= v < 1
                assert (v * lam).denominator == 1


def test_char_linear_combine_examples():
    zero = Characteristic.zero(1)
    third = Characteristic((F(1, 3),), (0,))
    assert char_linear_combine([1, 1], [zero, third]) == third
    half = Characteristic((F(1, 2),), (0,))
    combo = char_linear_combine([F(2, 3)] * 3, [half, half, half]) - half
    assert combo == half
    one = Characteristic((1,), (0,))
    out = char_linear_combine([F(-1, 3), F(2, 3), F(2, 3)], [one, zero, zero])
    assert out == Characteristic((F(-1, 3),), (0,))


rationals = st.builds(F, st.integers(-400, 400), st.integers(1, 60))


@pytest.mark.parametrize("g", [1, 2, 3])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_char_linear_combine_equals_the_fraction_sum(g, data):
    n = data.draw(st.integers(1, 7))
    coeffs = data.draw(st.lists(st.one_of(rationals, st.integers(-5, 5)), min_size=n, max_size=n))
    halves = st.tuples(*[rationals] * g)
    chars = [Characteristic(data.draw(halves), data.draw(halves)) for _ in range(n)]
    expected = Characteristic(
        tuple(sum(F(c) * ch.top[a] for c, ch in zip(coeffs, chars)) for a in range(g)),
        tuple(sum(F(c) * ch.bottom[a] for c, ch in zip(coeffs, chars)) for a in range(g)),
    )
    got = char_linear_combine(coeffs, chars)
    assert got == expected
    assert all(type(v) is F for v in got.top + got.bottom)


def _latex_reference(v):
    if v.denominator == 1:
        return str(v.numerator)
    return f"{'-' if v < 0 else ''}\\frac{{{abs(v.numerator)}}}{{{v.denominator}}}"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_integer_rational_texts_equal_the_fraction_texts(p, q):
    assert _fraction_text(p, q) == str(F(p, q))
    assert _latex_fraction(p, q) == _latex_reference(F(p, q))


def test_char_linear_combine_errors():
    zero = Characteristic.zero(1)
    with pytest.raises(ValueError):
        char_linear_combine([1], [zero, zero])
    with pytest.raises(ValueError):
        char_linear_combine([1, 1], [zero, Characteristic.zero(2)])
    with pytest.raises(ValueError):
        char_linear_combine([], [])


_C = Characteristic(("1/3",), (0,))


@pytest.mark.parametrize(
    "inexact",
    [
        lambda: Characteristic.zero(1) + 1,
        lambda: _C - "x",
        lambda: _C * 0.1,
        lambda: 0.1 * _C,
        lambda: Characteristic((0.1,), (0,)),
        lambda: char_linear_combine((0.1,), (_C,)),
    ],
    ids=["add-int", "sub-str", "mul-float", "rmul-float", "float-coordinate",
         "float-coefficient"],
)
def test_characteristic_arithmetic_rejects_inexact_operands(inexact):
    with pytest.raises(TypeError):
        inexact()


def test_characteristic_arithmetic_takes_exact_scalars():
    assert _C.top == (F(1, 3),)
    assert 2 * _C == Characteristic((F(2, 3),), (0,))
    assert F(1, 3) * _C == Characteristic((F(1, 9),), (0,))
    assert _C * np.int64(2) == Characteristic((F(2, 3),), (0,))


def test_characteristic_text_roundtrip():
    for text in ["1/3,2/3;1/3,0", "0;0", "-1/4;5/4", "1/2,0;0,1/2"]:
        c = Characteristic.parse(text)
        assert str(c) == text
        assert Characteristic.parse(str(c)) == c


def test_characteristic_parse_errors():
    with pytest.raises(ValueError):
        Characteristic.parse("1/3,2/3")
    with pytest.raises(ValueError):
        Characteristic.parse("1/3;2/3;0")
    with pytest.raises(ValueError, match="bogus"):
        Characteristic.parse("bogus;0")
    with pytest.raises(ValueError):
        Characteristic.parse("1/0;0")
    # The first token that is no rational is named, whichever half holds it.
    for text, bad in [("1/3,x;0", "'x'"), ("1/0;0", "'1/0'"), ("1/3;", "''"), (",;0", "''")]:
        with pytest.raises(ValueError) as info:
            Characteristic.parse(text)
        assert str(info.value) == f"bad rational token {bad} in {text!r}"


def test_characteristic_stays_unreduced():
    c = Characteristic((F(5, 3),), (F(-7, 3),))
    assert c.top == (F(5, 3),)
    assert c.bottom == (F(-7, 3),)
    shifted = c + Characteristic((1,), (2,))
    assert shifted.top == (F(8, 3),)


def test_characteristic_validation():
    with pytest.raises(ValueError):
        Characteristic((F(1, 2),), (0, 0))
    with pytest.raises(ValueError):
        Characteristic((), ())
    with pytest.raises(ValueError):
        Characteristic.zero(1) + Characteristic.zero(2)


def test_rational_arithmetic_exactness():
    rng = np.random.default_rng(11)

    def rational():
        return F(int(rng.integers(-50, 51)), int(rng.integers(1, 17)))

    for _ in range(200):
        a = rational()
        b = rational()
        assert (a + b) - b == a
        ca = Characteristic((a,), (b,))
        cb = Characteristic((b,), (a,))
        assert (ca + cb) - cb == ca
    # +, -, * and scalar * on the left against coordinate-wise Fractions.
    for g in (1, 2, 3):
        for _ in range(50):
            x = Characteristic(*(tuple(rational() for _ in range(g)) for _ in range(2)))
            y = Characteristic(*(tuple(rational() for _ in range(g)) for _ in range(2)))
            c = rational() if rng.integers(2) else int(rng.integers(-5, 6))
            for got, op in [(x + y, F.__add__), (x - y, F.__sub__)]:
                assert got.top == tuple(map(op, x.top, y.top))
                assert got.bottom == tuple(map(op, x.bottom, y.bottom))
                assert all(type(v) is F for v in got.top + got.bottom)
            for got in (x * c, c * x):
                assert got == Characteristic(
                    tuple(c * v for v in x.top), tuple(c * v for v in x.bottom)
                )
                assert all(type(v) is F for v in got.top + got.bottom)
        for op in (Characteristic.__add__, Characteristic.__sub__):
            with pytest.raises(ValueError, match="genus mismatch"):
                op(Characteristic.zero(g), Characteristic.zero(g + 1))


def test_transformed_integer_tuples_share_class():
    # Images of integer tuples under the order-n involution always land in
    # one class Z + l/lambda; class_of must never raise on them.
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        xi = tuple(int(v) for v in rng.integers(-8, 9, n))
        eta = apply_to_args(smith_matrix(n), xi)
        cls = class_of(eta, cycle_number(n))
        assert 0 <= cls.ell < cls.lam
