from fractions import Fraction

import numpy as np
import pytest

from thetarel import (
    Characteristic,
    TransformMatrix,
    apply_to_args,
    apply_to_chars,
    cycle_number,
    jacobi_a_matrix,
    smith_matrix,
)
from thetarel.transforms import _smith_matrix

F = Fraction


def test_smith_matrix_entries():
    s3 = smith_matrix(3)
    assert s3.n == 3
    assert s3.entries == (
        (F(-1, 3), F(2, 3), F(2, 3)),
        (F(2, 3), F(-1, 3), F(2, 3)),
        (F(2, 3), F(2, 3), F(-1, 3)),
    )
    s2 = smith_matrix(2)
    assert s2.entries == ((F(0), F(1)), (F(1), F(0)))
    s4 = smith_matrix(4)
    for i in range(4):
        for j in range(4):
            assert s4.entries[i][j] == (F(-1, 2) if i == j else F(1, 2))


def test_smith_matrix_domain():
    with pytest.raises(ValueError):
        smith_matrix(1)


def test_involution_enforced_by_constructor():
    bad = ((F(1), F(1)), (F(0), F(1)))
    with pytest.raises(ValueError):
        TransformMatrix(bad)
    # An empty matrix would map any tuple of characteristics to ().
    with pytest.raises(ValueError, match="n >= 1"):
        TransformMatrix(())


def test_smith_matrix_is_cached_and_check_still_runs():
    assert smith_matrix(5) is smith_matrix(5)
    assert smith_matrix(6) is not smith_matrix(5)
    with pytest.raises(ValueError):
        smith_matrix(1)
    # The cache sits in front of smith_matrix only; the constructor's
    # involution check is not bypassed.
    with pytest.raises(ValueError):
        TransformMatrix(((F(1), F(0), F(0)),) * 3)


@pytest.mark.parametrize("n", range(2, 17))
def test_smith_matrix_squares_to_the_identity_exactly(n):
    m = smith_matrix(n).entries
    assert [[sum(m[i][k] * m[k][j] for k in range(n)) for j in range(n)] for i in range(n)] \
        == [[F(int(i == j)) for j in range(n)] for i in range(n)]
    assert TransformMatrix(m) == smith_matrix(n)


def test_smith_matrix_cache_is_bounded():
    for n in range(2, 40):
        smith_matrix(n)
    assert _smith_matrix.cache_info().currsize == _smith_matrix.cache_info().maxsize == 16
    # The O(n^3) product of the constructor is not run: n = 96 took
    # seconds with it.
    assert smith_matrix(96).column(0)[:2] == (F(-47, 48), F(1, 48))


def test_jacobi_matrix_entries_and_row_sums():
    a = jacobi_a_matrix()
    assert a.n == 4
    assert all(abs(v) == F(1, 2) for row in a.entries for v in row)
    row_sums = [sum(row) for row in a.entries]
    assert row_sums == [F(2), F(0), F(0), F(0)]


def test_apply_to_args_fixed_point_and_explicit_row():
    s3 = smith_matrix(3)
    x = 0.31 - 0.12j
    w = apply_to_args(s3, (x, x, x))
    assert np.allclose(np.array(w).ravel(), x, rtol=0, atol=1e-15)
    x1, x2, x3 = 0.2 + 0.1j, -0.4 + 0.05j, 0.7 - 0.3j
    w = apply_to_args(s3, (x1, x2, x3))
    assert abs(w[0][0] - (-x1 + 2 * x2 + 2 * x3) / 3) < 1e-15
    assert abs(w[1][0] - (2 * x1 - x2 + 2 * x3) / 3) < 1e-15
    assert abs(w[2][0] - (2 * x1 + 2 * x2 - x3) / 3) < 1e-15


def test_float_matrix_is_built_once_read_only_with_the_same_bits():
    for m in (smith_matrix(5), jacobi_a_matrix()):
        fresh = np.array([[float(v) for v in row] for row in m.entries])
        assert m.as_float() is m.as_float()
        assert not m.as_float().flags.writeable
        assert np.array_equal(m.as_float(), fresh)
        zs = tuple(np.array([0.1 * k + 0.3j, -0.7 + 0.01j * k]) for k in range(m.n))
        expected = fresh.T @ np.stack(zs)
        got = apply_to_args(m, zs)
        assert all(np.array_equal(w, e) for w, e in zip(got, expected))


def test_apply_to_args_length_mismatch():
    with pytest.raises(ValueError):
        apply_to_args(smith_matrix(3), (0.1, 0.2))
    with pytest.raises(ValueError):
        apply_to_args(smith_matrix(3), (np.zeros(2), np.zeros(1), np.zeros(2)))
    # The exact path refuses vectors of mixed lengths too.
    for args in [((F(1, 3), 0), (F(2),), (0, F(1, 5))), ((1,), (1, 2), (1, 2, 3))]:
        with pytest.raises(ValueError, match="share one genus"):
            apply_to_args(smith_matrix(3), args)


@pytest.mark.parametrize("g", [2, 3])
def test_apply_to_args_exact_vectors_equal_the_per_coordinate_sums(g):
    rng = np.random.default_rng(24 + g)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = smith_matrix(n) if n != 4 or rng.integers(2) else jacobi_a_matrix()
        z = tuple(
            tuple(F(int(rng.integers(-30, 31)), int(rng.integers(1, 13))) for _ in range(g))
            for _ in range(n)
        )
        w = apply_to_args(m, z)
        assert w == tuple(
            tuple(sum(m.entries[j][k] * z[j][i] for j in range(n)) for i in range(g))
            for k in range(n)
        )
        assert all(type(v) is F for wk in w for v in wk)


def test_involution_exact_on_rationals():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = smith_matrix(n)
        z = tuple(
            F(int(rng.integers(-30, 31)), int(rng.integers(1, 13))) for _ in range(n)
        )
        assert apply_to_args(m, apply_to_args(m, z)) == z
    a = jacobi_a_matrix()
    z = (F(1, 3), F(-5, 7), F(2), F(0))
    assert apply_to_args(a, apply_to_args(a, z)) == z


def test_involution_float_within_ulp_scale():
    rng = np.random.default_rng(22)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = smith_matrix(n)
        z = tuple(
            rng.uniform(-1, 1, 2) @ np.array([1, 1j]) for _ in range(n)
        )
        back = apply_to_args(m, apply_to_args(m, z))
        scale = max(abs(v) for v in z) + 1.0
        for orig, rec in zip(z, back):
            assert abs(rec[0] - orig) <= 16 * np.finfo(float).eps * scale


def test_conservation_laws_exact_smith():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = smith_matrix(n)
        z = tuple(
            F(int(rng.integers(-30, 31)), int(rng.integers(1, 13))) for _ in range(n)
        )
        w = apply_to_args(m, z)
        assert sum(z) == sum(w)
        assert sum(v * v for v in z) == sum(v * v for v in w)


def test_jacobi_preserves_squares_not_sums():
    a = jacobi_a_matrix()
    z = (F(1), F(2), F(3), F(4))
    w = apply_to_args(a, z)
    assert sum(v * v for v in z) == sum(v * v for v in w)
    assert sum(z) != sum(w)


def test_apply_to_chars_fixed_points():
    s4 = smith_matrix(4)
    zeros = tuple(Characteristic.zero(1) for _ in range(4))
    assert apply_to_chars(s4, zeros) == zeros
    c = Characteristic((F(1, 3),), (F(2, 5),))
    assert apply_to_chars(s4, (c, c, c, c)) == (c, c, c, c)


def test_apply_to_chars_explicit_n4():
    s4 = smith_matrix(4)
    mu = (
        Characteristic((F(1, 2),), (0,)),
        Characteristic.zero(1),
        Characteristic.zero(1),
        Characteristic.zero(1),
    )
    nu = apply_to_chars(s4, mu)
    # Cross-check against nu_j = (2/n) sum(mu) - mu_j.
    total = Characteristic((F(1, 2),), (0,))
    for j in range(4):
        assert nu[j] == F(2, 4) * total - mu[j]
    assert nu[0] == Characteristic((F(-1, 4),), (0,))
    assert nu[1] == Characteristic((F(1, 4),), (0,))


def test_apply_to_chars_conservation_and_denominators():
    rng = np.random.default_rng(24)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        lam = cycle_number(n)
        m = smith_matrix(n)
        mu = tuple(
            Characteristic(
                (F(int(rng.integers(0, lam)), lam),),
                (F(int(rng.integers(0, lam)), lam),),
            )
            for _ in range(n)
        )
        nu = apply_to_chars(m, mu)
        assert sum(c.top[0] for c in mu) == sum(c.top[0] for c in nu)
        assert sum(c.bottom[0] for c in mu) == sum(c.bottom[0] for c in nu)
        for c in nu:
            assert (lam * n) % c.top[0].denominator == 0
            assert (lam * n) % c.bottom[0].denominator == 0


def test_apply_to_chars_errors():
    # Each column's char_linear_combine checks the count and the genera.
    s3 = smith_matrix(3)
    with pytest.raises(ValueError, match="length mismatch: 3 coeffs, 2 chars"):
        apply_to_chars(s3, (Characteristic.zero(1), Characteristic.zero(1)))
    with pytest.raises(ValueError, match="length mismatch: 3 coeffs, 0 chars"):
        apply_to_chars(s3, ())
    with pytest.raises(ValueError, match="genus mismatch"):
        apply_to_chars(
            s3,
            (
                Characteristic.zero(1),
                Characteristic.zero(2),
                Characteristic.zero(1),
            ),
        )
