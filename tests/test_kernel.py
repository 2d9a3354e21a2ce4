"""One lattice-sum kernel and one row builder: theta() is one unstacked
row of the kernel, a stacked row's value and rounding bound are its
one-row value and bound bit for bit, and every row carries the radius
and tail envelope of its search.  The kernel's rounding bound, taken
from moments of the term sizes, is checked against its per-term
formula."""

import importlib
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thetarel import Characteristic, PeriodMatrix, TrialSampler, theta
from thetarel.theta import _box_sum

# The package name theta is the function; the module is imported by path.
theta_module = importlib.import_module("thetarel.theta")

ODD = (F(1, 7), F(5, 3), F(-4, 3), F(3, 11), F(-9, 4), F(0))


def _block(g, n, tau, seed):
    """(chars, z, side, rows): n characteristics with tops and bottoms
    from ODD at an (n, g) block of sampler arguments, and their rows."""
    rng = np.random.default_rng(seed)
    chars = [Characteristic(tuple(ODD[k] for k in rng.integers(0, len(ODD), g)),
                            tuple(ODD[k] for k in rng.integers(0, len(ODD), g)))
             for _ in range(n)]
    z = np.array(TrialSampler(seed).draw_args(rng, n, g))
    side = theta_module._side(chars, 1, theta_module.DEFAULT_SETTINGS)
    return chars, z, side, theta_module._block_rows(z, tau, *side)


def _weights(z, bottoms):
    """s = |Re z| + |Im z| + |mu''| of each row, as theta() gives it."""
    return np.abs(z.real) + np.abs(z.imag) + np.abs(bottoms)


def _per_term_bound(row, s):
    """The rounding bound of one row by its per-term formula, as _sums
    took it before the moment form: the weights M_t of every term from
    _quadratic on the grid, x_t = expm1(gamma_{g+7} 2 pi M_t) and

        1.01 (sum_t (|t|_1 + e^T) (gamma_L + 10u + x_t) + N e^T),

    each product summed in one numpy sum; inf wherever the formula
    overflows or is NaN."""
    plan, shift, entries = row
    v = [axis.v for axis in plan]
    terms = theta_module._grid_terms(v, shift, entries).ravel()
    weight = theta_module._quadratic([np.abs(x) for x in v],
                                     np.abs(entries.real) + np.abs(entries.imag), s).ravel()
    skip = math.exp(theta_module._SKIP_EXPONENT)
    size = np.abs(terms.real) + np.abs(terms.imag) + skip
    c = theta_module._gamma((len(terms) - 1).bit_length()) + 10 * 2.0**-53
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.expm1(theta_module._gamma(len(v) + 7) * 2 * math.pi * weight)
        return float(np.fmin(1.01 * ((size * (c + x)).sum() + len(terms) * skip), math.inf))


def _assert_near_per_term(bound, row, s):
    """The moment bound is never below the per-term one but for the
    rounding of its sums, and within 1e-6 above it."""
    assert 1 - 1e-12 <= bound / _per_term_bound(row, s) <= 1 + 1e-6


def _skipped_share(row):
    """The share of a row's terms left out as below e^_SKIP_EXPONENT."""
    plan, shift, entries = row
    return (theta_module._grid_terms([axis.v for axis in plan], shift, entries) == 0).mean()


# At Im tau = 0.12 I every g = 3 box has more than 8192 points, numpy's
# summation buffer, so a row's bound is more than one run of it.  At the
# oriented tau most terms of every row are skipped, so stacked rows with
# zeros at other points must still give the one-row results.
@pytest.mark.parametrize("g,tau", [
    (1, [[0.1 + 0.9j]]),
    (2, [[0.1 + 1.1j, 0.2 + 0.1j], [0.2 + 0.1j, -0.2 + 0.9j]]),
    (3, 0.12j * np.eye(3)),
    (3, "oriented_tau3"),
])
def test_stacked_values_and_bounds_are_the_one_row_ones(g, tau, request):
    oriented = isinstance(tau, str)
    tau = request.getfixturevalue(tau) if oriented else PeriodMatrix(np.array(tau))
    chars, z, side, rows = _block(g, 7, tau, g)
    s = _weights(z, side[1])
    seen = 0
    for index, plans, v, shift, entries in theta_module._stacks(rows):
        powers = [np.stack([axis.powers for axis in axes], axis=-1) for axes in zip(*plans)]
        values, bounds = theta_module._sums(v, shift, entries, s[index].T, powers)
        assert values.shape == bounds.shape == (len(index),)
        for i, value, bound in zip(index, values, bounds):
            plan, row_shift, row_tau = rows[i]
            one = theta_module._sums([axis.v for axis in plan], row_shift, row_tau, s[i],
                                     [axis.powers for axis in plan])
            assert np.array([value, bound]).tobytes() == np.array(one).tobytes()
            tv = theta(chars[i], z[i], tau)
            assert (tv.value, tv.truncation_radius) == (value, rows[i].radius)
            assert tv.tail_bound == rows[i].envelope + bound
            _assert_near_per_term(bound, rows[i], s[i])
            seen += 1
    assert seen == len(rows)
    if oriented:
        assert min(_skipped_share(row) for row in rows) > 0.5
        assert max(len(index) for index, *_ in theta_module._stacks(rows)) > 1
    elif g == 3:
        assert min(np.prod([len(axis.v) for axis in row[0]]) for row in rows) > 8192


def test_most_terms_of_a_g3_box_are_skipped():
    # Im tau = I, z = 0 and radius 6: a term is below e^-50 wherever
    # pi |v|^2 > 50, |v| > 4, which holds at all but about 12% of the
    # 13^3 points.  A kernel that stops skipping fails here.
    plan = theta_module._plan((F(0),) * 3, 6, 1)
    share = _skipped_share((plan, np.zeros(3, dtype=complex), 1j * np.eye(3)))
    assert 0.8 < share < 0.95


@pytest.mark.parametrize("g", [1, 2, 3])
def test_theta_is_one_row_of_the_kernel(g):
    rng = np.random.default_rng([31, g])
    sampler = TrialSampler(31)
    for _ in range(20):
        tau = sampler.draw_tau(rng, g)
        chars, z, side, (row,) = _block(g, 1, tau, int(rng.integers(1 << 30)))
        tv = theta(chars[0], z[0], tau)
        value, rounding = _box_sum(chars[0].top, chars[0].bottom, z[0], tau.entries, row.radius)
        assert (tv.value, tv.truncation_radius, tv.tail_bound) == (
            value, row.radius, row.envelope + rounding)
        assert type(tv.tail_bound) is float
        # Unless asked, the kernel takes no bound.
        plan, shift, entries = row
        assert theta_module._sums([axis.v for axis in plan], shift, entries)[1] is None


def _bits(value, radius, bound):
    return np.array([value]).tobytes(), radius, np.array([bound]).tobytes()


# Small tops, negative ones among them, and tops past 2^53 of either
# sign, whose box indices are far from zero while their points are not.
_TOP = st.one_of(st.fractions(-3, 3, max_denominator=7),
                 st.builds(lambda p, q, sign: sign * (2**53 + F(p, q)),
                           st.integers(0, 2**40), st.integers(1, 7), st.sampled_from([1, -1])))
# A part of z is a uniform draw, or a zero of either sign.
_PART = st.sampled_from([None, None, 0.0, -0.0])


@settings(max_examples=80, derandomize=True, deadline=None)
@given(g=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_theta_has_the_bits_of_its_block_row(g, seed, data):
    """theta()'s (value, radius, tail_bound) are those of the block
    builder's row: its stacked value, the one-row kernel on the row's
    own shift and the weights of its float arrays, and _box_sum at its
    radius, with every axis cold or warm."""
    top = tuple(data.draw(st.lists(_TOP, min_size=g, max_size=g)))
    bottom = tuple(data.draw(st.lists(st.fractions(-2, 2, max_denominator=9),
                                      min_size=g, max_size=g)))
    mu = Characteristic(top, bottom)
    rng = np.random.default_rng(seed)
    parts = [rng.uniform(-1.5, 1.5) if x is None else x
             for x in data.draw(st.lists(_PART, min_size=2 * g, max_size=2 * g))]
    z = np.array([complex(x, y) for x, y in zip(parts[::2], parts[1::2])])
    tau = TrialSampler(seed).draw_tau(rng, g)
    tv = theta(mu, z, tau)
    got = _bits(tv.value, tv.truncation_radius, tv.tail_bound)
    side = theta_module._side([mu], 1, theta_module.DEFAULT_SETTINGS)
    (row,) = theta_module._block_rows(z[None], tau, *side)
    (value,) = theta_module._theta_values([row])
    plan, shift, entries = row
    _, rounding = theta_module._sums([axis.v for axis in plan], shift, entries,
                                     _weights(z, side[1][0]), [axis.powers for axis in plan])
    assert got == _bits(value, row.radius, row.envelope + rounding)
    value, rounding = _box_sum(top, bottom, z, tau.entries, row.radius)
    assert got == _bits(value, row.radius, row.envelope + rounding)
    theta_module._axis.cache_clear()
    cold = theta(mu, z, tau)
    assert got == _bits(cold.value, cold.truncation_radius, cold.tail_bound)
    assert type(tv.value) is complex and type(tv.tail_bound) is float


@pytest.mark.parametrize("g", [1, 2, 3])
def test_the_moment_bound_is_within_1e_6_of_the_per_term_bound(g):
    # theta()'s own rows over sampler draws, at the radius of the search
    # and at radius + 4, where most of the box is skipped.
    rng = np.random.default_rng([34, g])
    sampler = TrialSampler(34)
    for _ in range(20):
        tau = sampler.draw_tau(rng, g)
        chars, z, side, (row,) = _block(g, 1, tau, int(rng.integers(1 << 30)))
        s = _weights(z, side[1])[0]
        for radius in (row.radius, row.radius + 4):
            _, bound = _box_sum(chars[0].top, chars[0].bottom, z[0], tau.entries, radius)
            plan = theta_module._plan(chars[0].top, radius, 1)
            _assert_near_per_term(bound, (plan, row[1], row[2]), s)


# Large exponent errors, Y about 0.5 at the box corner, where F is about
# 1.3 and the per-term bound is finite: a huge Re tau leaves the terms
# near the origin kept, with their x_t up to 0.3, and a huge Im tau at
# the top 1/2 skips every term, so its bound is the e^T sizes and N e^T.
@pytest.mark.parametrize("top, t", [(F(0), 1e13 + 1j), (F(1, 2), 1e13j)])
def test_a_large_exponent_error_keeps_the_bound_above_the_per_term_one(top, t):
    tau = PeriodMatrix(np.array([[t]]))
    plan = theta_module._plan((top,), 4, 1)
    shift, s = np.array([0.1 + 0.1j]), np.array([0.2])
    _, bound = theta_module._sums([axis.v for axis in plan], shift, tau.entries, s,
                                  [axis.powers for axis in plan])
    per_term = _per_term_bound((plan, shift, tau.entries), s)
    assert per_term * (1 - 1e-12) <= bound <= 1.5 * per_term


# Near overflow the exponent's error bound leaves expm1's range: at the
# box corner alone at Im tau = 2e16 (Y is about 1100 there), at every
# point off the origin beyond it, and 2 pi i tau overflows to NaN terms
# at 1e308.  The per-term bound is then inf too, and so must the moment
# bound be, never NaN.
@pytest.mark.parametrize("t", [2e16j, 0.3 + 1e300j, 1e20 + 1000j, 1e20 + 1j, 1e308j])
def test_a_bound_beyond_expm1s_range_is_inf_not_nan(t):
    tau = PeriodMatrix(np.array([[t]]))
    plan = theta_module._plan((F(0),), 4, 1)
    shift, s = np.array([0.1 + 0.1j]), np.array([0.2])
    with np.errstate(all="ignore"):
        _, bound = theta_module._sums([axis.v for axis in plan], shift, tau.entries, s,
                                      [axis.powers for axis in plan])
        assert _per_term_bound((plan, shift, tau.entries), s) == math.inf
    assert bound == math.inf


def test_every_row_carries_the_radius_and_envelope_of_its_search():
    # At this tau the rows of one block need radius 4, 6 or 8.
    tau = PeriodMatrix(np.array([[0.1 + 0.35j]]))
    _, z, side, rows = _block(1, 40, tau, 5)
    radii = side[-1]
    found = [theta_module._search(zj, tau, radii) for zj in 3 * z]
    rows = theta_module._block_rows(3 * z, tau, *side)
    assert [(row.radius, row.envelope) for row in rows] == found
    assert len({radius for radius, _ in found}) > 1
    # One plan per (j, radius) in the side's dict, shared by its rows.
    assert all(row[0] is side[3][j, row.radius] for j, row in enumerate(rows))


def test_a_nan_exponent_is_not_skipped():
    # 2 pi i tau overflows to -inf at Im tau = 1e308, and its complex
    # products with v make every exponent NaN: each term stays NaN, as
    # its exp is, rather than a zero that would hide it.
    with np.errstate(all="ignore"):
        terms = theta_module._grid_terms([np.array([0.0, 1.0])], np.zeros(1, dtype=complex),
                                         np.array([[1e308j]]))
    assert np.isnan(terms).all()
