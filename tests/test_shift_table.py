"""Batched shift tables and the digit-table term list against the per-term
constructions they replace, and the cache of lattice-sum axes."""

import importlib
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from thetarel import (
    Characteristic,
    CoefficientMode,
    EvalSettings,
    PeriodMatrix,
    RelationSpec,
    RelationTerm,
    TrialSampler,
    TruncationError,
    apply_to_args,
    build_relation,
    coefficient_kappa,
    cycle_number,
    enumerate_shifts,
    rhs_value,
    smith_matrix,
    theta,
    theta_shift_table,
)

F = Fraction
# The package name theta is the function; the module is imported by path.
theta_module = importlib.import_module("thetarel.theta")

# Non-standard characteristic entries: denominators that do not divide
# lambda, and values outside [0, 1).
ODD_ENTRIES = (F(1, 7), F(5, 3), F(-4, 3), F(3, 11), F(-9, 4))


def _rhs_per_term(spec, z, tau, settings=EvalSettings()):
    """Reference right side: one theta() call per factor of every term of
    the exact build_relation list.  Returns (value, sum of |terms|)."""
    ws = apply_to_args(smith_matrix(spec.n), z)
    total, scale = 0j, 0.0
    for term in build_relation(spec):
        prod = term.coefficient
        for chi, wj in zip(term.nu_shifted, ws):
            prod *= theta(chi, wj, tau, settings).value
        total += prod
        scale += abs(prod)
    return total, scale


def _exponents_per_term(spec):
    """Reference exponents: x(a) = -(sum_j mu'_j + kappa a') . a'' mod 1
    per shift a of enumerate_shifts, in Fractions."""
    kappa = coefficient_kappa(spec.n, spec.mode)
    tops = [sum(column) for column in zip(*(m.top for m in spec.mu))]
    return [
        -sum((t + kappa * c) * b for t, c, b in zip(tops, shift.top, shift.bottom)) % 1
        for shift in enumerate_shifts(spec.genus, spec.lam)
    ]


def _terms_per_term(spec):
    """Reference term list: the n Characteristic sums nu_j + a per shift a
    of enumerate_shifts, with the exponents above."""
    return [
        RelationTerm(shift, exponent, tuple(v + shift for v in spec._nu))
        for shift, exponent in zip(
            enumerate_shifts(spec.genus, spec.lam), _exponents_per_term(spec)
        )
    ]


def _mu(kind, n, g, rng):
    lam = cycle_number(n)

    def entry():
        if kind == "standard":
            return F(int(rng.integers(0, lam)), lam)
        return ODD_ENTRIES[int(rng.integers(0, len(ODD_ENTRIES)))]

    if kind == "zero":
        return None
    return tuple(
        Characteristic(tuple(entry() for _ in range(g)), tuple(entry() for _ in range(g)))
        for _ in range(n)
    )


@pytest.mark.parametrize("mode", list(CoefficientMode), ids=lambda m: m.value)
@pytest.mark.parametrize("kind", ["zero", "standard", "nonstandard"])
@pytest.mark.parametrize(
    "n,g", [(2, 1), (3, 1), (4, 1), (5, 1), (7, 1), (3, 2), (4, 2), (5, 2)]
)
def test_rhs_matches_per_term_oracle(n, g, kind, mode):
    rng = np.random.default_rng([n, g, len(kind)])
    spec = RelationSpec.create(n, g, _mu(kind, n, g, rng), mode)
    sampler = TrialSampler(1000 * n + g)
    zs, tau = sampler.draw(sampler.make_rng(), n, g)
    expected, scale = _rhs_per_term(spec, zs, tau)
    # Relative to the summed term sizes: a naive-mode right side can
    # cancel to 1e-5 of its terms, below the rounding of either path.
    assert abs(rhs_value(spec, zs, tau) - expected) <= 1e-12 * scale


@pytest.mark.parametrize("kind", ["zero", "standard", "nonstandard"])
@pytest.mark.parametrize(
    "n,g",
    [(n, g) for g in (1, 2) for n in range(2, 10)]
    + [(n, 3) for n in range(2, 10) if cycle_number(n) <= 3],
)
def test_build_relation_matches_per_term_oracle(n, g, kind):
    mu = _mu(kind, n, g, np.random.default_rng([n, g, len(kind)]))
    modified, naive = (RelationSpec.create(n, g, mu, mode) for mode in CoefficientMode)
    expected = _terms_per_term(modified)
    terms = build_relation(modified)
    assert terms == expected
    assert all(type(v) is Fraction for t in terms for c in (t.shift, *t.nu_shifted)
               for v in c.top + c.bottom)
    # The mode changes kappa only, so only the exponents differ.
    assert build_relation(naive) == [
        replace(t, exponent=e) for t, e in zip(expected, _exponents_per_term(naive))
    ]


def test_table_entries_are_per_shift_theta_values():
    tau = PeriodMatrix(np.array([[0.1 + 1.1j, 0.2 + 0.1j], [0.2 + 0.1j, -0.2 + 0.9j]]))
    nu = Characteristic((F(5, 3), F(-1, 7)), (F(1, 2), F(-4, 3)))
    w = np.array([0.3 - 0.2j, -0.1 + 0.35j])
    table = theta_shift_table(nu, w, tau, 3)
    expected = [theta(nu + a, w, tau).value for a in enumerate_shifts(2, 3)]
    assert table.shape == (81,)
    assert np.allclose(table, expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("max_radius", [4, 6])
def test_truncation_parity_with_oracle(max_radius):
    """The batched path raises TruncationError on exactly the trials on
    which the per-term path raises it."""
    settings = EvalSettings(max_radius=max_radius)
    sampler = TrialSampler(77)
    rng = sampler.make_rng()
    outcomes = []
    for n in (3, 4, 5):
        spec = RelationSpec.create(n, 1)
        for _ in range(12):
            zs = tuple(2.5 * z for z in sampler.draw_args(rng, n, 1))
            tau = PeriodMatrix(np.array([[rng.uniform(-0.5, 0.5) + 1j * rng.uniform(0.3, 1.2)]]))
            raised = []
            for evaluate in (_rhs_per_term, rhs_value):
                try:
                    evaluate(spec, zs, tau, settings)
                    raised.append(False)
                except TruncationError:
                    raised.append(True)
            assert raised[0] == raised[1]
            outcomes.append(raised[0])
    # Both outcomes occur, so the parity is not vacuous.
    assert any(outcomes) and not all(outcomes)


def _shift_table_unplanned(nu, w, tau, lam):
    """Reference shift table: every exact part rebuilt from nu, and each
    axis mixed by the dense lam^2 x lam x lam root-of-unity matrix
    [r, c, b] -> [r = c (mod lam)] e[b (r/lam + m)/lam], m = nu'_a."""
    t = theta_module
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    radius = t._search(w, tau, t._side([nu], lam, EvalSettings())[-1])[0]
    g, sq = tau.genus, lam * lam
    ks, v = [], []
    for m in nu.top:
        p, q = m.numerator, m.denominator
        ks.append(range(-(lam * (radius * q + p) // q), lam * (radius * q - p) // q + 1))
        v.append(np.array([(p * lam + j * q) / (q * lam) for j in ks[-1]]))
    bottom = np.array([float(m) for m in nu.bottom])
    terms = t._grid_terms(v, w + bottom, tau.entries).ravel()
    residues = [np.arange(k.start, k.stop) % sq * sq ** (g - 1 - a) for a, k in enumerate(ks)]
    bins = sum(t._on_grid(residues)).ravel()
    table = (
        np.bincount(bins, terms.real, sq**g) + 1j * np.bincount(bins, terms.imag, sq**g)
    ).reshape((sq,) * g)
    r = np.arange(sq)[:, None, None]
    c = np.arange(lam)[None, :, None]
    b = np.arange(lam)[None, None, :]
    for m in map(float, nu.top):
        phase = (r * b) % sq / sq + b * m / lam
        table = np.tensordot(table, np.where(r % lam == c, np.exp(2j * np.pi * phase), 0),
                             axes=(0, 0))
    order = list(range(0, 2 * g, 2)) + list(range(1, 2 * g, 2))
    return table.transpose(order).reshape(-1)


def _clear_axes():
    theta_module._axis.cache_clear()


# lam = 2, 3, 5 and 7 at g <= 3, 13 at g <= 2 and 48 (n = 96) at g = 1.
DENSE_CASES = [(lam, g) for lam in (2, 3, 5, 7) for g in (1, 2, 3)] + [(13, 1), (13, 2), (48, 1)]


@pytest.mark.parametrize("tops", ["zero", "small", "large"])
@pytest.mark.parametrize("lam,g", DENSE_CASES)
def test_shift_tables_are_within_1e_13_of_the_dense_mix(lam, g, tops):
    """The DFT-and-twiddle mixing against the dense mix of the unplanned
    reference, relative to the largest entry, at tops of 0, of small
    fractions and of fractions up to 30 in modulus."""
    rng = np.random.default_rng([lam, g, len(tops)])
    bound = {"zero": (0, 1), "small": (3, 12), "large": (30, 12)}[tops]

    def entry():
        q = int(rng.integers(1, bound[1] + 1))
        return F(int(rng.integers(-bound[0] * q, bound[0] * q + 1)), q)

    nu = Characteristic(tuple(entry() for _ in range(g)),
                        tuple(F(int(rng.integers(-9, 10)), 7) for _ in range(g)))
    (w,), tau = TrialSampler(lam).draw(rng, 1, g)
    expected = _shift_table_unplanned(nu, w, tau, lam)
    table = theta_shift_table(nu, w, tau, lam)
    assert np.abs(table - expected).max() <= 1e-13 * np.abs(expected).max()


# (2, 1) has lambda = 1, so its shift table and theta() share their axes.
@pytest.mark.parametrize("n,g", [(2, 1), (3, 1), (5, 2), (3, 3)])
def test_cold_and_warm_plans_give_the_same_bits(n, g):
    rng = np.random.default_rng([n, g])
    lam = cycle_number(n)
    nu = _mu("nonstandard", n, g, rng)[0]
    (w,), tau = TrialSampler(0).draw(rng, 1, g)

    def table():
        return theta_shift_table(nu, w, tau, lam).tobytes()

    def value():
        tv = theta(nu, w, tau)
        return np.array([tv.value, tv.tail_bound]).tobytes(), tv.truncation_radius

    def hits():
        return theta_module._axis.cache_info().hits

    _clear_axes()
    cold = table()
    _clear_axes()
    cold_value = value()
    table()
    before = hits()
    assert (table(), value()) == (cold, cold_value)
    # theta() looks its g axes up once, and so does the table, whose side
    # also holds the plan of the first radius, 4, where the search picks
    # another.
    assert hits() == before + g * (2 if cold_value[1] == 4 else 3)


def test_plan_arrays_are_read_only():
    nu = Characteristic((F(1, 3), F(-4, 3)), (F(2, 3), F(1, 7)))
    plan = theta_module._plan(nu.top, 4, 3)
    arrays = [array for axis in plan for array in (axis.v, axis.phase)]
    assert len(arrays) == 4
    # An axis holds what (top_a, radius, lam) fixes, and nothing of a bottom.
    assert all(set(vars(axis)) == {"top", "lam", "ks", "v", "phase"} for axis in plan)
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_tops_with_different_bottoms_share_one_plan():
    tau = PeriodMatrix(np.array([[0.1 + 1.1j, 0.2 + 0.1j], [0.2 + 0.1j, -0.2 + 0.9j]]))
    w = np.array([0.3 - 0.2j, -0.1 + 0.35j])
    chars = [Characteristic((F(1, 3), F(-4, 3)), bottom)
             for bottom in ((F(2, 3), F(1, 7)), (F(-5, 3), F(3, 11)))]
    _clear_axes()
    warm = [theta_shift_table(nu, w, tau, 3).tobytes() for nu in chars]
    info = theta_module._axis.cache_info()
    # Two axes at the first radius, 4, and two at the radius searched.
    assert (info.misses, info.hits) == (4, 4)
    # The second table, made on the first one's axes, has the bits of
    # its own cold call.
    for nu, table in zip(chars, warm):
        _clear_axes()
        assert theta_shift_table(nu, w, tau, 3).tobytes() == table


def _abs_term_sum(top, w, tau, lam):
    """Sum of |e[(1/2) v tau . v + v . w]| over v in top + (1/lam) Z^g,
    |v|_inf <= R, R the radius of theta(); top holds small rationals."""
    radii = theta_module._side([Characteristic.zero(len(top))], 1, EvalSettings())[-1]
    radius = theta_module._search(w, tau, radii)[0]
    axes = [np.array([float(t) + k / lam
                      for k in range(math.floor(lam * (-radius - t)), math.ceil(lam * (radius - t)) + 1)
                      if abs(t + F(k, lam)) <= radius])
            for t in top]
    v = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    y = tau.entries.imag
    return float(np.exp(-2 * np.pi * (0.5 * np.einsum("pa,ab,pb->p", v, y, v) + v @ w.imag)).sum())


@pytest.mark.parametrize("j", [10**8, -10**8, 10**20, -10**20])
@pytest.mark.parametrize("n,g", [(3, 1), (4, 2), (5, 2)])
def test_large_tops_give_per_shift_theta_values(n, g, j):
    """A top nu' + lam j, far outside the box, gives the table of
    per-shift theta() calls: its box indices k need not fit in int64, and
    the phase of each bottom shift is exact."""
    lam = cycle_number(n)
    rng = np.random.default_rng([n, g])
    small = _mu("nonstandard", n, g, rng)[0]
    nu = Characteristic(tuple(t + lam * j for t in small.top), small.bottom)
    (w,), tau = TrialSampler(0).draw(rng, 1, g)
    table = theta_shift_table(nu, w, tau, lam)
    expected = [theta(nu + a, w, tau).value for a in enumerate_shifts(g, lam)]
    scale = _abs_term_sum(small.top, w, tau, lam)
    assert np.abs(table - expected).max() <= 1e-12 * scale


def test_plan_cache_is_bounded():
    """theta() and the lambda = 3 shift tables each fill _axis up to its
    size, and no further."""
    tau = PeriodMatrix(np.array([[0.1 + 1.1j]]))
    size = theta_module._axis.cache_info().maxsize
    assert size == theta_module._PLAN_CACHE_SIZE
    for call in (lambda nu: theta(nu, 0.1j, tau),
                 lambda nu: theta_shift_table(nu, 0.1j, tau, 3)):
        _clear_axes()
        for k in range(size + 5):
            call(Characteristic((F(k, size + 5),), (F(0),)))
        assert theta_module._axis.cache_info().currsize == size


def test_a_g3_working_set_of_theta_axes_misses_nothing_on_a_second_pass():
    """12 tops with 36 distinct coordinates at the radii 4, 6, ..., 16
    are 252 lambda = 1 axes, which _axis keeps together."""
    tops = [tuple(F(3 * i + a, 37) for a in range(3)) for i in range(12)]
    radii = range(4, 17, 2)
    _clear_axes()
    for _ in range(2):
        for top in tops:
            for radius in radii:
                theta_module._plan(top, radius, 1)
    info = theta_module._axis.cache_info()
    assert (info.misses, info.hits, info.currsize) == (252, 252, 252)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(lam=st.integers(1, 199), radius=st.integers(1, 8),
       top=st.lists(st.fractions(-40, 40, max_denominator=12), min_size=1, max_size=3))
# Two points and lambda = 1: the (3, 2) table of theta()'s bound is
# longer than both along its first dimension.
@example(lam=1, radius=1, top=[Fraction(1, 2)])
def test_no_cached_axis_holds_an_array_longer_than_its_points_or_lambda(lam, radius, top):
    """Every array an axis caches, its points and its phase, is at
    most max(len(ks), lam) long along each dimension, and the table of
    theta()'s bound is (3, len(v)): no axis holds a lam^2 or lam^4
    array."""
    for axis in (theta_module._axis(m.numerator, m.denominator, radius, lam) for m in top):
        axis.v, axis.phase, axis.powers
        longest = max(len(axis.ks), lam)
        assert axis.powers.shape == (3, len(axis.v))
        assert all(max(x.shape) <= longest for x in vars(axis).values()
                   if isinstance(x, np.ndarray) and x is not axis.powers)


def test_a_plan_keeps_no_bins_of_a_large_box():
    # At Im tau = 0.06 I the (3, 3) box has radius 16: 97^3 grid points,
    # whose terms and fold buffers take over 14 MB.  They are built for
    # the call, and the one axis that the three zero coordinates share
    # keeps no array longer than its 97 points; the axis of the first
    # radius, 4, which the side holds, keeps none.  The table made cold
    # has the bits of the table made on the cached axis.
    nu = Characteristic.zero(3)
    w, tau = np.array([0.1, -0.2, 0.3 + 0j]), PeriodMatrix(0.06j * np.eye(3))
    _clear_axes()
    table = theta_shift_table(nu, w, tau, 3)
    info = theta_module._axis.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 4, 2)
    first = theta_module._axis(0, 1, 4, 3)
    assert not any(isinstance(x, np.ndarray) for x in vars(first).values())
    axis = theta_module._axis(0, 1, 16, 3)
    arrays = [x for x in vars(axis).values() if isinstance(x, np.ndarray)]
    assert len(arrays) == 2 and len(axis.ks) == 97
    assert max(x.size for x in arrays) == 97
    assert theta_shift_table(nu, w, tau, 3).tobytes() == table.tobytes()
