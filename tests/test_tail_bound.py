"""tail_bound must bound |value - exact| for every valid period matrix.

The oracle sums the defining series in mpmath over a box whose radius
comes from numpy's eigenvalues of Im tau with a factor-2 safety margin,
skipping terms below e^-80 of the largest; it shares no truncation,
eigenvalue-bound or summation code with the evaluator.  Skewed Im tau,
with a small eigenvalue along a lattice diagonal, is where a lam_min
estimate that overstates the smallest eigenvalue shows.
"""

import importlib.util
import itertools
import math
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from thetarel import Characteristic, PeriodMatrix, TrialSampler, TruncationError, theta
from thetarel.theta import _box_sum

# The package name theta is the function; the module is imported by path.
theta_module = importlib.import_module("thetarel.theta")

F = Fraction
# Terms below e^-CUTOFF of the largest are left out of the oracle sum.
CUTOFF = 80.0


def _box_points(mu: Characteristic, radius: int) -> np.ndarray:
    """The xi in Z^g with max_a |xi_a + mu'_a| <= radius, lexicographic."""
    lo = [math.ceil(-radius - m) for m in mu.top]
    hi = [math.floor(radius - m) for m in mu.top]
    return np.array(list(itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))))


def _log_magnitudes(mu: Characteristic, z, tau, xi: np.ndarray) -> np.ndarray:
    """log |term| at the integer points xi, in floats."""
    v = xi + np.array([float(m) for m in mu.top])
    return -math.pi * ((v @ tau.imag) * v).sum(axis=1) - 2 * math.pi * v @ z.imag


def _mp_series(mu: Characteristic, z, tau, xi, dps: int):
    """Sum of the series terms at the integer points xi, in mpmath."""
    g = len(z)
    with mp.workdps(dps):
        tt = [[mp.mpc(tau[i, j]) for j in range(g)] for i in range(g)]
        frac = [mp.mpf(m.numerator) / m.denominator for m in mu.top + mu.bottom]
        mu_top = frac[:g]
        shift = [mp.mpc(z[a]) + frac[g + a] for a in range(g)]
        total = mp.mpc(0)
        for k in xi:
            w = [int(k[a]) + mu_top[a] for a in range(g)]
            quad = sum(w[a] * tt[a][b] * w[b] for a in range(g) for b in range(g))
            total += mp.exp(2j * mp.pi * (quad / 2 + sum(w[a] * shift[a] for a in range(g))))
        return total


def oracle_theta(mu: Characteristic, z, tau, dps: int = 30) -> complex:
    """Direct genus-g series sum at elevated precision."""
    tau = np.asarray(tau, dtype=complex)
    z = np.asarray(z, dtype=complex)
    lam = float(np.linalg.eigvalsh(tau.imag)[0]) / 2
    y_norm = float(np.linalg.norm(z.imag))
    # Smallest R with pi lam R^2 - 2 pi R |Im z| >= CUTOFF.
    radius = math.ceil((y_norm + math.sqrt(y_norm**2 + lam * CUTOFF / math.pi)) / lam) + 1
    xi = _box_points(mu, radius)
    log_mag = _log_magnitudes(mu, z, tau, xi)
    return complex(_mp_series(mu, z, tau, xi[log_mag >= log_mag.max() - CUTOFF], dps))


@pytest.mark.parametrize("off", [0.8j, 0.85j])
def test_equicorrelated_reproduction_within_tail_bound(off):
    # Im tau = [[1, c], [c, 1]]: smallest eigenvalue 1 - c (0.2, 0.15) on
    # (1, -1), orthogonal to (1, 1), so inverse iteration started from
    # (1, 1) never sees it.
    tau = np.array([[0.1 + 1j, off], [off, 0.1 + 1j]])
    mu = Characteristic.parse("1/3,0;0,1/2")
    z = np.array([0.1 + 0.3j, -0.2 - 0.3j])
    tv = theta(mu, z, PeriodMatrix(tau))
    assert abs(tv.value - oracle_theta(mu, z, tau)) <= tv.tail_bound


fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
parts = st.floats(-0.4, 0.4)


# No shrinking: every example costs an mpmath sum, and shrinking a failure
# takes minutes; the unshrunk failing example is reported as drawn.
@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.explicit, Phase.generate],
)
@given(
    # Direction of the smallest eigenvector: a lattice axis or diagonal,
    # including (1, -1), which inverse iteration from (1, 1) misses.
    direction=st.tuples(st.integers(-1, 1), st.integers(-1, 1)).filter(any),
    lam=st.floats(0.2, 1.0),
    cond=st.floats(1.0, 20.0),
    re=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
    z=st.tuples(*[parts] * 4),
    top=st.tuples(fractions, fractions),
    bottom=st.tuples(fractions, fractions),
)
def test_skewed_genus2_within_tail_bound(direction, lam, cond, re, z, top, bottom):
    u = np.array(direction) / math.hypot(*direction)
    im = lam * np.outer(u, u) + lam * cond * np.outer((-u[1], u[0]), (-u[1], u[0]))
    tau = np.array([[re[0], re[1]], [re[1], re[2]]]) + 1j * im
    mu = Characteristic(top, bottom)
    zv = np.array([z[0] + 1j * z[1], z[2] + 1j * z[3]])
    tv = theta(mu, zv, PeriodMatrix(tau))
    assert abs(tv.value - oracle_theta(mu, zv, tau)) <= tv.tail_bound


def _draw(rng, g):
    """(mu, z, tau): eigenvalues of Im tau in [0.15, 3] along a random
    orthogonal frame, |Im z|_2 up to 1.5, and characteristics p/q with
    q <= 12 and values in [-2, 2], so outside [0, 1) and with
    denominators that need not divide anything."""
    q, r = np.linalg.qr(rng.standard_normal((g, g)))
    q = q * np.sign(np.diagonal(r))
    im = (q * rng.uniform(0.15, 3.0, g)) @ q.T
    re = rng.uniform(-0.5, 0.5, (g, g))
    tau = np.triu(re) + np.triu(re, 1).T + 1j * (im + im.T) / 2
    d = rng.standard_normal(g)
    z = rng.uniform(-0.5, 0.5, g) + 1j * rng.uniform(0.0, 1.5) * d / np.linalg.norm(d)
    den = rng.integers(1, 13, 2 * g)
    vals = [F(int(p), int(q)) for p, q in zip(rng.integers(-2 * den, 2 * den + 1), den)]
    return Characteristic(tuple(vals[:g]), tuple(vals[g:])), z, tau


# Box terms below e^-BOX_CUTOFF of the largest are left out of the
# 50-digit sum; their total is added to the allowance, so the comparison
# is with the exact sum of the whole box to about 45 digits.
BOX_CUTOFF = 110.0


@pytest.mark.parametrize("g, draws", [(1, 100), (2, 60), (3, 16)])
def test_box_sum_rounding_bound(g, draws):
    """|_box_sum value - exact sum of the same box| <= its rounding bound,
    at the searched radius and at radius + 4 (where the rounding, not
    the tail, is all that separates the two)."""
    rng = np.random.default_rng([20261018, g])
    worst = 0.0
    for _ in range(draws):
        mu, z, tau = _draw(rng, g)
        radius = theta(mu, z, PeriodMatrix(tau)).truncation_radius
        for r in (radius, radius + 4):
            value, bound = _box_sum(mu.top, mu.bottom, z, tau, r)
            xi = _box_points(mu, r)
            log_mag = _log_magnitudes(mu, z, tau, xi)
            keep = log_mag >= log_mag.max() - BOX_CUTOFF
            skipped = int((~keep).sum()) * math.exp(log_mag.max() - BOX_CUTOFF + 1.0)
            with mp.workdps(50):
                error = abs(mp.mpc(value) - _mp_series(mu, z, tau, xi[keep], 50))
                ratio = float(error / (bound + skipped))
            worst = max(worst, ratio)
            assert ratio <= 1.0, (mu, z, tau, r, float(error), bound)
    print(f"g={g}: worst |value - exact box sum| / bound = {worst:.3g}")


def _load_reference():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("g", [1, 2, 3])
def test_stress_against_reference(g):
    """theta() against perfbench/reference.py, an independent numpy sum
    over a larger box with its own rounding bound, on 200 draws."""
    reference_theta = _load_reference().reference_theta
    rng = np.random.default_rng([1729, g])
    worst = 0.0
    for _ in range(200):
        mu, z, tau = _draw(rng, g)
        tv = theta(mu, z, PeriodMatrix(tau))
        ref, ref_rounding = reference_theta(mu.top, mu.bottom, z, tau)
        ratio = abs(tv.value - ref) / (tv.tail_bound + 2.0 * ref_rounding)
        worst = max(worst, ratio)
        assert ratio <= 1.0, (mu, z, tau, abs(tv.value - ref), tv.tail_bound)
    print(f"g={g}: worst |value - ref| / (tail_bound + 2 ref_rounding) = {worst:.3g}")


@pytest.mark.parametrize("t", [0.3 + 1e300j, 1e20 + 1000j, 1e20 + 1j])
def test_rounding_bound_is_inf_not_nan_when_the_exponent_error_overflows(t):
    # The terms off the origin underflow to 0 while the bound of their
    # exponent error overflows expm1; 0 * inf must not make it NaN.
    tv = theta(Characteristic.parse("0;0"), 0.1 + 0.1j, PeriodMatrix(np.array([[t]])))
    assert tv.tail_bound == math.inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("z", [0, 0.1 + 0.1j])
@pytest.mark.parametrize("t", [1e308j, 1e307 + 1j])
def test_theta_raises_when_its_value_is_not_a_finite_number(t, z):
    # The exponents overflow, and the sum is NaN: no value is returned.
    with pytest.raises(TruncationError) as raised:
        theta(Characteristic.parse("0;0"), z, PeriodMatrix(np.array([[t]])))
    assert raised.value.best_bound == math.inf and raised.value.radius >= 1


def test_the_rounding_bound_counts_the_skipped_terms(oriented_tau3, monkeypatch):
    """At an oriented g = 3 Im tau, radius 8 or more, most of the box is
    below e^_SKIP_EXPONENT and left out of the sum.  The bound on those
    terms' mass, e^T sum (1 + expm1(gamma_{g+7} 2 pi M)) over them,
    covers the change of the value from the same call with every term
    kept, and the kernel's rounding bound is larger than that sum's by
    at least as much."""
    mu = Characteristic((F(1, 3), F(0), F(-1, 2)), (F(1, 5), F(0), F(1, 2)))
    z = np.array([0.2 + 0.3j, -0.1 - 0.2j, 0.3 + 0.1j])
    tau = oriented_tau3.entries
    tv = theta(mu, z, oriented_tau3)
    radius = tv.truncation_radius
    assert radius >= 8
    v = [axis.v for axis in theta_module._plan(mu.top, radius, 1)]
    bottom = np.array([float(m) for m in mu.bottom])
    skipped = theta_module._grid_terms(v, z + bottom, tau) == 0
    assert skipped.mean() > 0.9
    weight = theta_module._quadratic([np.abs(x) for x in v], np.abs(tau.real) + np.abs(tau.imag),
                                     np.abs(z.real) + np.abs(z.imag) + np.abs(bottom))
    clause = math.exp(theta_module._SKIP_EXPONENT) * float(
        np.sum(1.0 + np.expm1(_gamma(3 + 7) * 2 * math.pi * weight[skipped])))
    _, rounding = _box_sum(mu.top, mu.bottom, z, tau, radius)

    monkeypatch.setattr(theta_module, "_SKIP_EXPONENT", -math.inf)
    kept = theta(mu, z, oriented_tau3)
    _, kept_rounding = _box_sum(mu.top, mu.bottom, z, tau, radius)

    assert abs(tv.value - kept.value) <= clause <= tv.tail_bound
    # Every skipped term adds e^T (1 + ...) to the bound, however small
    # it is, while the same term kept adds its size times about 1e-15:
    # the bound without the clause fails this.
    assert rounding - kept_rounding >= clause
    assert abs(tv.value - oracle_theta(mu, z, tau)) <= tv.tail_bound


# Period matrices and arguments on the grid 2^-20 Z: then z + tau m is
# exact in floats for every integer m with |m_a| <= 1, so the relation
# below holds for the float inputs exactly.
SCALE = 2**20
U = 2.0**-53


def _gamma(n: int) -> float:
    return n * U / (1 - n * U)


def _phase(m, tau_n, z_n, bottom) -> tuple[complex, float]:
    """(phase_hat, e): e[-x] for x = (1/2) m tau m + m.(z + bottom) with
    tau = tau_n / SCALE and z = z_n / SCALE, in floats, and e with
    |phase_hat - e[-x]| <= e |e[-x]|.

    x is exact: Re x mod 1 and Im x are Fractions, each rounded once to
    r and y.  e[-x] = M U with M = exp(2 pi Im x) and U = e^{-2 pi i Re x}.
    The angle 2 pi r takes three roundings (2 pi, r, the product), so it
    is within gamma_3 2 pi of 2 pi Re x mod 1 < 2 pi, and |U_hat - U| is
    at most that plus 4u for cos and sin (each within 2 ulps, an ulp at
    most 2u of the value).  The exponent 2 pi y is within gamma_3 of
    2 pi Im x relatively, and exp adds 2 ulps, so M_hat is within
    (1 + expm1(gamma_3 |2 pi y|)) (1 + 4u) - 1 of M relatively.  The
    product M_hat U_hat rounds each part once more (u)."""
    quad = sum(int(m[a]) * int(m[b]) * tau_n[a, b] for a in range(len(m)) for b in range(len(m)))
    lin = sum(int(m[a]) * z_n[a] for a in range(len(m)))
    x_re = (Fraction(int(quad.real), 2 * SCALE) + Fraction(int(lin.real), SCALE)
            + sum(int(k) * b for k, b in zip(m, bottom)))
    x_im = Fraction(int(quad.imag), 2 * SCALE) + Fraction(int(lin.imag), SCALE)
    r, y = float(x_re % 1), float(x_im)
    angle, modulus = 2 * math.pi * r, math.exp(2 * math.pi * y)
    phase = complex(modulus * math.cos(angle), -modulus * math.sin(angle))
    e_unit = _gamma(3) * 2 * math.pi + 4 * U
    e_mod = (1 + math.expm1(_gamma(3) * abs(2 * math.pi * y))) * (1 + 4 * U) - 1
    return phase, (1 + e_mod) * (1 + e_unit) * (1 + U) - 1


def test_theta_is_quasi_periodic_within_its_tail_bounds():
    """theta_mu(z + tau m) = e[-(1/2) m tau m - m.(z + mu'')] theta_mu(z)
    for every integer vector m (shift the summation index by m).  With
    tb the tail_bound of theta() and e the relative error of the
    computed phase (_phase),

        |theta(z + tau m) - phase theta(z)|
            <= tb(z + tau m) + M tb(z) + M e |theta(z)|,  M = |e[-x]|,

    and M <= |phase| / (1 - e).  The test's own complex product is within
    sqrt(2) gamma_2 (Higham 2002, section 3.6); the subtraction, the
    abs and the dozen operations that form the right side are covered by
    the factor 1 + gamma_12.  Draws: g = 1..3, |m_a| <= 1, sampler tau
    and arguments on the 2^-20 grid, characteristics p/q with q <= 12
    and values in [-2, 2]."""
    worst = []
    fractions = st.builds(Fraction, st.integers(-24, 24), st.integers(1, 12)).filter(
        lambda f: abs(f) <= 2)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        g=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        m=st.tuples(*[st.integers(-1, 1)] * 3),
        z=st.tuples(*[st.integers(-SCALE * 2 // 5, SCALE * 2 // 5)] * 6),
        top=st.tuples(*[fractions] * 3),
        bottom=st.tuples(*[fractions] * 3),
    )
    def check(g, seed, m, z, top, bottom):
        sampler = TrialSampler(seed)
        drawn = sampler.draw_tau(sampler.make_rng(), g).entries
        tau_n = np.round(drawn.real * SCALE) + 1j * np.round(drawn.imag * SCALE)
        z_n = np.array(z[:g]) + 1j * np.array(z[3:3 + g])
        w_n = z_n + tau_n @ np.array(m[:g])
        tau = PeriodMatrix(tau_n / SCALE)
        mu = Characteristic(top[:g], bottom[:g])
        at_w, at_z = theta(mu, w_n / SCALE, tau), theta(mu, z_n / SCALE, tau)
        phase, e = _phase(m[:g], tau_n, z_n, mu.bottom)
        modulus = abs(phase) / (1 - e)
        allowance = (at_w.tail_bound + modulus * at_z.tail_bound + modulus * e * abs(at_z.value)
                     + math.sqrt(2) * _gamma(2) * abs(phase) * abs(at_z.value))
        ratio = abs(at_w.value - phase * at_z.value) / (allowance * (1 + _gamma(12)))
        worst.append(ratio)
        assert ratio <= 1.0, (g, seed, m, z, top, bottom, ratio)

    check()
    print(f"worst |theta(z + tau m) - phase theta(z)| / allowance = {max(worst):.3g}")
