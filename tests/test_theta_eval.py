"""Evaluator tests against an independent high-precision summation oracle.

The oracle sums the defining series directly in mpmath working precision
and never touches the library's truncation or bound machinery, so the
two routes share nothing but the series definition.  Golden values below
were computed with the same oracle at 40 digits and frozen.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from thetarel import (
    Characteristic,
    EvalSettings,
    PeriodMatrix,
    TrialSampler,
    TruncationError,
    char_shift_phase,
    theta,
    theta_constant,
    theta_shift_table,
)
from thetarel.theta import TARGET_ABS_ERROR, _box_sum

F = Fraction


def oracle_theta_g1(mu_top, mu_bottom, z, tau, dps=30, radius=30):
    """Direct genus-1 series sum at elevated precision."""
    with mp.workdps(dps):
        mu_p = mp.mpf(mu_top.numerator) / mu_top.denominator
        mu_pp = mp.mpf(mu_bottom.numerator) / mu_bottom.denominator
        zz = mp.mpc(z)
        tt = mp.mpc(tau)
        total = mp.mpc(0)
        for k in range(-radius, radius + 1):
            v = k + mu_p
            total += mp.e ** (
                2j * mp.pi * (mp.mpf("0.5") * v * v * tt + v * (zz + mu_pp))
            )
        return complex(total)


GOLDEN_G1 = [
    # (mu_top, mu_bottom, z, tau, value)
    (F(0), F(0), 0j, 1j, 1.086434811213308 + 0j),
    (F(1, 3), F(0), 0j, 1.1j, 0.8986293291664757 + 0j),
    (F(1, 3), F(2, 3), 0.21 - 0.13j, 0.3 + 1.1j,
     -0.4533510094592733 + 0.8502165742403385j),
    (F(-1, 4), F(5, 4), -0.17 + 0.08j, -0.4 + 0.9j,
     -0.2498093998388330 - 1.0434208786595109j),
]


@pytest.mark.parametrize("mu_top,mu_bottom,z,tau,expected", GOLDEN_G1)
def test_golden_values_g1(mu_top, mu_bottom, z, tau, expected):
    mu = Characteristic((mu_top,), (mu_bottom,))
    tv = theta(mu, z, PeriodMatrix(np.array([[tau]])))
    assert abs(tv.value - expected) < 1e-12
    assert tv.tail_bound <= 1e-13


def test_golden_values_g2():
    tau = PeriodMatrix(
        np.array([[0.10 + 1.20j, 0.05 + 0.15j], [0.05 + 0.15j, -0.08 + 1.05j]])
    )
    z = np.array([0.1 + 0.04j, -0.07 + 0.10j])
    tv = theta(Characteristic.zero(2), z, tau)
    assert abs(tv.value - (1.1253753048100799 + 0.0068524820179242j)) < 5e-12
    mu = Characteristic((F(1, 3), F(2, 3)), (F(0), F(1, 3)))
    tv = theta(mu, z, tau)
    assert abs(tv.value - (0.7011107393053078 - 0.2198314918382203j)) < 5e-12


def test_positive_real_for_imaginary_period():
    tv = theta_constant(
        Characteristic((F(1, 3),), (0,)), PeriodMatrix(np.array([[1.1j]]))
    )
    assert tv.value.real > 0
    assert abs(tv.value.imag) < 1e-14


def test_against_live_oracle():
    rng = np.random.default_rng(31)
    sampler = TrialSampler(31)
    for _ in range(20):
        tau = sampler.draw_tau(rng, 1)
        mu = Characteristic(
            (F(int(rng.integers(-12, 13)), int(rng.integers(1, 13))),),
            (F(int(rng.integers(-12, 13)), int(rng.integers(1, 13))),),
        )
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        mine = theta(mu, z, tau).value
        ref = oracle_theta_g1(mu.top[0], mu.bottom[0], z, complex(tau.entries[0, 0]))
        assert abs(mine - ref) < 1e-11


def test_matches_classical_quadruple_conventions(tau_i):
    # The four half-integer characteristics against mpmath's jtheta family.
    z = 0.21 - 0.13j
    tau = 0.3 + 1.1j
    pm = PeriodMatrix(np.array([[tau]]))
    q = complex(mp.exp(1j * mp.pi * mp.mpc(tau)))
    h = F(1, 2)
    cases = [
        ((F(0), F(0)), complex(mp.jtheta(3, mp.pi * mp.mpc(z), q))),
        ((F(0), h), complex(mp.jtheta(4, mp.pi * mp.mpc(z), q))),
        ((h, F(0)), complex(mp.jtheta(2, mp.pi * mp.mpc(z), q))),
        ((h, h), complex(-mp.jtheta(1, mp.pi * mp.mpc(z), q))),
    ]
    for (top, bottom), expected in cases:
        mine = theta(Characteristic((top,), (bottom,)), z, pm).value
        assert abs(mine - expected) < 1e-12


def test_odd_characteristic_constant_vanishes(sampled_taus):
    mu = Characteristic((F(1, 2),), (F(1, 2),))
    for tau in sampled_taus:
        assert abs(theta_constant(mu, tau).value) < 1e-11


def test_top_integer_shift_invariance():
    rng = np.random.default_rng(32)
    sampler = TrialSampler(32)
    for _ in range(200):
        tau = sampler.draw_tau(rng, 1)
        mu = Characteristic(
            (F(int(rng.integers(0, 12)), 12),), (F(int(rng.integers(0, 12)), 12),)
        )
        k = int(rng.integers(-2, 3))
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        base = theta(mu, z, tau)
        shifted = theta(mu + Characteristic((k,), (0,)), z, tau)
        assert abs(shifted.value - base.value) <= 2 * (
            base.tail_bound + shifted.tail_bound
        )


def test_bottom_integer_shift_phase():
    rng = np.random.default_rng(33)
    sampler = TrialSampler(33)
    for _ in range(200):
        tau = sampler.draw_tau(rng, 1)
        mu = Characteristic(
            (F(int(rng.integers(0, 12)), 12),), (F(int(rng.integers(0, 12)), 12),)
        )
        k = int(rng.integers(-2, 3))
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        base = theta(mu, z, tau)
        shifted = theta(mu + Characteristic((0,), (k,)), z, tau)
        phase = char_shift_phase(mu, [k])
        assert abs(shifted.value - phase * base.value) <= 2 * (
            base.tail_bound + shifted.tail_bound
        )


def test_char_shift_phase_examples():
    assert char_shift_phase(Characteristic((F(1, 2),), (0,)), [1]) == pytest.approx(-1)
    assert char_shift_phase(Characteristic((F(1, 3),), (0,)), [3]) == pytest.approx(1)
    two = Characteristic((F(1, 3), F(2, 3)), (0, 0))
    assert char_shift_phase(two, [1, 1]) == pytest.approx(1)
    with pytest.raises(ValueError):
        char_shift_phase(two, [1])


def test_constant_reflection_symmetries(sampled_taus):
    rng = np.random.default_rng(34)
    for tau in sampled_taus:
        alpha = F(int(rng.integers(1, 12)), 12)
        beta = F(int(rng.integers(1, 12)), 12)

        def const(top, bottom):
            return theta_constant(Characteristic((top,), (bottom,)), tau)

        a1, a2 = const(1 - alpha, 0), const(alpha, 0)
        assert abs(a1.value - a2.value) <= 10 * (a1.tail_bound + a2.tail_bound)
        b1, b2 = const(0, 1 - beta), const(0, beta)
        assert abs(b1.value - b2.value) <= 10 * (b1.tail_bound + b2.tail_bound)
        c1, c2 = const(1 - alpha, beta), const(alpha, 1 - beta)
        phase = complex(np.exp(-2j * math.pi * float(alpha)))
        assert abs(c1.value - phase * c2.value) <= 10 * (
            c1.tail_bound + c2.tail_bound
        )


def test_evenness_of_even_theta():
    rng = np.random.default_rng(35)
    sampler = TrialSampler(35)
    zero = Characteristic.zero(1)
    for _ in range(200):
        tau = sampler.draw_tau(rng, 1)
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        a = theta(zero, z, tau)
        b = theta(zero, -z, tau)
        assert abs(a.value - b.value) <= 2 * (a.tail_bound + b.tail_bound)


def test_truncation_stability_radius_plus_four():
    rng = np.random.default_rng(36)
    sampler = TrialSampler(36)
    for _ in range(200):
        tau = sampler.draw_tau(rng, 1)
        mu = Characteristic(
            (F(int(rng.integers(0, 12)), 12),), (F(int(rng.integers(0, 12)), 12),)
        )
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        tv = theta(mu, z, tau)
        bigger, _ = _box_sum(
            mu.top, mu.bottom, np.array([z]), tau.entries, tv.truncation_radius + 4
        )
        assert abs(tv.value - bigger) <= 10 * tv.tail_bound


def test_period_matrix_validation():
    with pytest.raises(ValueError):
        PeriodMatrix(np.array([[1j, 0.2], [0.3, 1j]]))
    with pytest.raises(ValueError):
        PeriodMatrix(np.array([[1 + 1j, 2j], [2j, 1 + 1j]]))
    with pytest.raises(ValueError):
        PeriodMatrix(np.array([[-1j]]))
    pm = PeriodMatrix(np.array([[0.1 + 1.3j, 0.2j], [0.2j, 1.1j]]))
    assert pm.genus == 2
    true_min = float(np.linalg.eigvalsh(pm.entries.imag)[0])
    assert pm.lam_min <= true_min
    assert pm.lam_min >= 0.95 * true_min


@pytest.mark.parametrize("bad", [complex(math.inf, 1), complex(math.nan, 1),
                                 complex(0.1, math.inf), complex(0.1, math.nan)])
def test_period_matrix_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        PeriodMatrix(np.array([[bad]]))
    with pytest.raises(ValueError, match="finite"):
        PeriodMatrix(np.array([[1j, bad], [bad, 1j]]))


@pytest.mark.parametrize("z", [complex(math.nan), complex(math.inf, 0),
                               complex(0, -math.inf)])
def test_theta_rejects_non_finite_argument(z, tau_i):
    zero = Characteristic.zero(1)
    with pytest.raises(ValueError, match="finite"):
        theta(zero, z, tau_i)
    with pytest.raises(ValueError, match="finite"):
        theta_shift_table(zero, z, tau_i, 3)


def test_settings_validation():
    with pytest.raises(ValueError):
        EvalSettings(max_radius=0)
    with pytest.raises(ValueError):
        EvalSettings(max_radius=100)


def test_truncation_failure_reports_best_bound():
    pm = PeriodMatrix(np.array([[0.05j]]))
    with pytest.raises(TruncationError) as info:
        theta(Characteristic.zero(1), 0.3j, pm, EvalSettings(max_radius=6))
    err = info.value
    assert err.radius == 6
    assert err.target == TARGET_ABS_ERROR == 1e-13
    assert err.best_bound > err.target


def test_genus_mismatch_errors(tau_i):
    with pytest.raises(ValueError):
        theta(Characteristic.zero(2), 0j, tau_i)
    with pytest.raises(ValueError):
        theta(Characteristic.zero(1), np.zeros(2, dtype=complex), tau_i)


def test_bitwise_determinism(tau_i):
    mu = Characteristic((F(1, 3),), (F(2, 3),))
    a = theta(mu, 0.11 + 0.07j, tau_i)
    b = theta(mu, 0.11 + 0.07j, tau_i)
    assert a.value == b.value
    assert a.truncation_radius == b.truncation_radius
    assert a.tail_bound == b.tail_bound


def test_constant_is_theta_at_zero(tau_i):
    mu = Characteristic((F(1, 3),), (F(1, 4),))
    assert theta_constant(mu, tau_i).value == theta(mu, 0j, tau_i).value
