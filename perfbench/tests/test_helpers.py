"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import itertools
import math
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest

from reference import box_points, reference_theta
from spans import Tracer, install, self_times


def _jtheta_mu(a, b, z, tau):
    """Genus-1 theta with characteristic (a; b) from mpmath's jtheta:
    theta_(a;b)(z) = e[a^2 tau / 2 + a (z + b)] * theta_3(pi (z + a tau + b), q)."""
    with mp.workdps(30):
        a, b, z, tau = mp.mpf(a.numerator) / a.denominator, \
            mp.mpf(b.numerator) / b.denominator, mp.mpc(z), mp.mpc(tau)
        q = mp.exp(1j * mp.pi * tau)
        pre = mp.exp(1j * mp.pi * a * a * tau + 2j * mp.pi * a * (z + b))
        return complex(pre * mp.jtheta(3, mp.pi * (z + a * tau + b), q))


def _mp_series(top, bottom, z, tau, radius=12):
    """Genus-g defining series summed in mpmath at 30 digits."""
    g = len(top)
    with mp.workdps(30):
        tau = [[mp.mpc(tau[i][j]) for j in range(g)] for i in range(g)]
        arg = [mp.mpc(z[i]) + mp.mpf(bottom[i].numerator) / bottom[i].denominator
               for i in range(g)]
        total = mp.mpc(0)
        for xi in itertools.product(range(-radius, radius + 1), repeat=g):
            v = [xi[i] + mp.mpf(top[i].numerator) / top[i].denominator for i in range(g)]
            quad = sum(v[i] * tau[i][j] * v[j] for i in range(g) for j in range(g))
            total += mp.exp(2j * mp.pi * (quad / 2 + sum(v[i] * arg[i] for i in range(g))))
        return complex(total)


G1_POINTS = [
    (F(0), F(0), 0j, 1j),
    (F(1, 2), F(0), 0.2 - 0.1j, 0.3 + 0.9j),
    (F(1, 3), F(2, 3), 0.21 - 0.13j, 0.3 + 1.1j),
    (F(5, 6), F(1, 4), -0.4 + 0.45j, -0.5 + 0.2j),
]


@pytest.mark.parametrize("a,b,z,tau", G1_POINTS)
def test_reference_matches_mpmath_jtheta_genus1(a, b, z, tau):
    value, rounding = reference_theta((a,), (b,), np.array([z]), np.array([[tau]]))
    exact = _jtheta_mu(a, b, z, tau)
    assert abs(value - exact) <= rounding
    assert rounding < 1e-12 * max(1.0, abs(exact))


G2_POINTS = [
    ((F(0), F(0)), (F(0), F(0)), (0j, 0j),
     [[0.10 + 1.20j, 0.05 + 0.15j], [0.05 + 0.15j, -0.08 + 1.05j]]),
    ((F(1, 3), F(2, 3)), (F(0), F(1, 3)), (0.1 + 0.04j, -0.07 + 0.10j),
     [[0.10 + 1.20j, 0.05 + 0.15j], [0.05 + 0.15j, -0.08 + 1.05j]]),
    # Equicorrelated Im tau, smallest eigenvalue 0.2 (the _min_eig_lower case).
    ((F(1, 3), F(0)), (F(0), F(1, 2)), (0.1 + 0.3j, -0.2 - 0.3j),
     [[0.1 + 1.0j, 0.8j], [0.8j, 0.1 + 1.0j]]),
]


@pytest.mark.parametrize("top,bottom,z,tau", G2_POINTS)
def test_reference_matches_mpmath_series_genus2(top, bottom, z, tau):
    value, rounding = reference_theta(top, bottom, np.array(z), np.array(tau))
    # Radius 12 leaves a tail below exp(-pi * 0.2 * 144 + 2 pi * 12 * 0.43) ~ 1e-25.
    exact = _mp_series(top, bottom, z, tau, radius=12)
    assert abs(value - exact) <= rounding
    assert rounding < 1e-12 * max(1.0, abs(exact))


@pytest.mark.parametrize("top", [
    (F(0),), (F(1, 2),), (F(-7, 3),), (F(0), F(5, 6)), (F(1, 4), F(2, 3), F(-1, 5)),
])
@pytest.mark.parametrize("radius", [0, 1, 4, 7])
def test_box_points_equals_enumeration(top, radius):
    lo = -radius - 4
    brute = sum(
        1 for xi in itertools.product(range(lo, -lo + 1), repeat=len(top))
        if max(abs(x + m) for x, m in zip(xi, top)) <= radius
    )
    assert box_points(top, radius) == brute


def test_self_times_on_synthetic_tree():
    spans = [
        ["root", 0, 100, -1],
        ["a", 10, 30, 0],
        ["b", 20, 50, 0],     # overlaps a: the union [10, 50] counts once
        ["c", 90, 120, 0],    # overhangs root: clipped to [90, 100]
        ["d", 12, 18, 1],     # grandchild: subtracted from a only
        ["e", 60, 60, 0],     # empty
    ]
    assert self_times(spans) == [100 - 40 - 10, 20 - 6, 30, 30, 6, 0]


def test_install_records_nested_spans_and_uninstalls():
    from thetarel import Characteristic, PeriodMatrix, RelationSpec

    # thetarel.theta is shadowed by the function of that name.
    relations = importlib.import_module("thetarel.relations")
    theta_mod = importlib.import_module("thetarel.theta")

    before = (relations.theta, relations.build_relation, theta_mod.PeriodMatrix.__init__)
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        spec = RelationSpec.create(3, 1)
        tau = PeriodMatrix(np.array([[0.1 + 1.1j]]))
        relations.rhs_value(spec, [0.1j, 0.2, -0.1], tau)
        Characteristic.parse("1/3;0")
    finally:
        uninstall()
    assert (relations.theta, relations.build_relation,
            theta_mod.PeriodMatrix.__init__) == before
    names = [s[0] for s in tracer.spans]
    assert names.count("theta.theta") == 27          # 9 terms x 3 factors
    assert "theta.PeriodMatrix" in names
    assert "charalg.Characteristic.parse" in names
    rhs = names.index("relations.rhs_value")
    build = names.index("relations.build_relation")
    assert tracer.spans[build][3] == rhs
    assert tracer.counts["relations.build_relation.terms"] == 9
    assert all(s[1] <= s[2] for s in tracer.spans)
    assert math.isclose(sum(self_times(tracer.spans)),
                        sum(s[2] - s[1] for s in tracer.spans if s[3] < 0))
