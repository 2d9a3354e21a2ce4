import os

# One BLAS thread per test process, where the caller has not chosen a
# count: a BLAS library reads these once, when numpy is first imported,
# and otherwise may start a thread per CPU in each process, which slows
# the wall-clock tests of a second process on the same host.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest

from thetarel import EvalSettings, PeriodMatrix, TrialSampler


@pytest.fixture
def settings():
    return EvalSettings()


@pytest.fixture
def tau_i():
    return PeriodMatrix(np.array([[1j]]))


@pytest.fixture
def sampled_taus():
    """Ten deterministic genus-1 periods from the default sampler window."""
    sampler = TrialSampler(seed=20240811)
    rng = sampler.make_rng()
    return [sampler.draw_tau(rng, 1) for _ in range(10)]


@pytest.fixture
def oriented_tau3():
    """A genus-3 period matrix whose Im tau has eigenvalues 0.2, 1 and 4
    (condition number 20) along a fixed random orthogonal frame, as the
    oriented slice of the theta-eval benchmark draws them: its boxes
    need radius 8 or more, and most of their points are terms below
    e^theta._SKIP_EXPONENT."""
    rng = np.random.default_rng(20261020)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diagonal(r))
    im = (q * np.array([0.2, 1.0, 4.0])) @ q.T
    re = rng.uniform(-0.5, 0.5, (3, 3))
    return PeriodMatrix(np.triu(re) + np.triu(re, 1).T + 1j * (im + im.T) / 2)


def _assert_same(got: str, expected: str) -> None:
    # A plain assert would have pytest diff two strings of up to ~1 MB
    # for minutes.
    if got != expected:
        i = len(os.path.commonprefix([got, expected]))
        pytest.fail(f"differs at offset {i}: {got[i:i + 40]!r} != {expected[i:i + 40]!r}")


@pytest.fixture
def assert_same():
    """Exact string comparison that reports the first differing offset
    instead of a full diff."""
    return _assert_same
