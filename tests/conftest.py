import os

import numpy as np
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
