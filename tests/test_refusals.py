"""Documented refusals of the library and the command line, each with its
exception type and message."""

import re
import tracemalloc

import numpy as np
import pytest

from thetarel import (
    Characteristic,
    CoefficientMode,
    CycleClass,
    PeriodMatrix,
    RelationSpec,
    TrialSampler,
    TruncationError,
    class_of,
    enumerate_shifts,
    lhs_value,
    theta_shift_table,
    verify,
    verify_jacobi_a,
)
from thetarel import relations
from thetarel.cli import main

TAU1 = PeriodMatrix(np.array([[0.1 + 1.1j]]))
TAU2 = PeriodMatrix(np.array([[1.0j, 0.1j], [0.1j, 1.2j]]))

# (call, exception type, message, stderr)
REFUSALS = {
    "cycle-class-lambda-0": (lambda: CycleClass(0, 0), ValueError,
                             "lambda must be positive, got 0", ""),
    "cycle-class-index-3-of-3": (lambda: CycleClass(3, 3), ValueError,
                                 "class index 3 outside [0, 3)", ""),
    "class-of-lambda-0": (lambda: class_of([1], 0), ValueError,
                          "lambda must be positive, got 0", ""),
    "shifts-genus-0": (lambda: enumerate_shifts(0, 2), ValueError,
                       "need genus >= 1, got 0", ""),
    "shifts-lambda-0": (lambda: enumerate_shifts(1, 0), ValueError,
                        "need lambda >= 1, got 0", ""),
    "period-matrix-not-square": (lambda: PeriodMatrix(1j * np.ones((1, 2))), ValueError,
                                 "period matrix must be square, got shape (1, 2)", ""),
    "verify-no-trials": (lambda: verify(RelationSpec.create(3, 1), 0), ValueError,
                         "need at least one trial", ""),
    "jacobi-at-genus-2": (lambda: verify_jacobi_a([np.zeros(2)] * 4, TAU2), ValueError,
                          "the quadruple relation is a genus-1 statement", ""),
    "lhs-two-vectors-for-n-3": (
        lambda: lhs_value(RelationSpec.create(3, 1), [np.array([0.1]), np.array([0.2])], TAU1),
        ValueError, "need 3 complex vectors of length 1", ""),
    "shift-table-lambda-0": (
        lambda: theta_shift_table(Characteristic.zero(1), 0.1, TAU1, lam=0), ValueError,
        "need lambda >= 1, got 0", ""),
    "cli-after-double-dash": (
        lambda: main(["verify", "--n", "3", "--", "--tau", "-1"]), SystemExit, "64",
        "thetarel: error: unrecognized arguments: -- --tau -1\n"),
}


@pytest.mark.parametrize("call,exception,message,stderr", REFUSALS.values(), ids=REFUSALS)
def test_refusal_raises_as_documented(call, exception, message, stderr, capsys):
    with pytest.raises(exception, match=f"^{re.escape(message)}$"):
        call()
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", stderr)


class _NoDraws(TrialSampler):
    def make_rng(self):
        raise AssertionError("drew before refusing the spec")


def test_the_right_side_cap_refuses_13_3_and_keeps_11_3_and_199_1():
    cap = relations._MAX_RIGHT_ENTRIES
    # Refused right sides need more than 1 GiB at 18 bytes per entry.
    assert (cap + 1) * 18 > 2**30
    assert 11**7 <= cap and 199**3 <= cap < 13**7


@pytest.mark.parametrize("mode", list(CoefficientMode), ids=lambda m: m.value)
def test_verify_refuses_an_oversized_right_side_before_allocating(mode):
    spec = RelationSpec.create(13, 3, mode=mode)
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError, match=f"^the right side has {13**7} shift-table "
                           f"entries a trial, above the cap of {relations._MAX_RIGHT_ENTRIES} "
                           "entries$"):
            verify(spec, 1, sampler=_NoDraws())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("command", ["verify", "falsify"])
def test_the_command_line_exits_2_on_an_oversized_right_side(command, capsys):
    assert main([command, "--n", "13", "--g", "3", "--trials", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"thetarel: error: the right side has {13**7} shift-table entries a trial, "
                   f"above the cap of {relations._MAX_RIGHT_ENTRIES} entries\n")
