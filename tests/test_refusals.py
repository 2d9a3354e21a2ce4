"""Documented refusals of the library and the command line, each with its
exception type and message."""

import re

import numpy as np
import pytest

from thetarel import (
    Characteristic,
    CycleClass,
    PeriodMatrix,
    RelationSpec,
    class_of,
    enumerate_shifts,
    lhs_value,
    theta_shift_table,
    verify,
    verify_jacobi_a,
)
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
