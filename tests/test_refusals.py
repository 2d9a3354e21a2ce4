"""Documented refusals of the library and the command line, each with its
exception type and message."""

import importlib
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
    rhs_value,
    smith_matrix,
    theta_shift_table,
    verify,
    verify_jacobi_a,
)
from thetarel.cli import main

theta_module = importlib.import_module("thetarel.theta")

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
    "smith-matrix-1": (lambda: smith_matrix(1), ValueError, "need n >= 2, got 1", ""),
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


def _side_bytes(n, entries):
    return (theta_module._HELD_BYTES * n + theta_module._FOLD_BYTES) * entries


def _side_refusal(n, entries):
    return (f"{n} shift tables of {entries} entries would need {_side_bytes(n, entries)} "
            f"bytes, above the cap of {2**30} bytes")


def test_the_right_side_cap_refuses_13_3_and_keeps_11_3_and_199_1():
    cap = theta_module._MAX_SIDE_BYTES
    assert cap == 2**30
    assert _side_bytes(11, 11**6) <= cap and _side_bytes(199, 199**2) <= cap
    assert _side_bytes(13, 13**6) > cap and _side_bytes(401, 401**2) > cap
    # One table at genus 1 is kept up to lam = 3596.
    assert _side_bytes(1, 3596**2) <= cap < _side_bytes(1, 3597**2)


@pytest.mark.parametrize("mode", list(CoefficientMode), ids=lambda m: m.value)
def test_verify_refuses_an_oversized_right_side_before_allocating(mode):
    spec = RelationSpec.create(13, 3, mode=mode)
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError, match=f"^{_side_refusal(13, 13**6)}$"):
            verify(spec, 1, sampler=_NoDraws())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("call", [
    lambda: rhs_value(RelationSpec.create(13, 3), [np.zeros(3)] * 13,
                      PeriodMatrix(1j * np.eye(3))),
    lambda: theta_shift_table(Characteristic.zero(1), 0.1, TAU1, 3597),
], ids=["rhs-13-3", "shift-table-lambda-3597"])
def test_a_side_over_the_cap_is_refused_before_it_is_allocated(call):
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError, match=" bytes, above the cap of 1073741824 bytes$"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("command", ["verify", "falsify"])
def test_the_command_line_exits_2_on_an_oversized_right_side(command, capsys):
    for spec, n, entries in (["--n", "13", "--g", "3"], 13, 13**6), (["--n", "401"], 401, 401**2):
        assert main([command, *spec, "--trials", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"thetarel: error: {_side_refusal(n, entries)}\n"
