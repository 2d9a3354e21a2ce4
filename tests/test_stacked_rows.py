"""Stacked lattice sums against one sum at a time: verify's reports and
lhs_value and rhs_value bit for bit, stacks that cross the point cap,
their memory, and the refusal of a box too large to allocate."""

import importlib
import math
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from thetarel import (
    Characteristic,
    CoefficientMode,
    EvalSettings,
    PeriodMatrix,
    RelationSpec,
    TrialSampler,
    TruncationError,
    apply_to_args,
    cycle_number,
    lhs_value,
    rhs_value,
    smith_matrix,
    theta,
    theta_shift_table,
    verify,
)
from thetarel.cli import main
from thetarel.relations import GENERIC_GAP, MAX_RESAMPLES, VerificationReport, _compare

# The package names theta and verify are functions; the modules are
# imported by path.
theta_module = importlib.import_module("thetarel.theta")
relations = importlib.import_module("thetarel.relations")

F = Characteristic.parse
ODD = ("1/7", "5/3", "-4/3", "3/11", "-9/4")


def _mu(kind, n, g, rng):
    """None (all zero), or n characteristics with entries in (1/lambda) Z
    ("standard") or from ODD ("nonstandard")."""
    if kind == "zero":
        return None
    lam = cycle_number(n)

    def half():
        if kind == "standard":
            return ",".join(f"{int(k)}/{lam}" for k in rng.integers(0, lam, g))
        return ",".join(ODD[int(k)] for k in rng.integers(0, len(ODD), g))

    return [F(f"{half()};{half()}") for _ in range(n)]


def _lhs_alone(spec, zs, tau, settings):
    """lambda^g prod_j theta(mu_j, z_j).value: one theta() call per factor."""
    value = complex(spec.lam**spec.genus)
    for m, zj in zip(spec.mu, zs):
        value *= theta(m, zj, tau, settings).value
    return value


def _rhs_alone(spec, zs, tau, settings):
    """The right side from one theta_shift_table() call per j."""
    ws = apply_to_args(smith_matrix(spec.n), zs)
    tables = [theta_shift_table(chi, wj, tau, spec.lam, settings)
              for chi, wj in zip(spec._nu, ws)]
    return complex(math.prod(tables, start=spec._coefficients).sum())


def _verify_alone(spec, trials, sampler, settings, tau=None):
    """verify as a loop of single trials and single sums, in its rng order."""
    rng = sampler.make_rng()
    naive = spec.mode is CoefficientMode.NAIVE
    reports = []
    for idx in range(trials):
        for _ in range(MAX_RESAMPLES if naive else 1):
            zs = sampler.draw_args(rng, spec.n, spec.genus)
            trial_tau = tau if tau is not None else sampler.draw_tau(rng, spec.genus)
            try:
                lhs = _lhs_alone(spec, zs, trial_tau, settings)
                rhs = _rhs_alone(spec, zs, trial_tau, settings)
            except TruncationError:
                nan = complex(math.nan)
                report = VerificationReport(
                    nan, nan, math.nan, math.nan, zs, trial_tau, "eval-failed", idx)
                break
            report = _compare(lhs, rhs, zs, trial_tau, idx)
            if not naive or report.status != "ok" or report.rel_error >= GENERIC_GAP:
                break
            report = replace(report, status="flagged")
        reports.append(report)
    return reports


def _bits(report):
    """Every field of a report, each float and array as its bytes."""
    out = []
    for f in fields(report):
        value = getattr(report, f.name)
        if isinstance(value, PeriodMatrix):
            value = value.entries
        if isinstance(value, (complex, float, tuple, np.ndarray)):
            value = np.asarray(value).tobytes()
        out.append(value)
    return out


def _same_reports(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert _bits(a) == _bits(b)


# Every (n, g, mu kind, mode) for n = 2..7 and g = 1..3, but for one
# (7, 3) case: each of its right-side boxes has 2e5 points.
CASES = [
    (n, g, kind, mode)
    for g in (1, 2, 3) for n in range(2, 8)
    for kind in ("zero", "standard", "nonstandard") for mode in CoefficientMode
    if (n, g) != (7, 3) or (kind, mode) == ("nonstandard", CoefficientMode.MODIFIED)
]


@pytest.mark.parametrize("n,g,kind,mode", CASES,
                         ids=[f"{n}-{g}-{k}-{m.value}" for n, g, k, m in CASES])
def test_stacked_sums_match_single_sums_bit_for_bit(n, g, kind, mode, settings):
    rng = np.random.default_rng([n, g, len(kind)])
    spec = RelationSpec.create(n, g, _mu(kind, n, g, rng), mode)
    # The boxes of (5, 3) have 7e4 points.
    trials = 1 if g == 3 and n in (5, 7) else 3
    sampler = TrialSampler(100 * n + g)
    expected = _verify_alone(spec, trials, sampler, settings)
    _same_reports(verify(spec, trials, sampler=sampler), expected)
    first = expected[0]
    assert first.status != "eval-failed"
    assert (np.array(lhs_value(spec, first.z, first.tau)).tobytes()
            == np.array(first.lhs).tobytes())
    assert (np.array(rhs_value(spec, first.z, first.tau)).tobytes()
            == np.array(first.rhs).tobytes())


# Integer offsets of the tops j/lam + m below: at radius 2 they give box
# starts k0 = -(lam (2 + m) + j) that are negative (m = 0, 3), positive
# (m = -7) and beyond int64 either way (m = +-10^20).
TOP_OFFSETS = (0, 3, -7, 10**20, -10**20)


@pytest.mark.parametrize("lam", [2, 3, 5, 7])
@pytest.mark.parametrize("g", [1, 2, 3])
def test_a_stack_of_mixed_tops_gives_each_table_its_one_row_bits(g, lam, monkeypatch):
    """A stack whose rows have different tops j/lam + m (one box shape)
    gives each table the bits of that row's own one-row _shift_tables
    call; the box starts of every axis cover every class mod lam."""
    monkeypatch.setattr(theta_module, "_STACK_POINTS", 2**30)
    rng = np.random.default_rng([g, lam])
    (w,), tau = TrialSampler(lam).draw(rng, 1, g)
    rows = []
    for i in range(len(TOP_OFFSETS) * lam):
        top = tuple(Fraction((i + a) % lam, lam) + TOP_OFFSETS[(i + 2 * a) % 5]
                    for a in range(g))
        bottom = rng.uniform(-2, 2, g)
        rows.append(theta_module._Row(theta_module._plan(top, 2, lam), w + bottom,
                                      tau.entries, 2, 0.0))
    for axes in zip(*(plan for plan, _, _ in rows)):
        starts = [axis.ks.start for axis in axes]
        assert {k % lam for k in starts} == set(range(lam))
        assert min(starts) < -2**63 and max(starts) > 2**63
        assert any(-100 < k < 0 for k in starts) and any(0 < k < 100 for k in starts)
    assert len(list(theta_module._stacks(rows))) == 1
    tables = theta_module._shift_tables(rows)
    for row, table in zip(rows, tables):
        assert table.tobytes() == theta_module._shift_tables([row])[0].tobytes()


def _recorded_rows(monkeypatch):
    """The (radius, lam, box shape) of every row relations evaluates: the
    rows a relation check builds from each trial's argument blocks."""
    rows = []
    block_rows = relations._block_rows

    def recording(z, tau, tops, bottoms, lam, plans, radii):
        made = block_rows(z, tau, tops, bottoms, lam, plans, radii)
        for zj, (plan, _, _) in zip(z, made):
            shape = tuple(len(axis.ks) for axis in plan)
            rows.append((theta_module._search(zj, tau, radii)[0], lam, shape))
        return made

    monkeypatch.setattr(relations, "_block_rows", recording)
    return rows


@pytest.mark.parametrize("mode", list(CoefficientMode), ids=lambda m: m.value)
@pytest.mark.parametrize("g,tau", [
    (1, [[0.1 + 0.35j]]),
    (2, [[0.1 + 0.5j, 0.2 + 0.1j], [0.2 + 0.1j, -0.2 + 0.6j]]),
])
def test_a_fixed_tau_with_mixed_radii_and_box_shapes(g, tau, mode, settings, monkeypatch):
    tau = PeriodMatrix(np.array(tau))
    rng = np.random.default_rng(g)
    spec = RelationSpec.create(3, g, _mu("nonstandard", 3, g, rng), mode)
    sampler = TrialSampler(17)
    rows = _recorded_rows(monkeypatch)
    got = verify(spec, 6, sampler=sampler, tau=tau)
    # One run stacks rows of several radii and box shapes on each side.
    for lam in (1, 3):
        assert len({r for r, side, _ in rows if side == lam}) > 1
        assert len({s for _, side, s in rows if side == lam}) > 1
    _same_reports(got, _verify_alone(spec, 6, sampler, settings, tau))


@pytest.mark.parametrize("cap", [2**14, 1, 81])
@pytest.mark.parametrize("mode", list(CoefficientMode), ids=lambda m: m.value)
def test_failed_and_passing_trials_in_one_run(mode, cap, monkeypatch):
    # At max_radius 4 this tau's radius search fails for some trials'
    # arguments and succeeds for others.  A (3, 1) trial has 27
    # shift-table entries, so a modified-mode run checks its 20 trials in
    # one chunk, or in chunks of 1 or 3 trials; caps 1 and 81 also split
    # the stacks of lattice sums.
    monkeypatch.setattr(theta_module, "_STACK_POINTS", cap)
    settings = EvalSettings(max_radius=4)
    tau = PeriodMatrix(np.array([[0.1 + 0.8j]]))
    spec = RelationSpec.create(3, 1, mode=mode)
    sampler = TrialSampler()
    got = verify(spec, 20, sampler=sampler, settings=settings, tau=tau)
    statuses = {r.status for r in got}
    assert "eval-failed" in statuses and statuses - {"eval-failed"}
    _same_reports(got, _verify_alone(spec, 20, sampler, settings, tau))


@pytest.mark.parametrize("cap", [1, 30, 700, 20000])
@pytest.mark.parametrize("n,g,kind", [(3, 1, "nonstandard"), (4, 2, "standard"),
                                      (3, 3, "zero")])
def test_stacks_that_cross_the_point_cap_give_the_same_bytes(n, g, kind, cap, settings,
                                                             monkeypatch):
    rng = np.random.default_rng([n, g])
    spec = RelationSpec.create(n, g, _mu(kind, n, g, rng))
    sampler = TrialSampler(5)
    expected = _verify_alone(spec, 4, sampler, settings)
    monkeypatch.setattr(theta_module, "_STACK_POINTS", cap)
    _same_reports(verify(spec, 4, sampler=sampler), expected)


def test_a_verify_run_sums_its_rows_in_few_stacks(monkeypatch):
    # 20 trials of (3, 1) have 60 rows per side, of one or two box shapes
    # per side at radius 4 or 6, all far below the point cap.
    calls = []
    grid_terms = theta_module._grid_terms
    monkeypatch.setattr(theta_module, "_grid_terms",
                        lambda *args: calls.append(args) or grid_terms(*args))
    reports = verify(RelationSpec.create(3, 1), 20)
    assert all(r.status == "ok" for r in reports)
    assert len(calls) <= 8
    assert sum(args[0][0].shape[1] for args in calls) == 120


def _peak(fn, *args):
    """(fn(*args), or the TruncationError it raised, and the peak of its
    traced allocations in bytes)."""
    tracemalloc.start()
    try:
        try:
            result = fn(*args)
        except TruncationError as exc:
            result = exc
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_stacked_run_stays_within_its_cap_in_memory():
    # The 180 right-side rows of 60 trials at (3, 2) hold 112500 points;
    # summed in one stack they peak at 5.5 MB, and in stacks of at most
    # 2^14 points at 1.6 MB.
    assert theta_module._STACK_POINTS == 2**14
    spec = RelationSpec.create(3, 2)
    verify(spec, 1)
    reports, peak = _peak(verify, spec, 60)
    assert all(r.status == "ok" for r in reports)
    assert peak < 3_000_000


def test_a_run_holds_the_tables_of_one_chunk_whatever_its_trial_count():
    # A (5, 3) trial's five shift tables hold 5 * 5^6 entries, more than
    # a chunk's 2^14, so every trial is a chunk of its own; at this tau
    # every box has radius 4.  Holding the tables of all trials at once,
    # 8 trials peaked 8.8 MB above one trial.
    assert theta_module._STACK_POINTS == 2**14
    spec = RelationSpec.create(5, 3)
    tau = PeriodMatrix(3j * np.eye(3))
    verify(spec, 1, tau=tau)
    peaks = []
    for trials in (1, 8):
        reports, peak = _peak(lambda: verify(spec, trials, tau=tau))
        assert [r.status for r in reports] == ["ok"] * trials
        peaks.append(peak)
    assert peaks[1] < peaks[0] + 200_000


def test_a_box_over_the_cap_is_refused_before_it_is_allocated():
    cap = theta_module._MAX_BOX_POINTS
    # Refused boxes need at least 1 GiB at 50 bytes per point.
    assert (cap + 1) * 50 >= 2**30
    tau = PeriodMatrix(1j * np.eye(12))
    zero = Characteristic.zero(12)
    for call in (lambda: theta(zero, np.zeros(12), tau),
                 lambda: theta_shift_table(zero, np.zeros(12), tau, 2)):
        error, peak = _peak(call)
        assert isinstance(error, TruncationError)
        assert peak < 100_000
    # The radius search picks 6 here, whose box has 13^12 points.
    with pytest.raises(TruncationError, match=f"radius 6 has {13**12} points, "
                       f"above the cap of {cap} points"):
        theta(zero, np.zeros(12), tau)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_a_box_at_the_cap_would_fit_in_1_gib(g, monkeypatch):
    """theta()'s lattice sum (_box_sum, at a radius past max_radius) of a
    box of just over 2^19 points, whose halving buffer is then 2^20, and
    lam = 3 shift tables of about 2^19 points, one row alone and two rows
    stacked, peak at most 2^30 / _MAX_BOX_POINTS bytes per box point, with
    the axes of their plans built, as a warm call finds them."""
    tau, z = 0.01 + 0.05j * np.eye(g), np.full(g, 0.1 + 0j)
    side = {1: 2**19 + 1, 2: 725, 3: 81}[g]
    top, radius = (Fraction(0),) * g, (side - 1) // 2
    for axis in theta_module._plan(top, radius, 1):
        axis.v, axis.powers
    _, peak = _peak(theta_module._box_sum, top, (Fraction(1, 5),) * g, z, tau, radius)
    figures = [peak / side**g]
    # Boxes of 6 radius + 1 points a side.
    radius = {1: 87381, 2: 120, 3: 13}[g]
    rows = [theta_module._Row(theta_module._plan((Fraction(j, 3),) * g, radius, 3), z, tau,
                              radius, 0.0) for j in range(2)]
    for axis in (axis for plan, _, _ in rows for axis in plan):
        axis.v, axis.phase
    for stacked in rows[:1], rows:
        monkeypatch.setattr(theta_module, "_STACK_POINTS", len(stacked) * (6 * radius + 1)**g)
        assert len(list(theta_module._stacks(stacked))) == 1
        _, peak = _peak(theta_module._shift_tables, stacked)
        figures.append(peak / (len(stacked) * (6 * radius + 1)**g))
    assert max(figures) <= 2**30 / theta_module._MAX_BOX_POINTS


def test_a_side_at_the_cap_would_fit_in_1_gib():
    """One shift table at g = 1, lam = 1000, peaks at about 64 bytes per
    entry, and a one-trial verify at (199, 1), (23, 2) and (9, 3) at 17
    to 22 bytes per held right-side entry: each within the bytes that
    _side's rule counts for its n tables of lam^(2g) entries, so a side
    the rule admits fits in 1 GiB."""
    held, fold = theta_module._HELD_BYTES, theta_module._FOLD_BYTES
    assert theta_module._MAX_SIDE_BYTES == 2**30
    tau = PeriodMatrix(np.array([[0.1 + 1.1j]]))
    table, peak = _peak(theta_shift_table, Characteristic.zero(1), 0.1, tau, 1000)
    assert table.shape == (10**6,)
    assert peak <= (held + fold) * 10**6
    for n, g in (199, 1), (23, 2), (9, 3):
        spec = RelationSpec.create(n, g)
        reports, peak = _peak(verify, spec, 1)
        assert reports[0].status == "ok"
        assert peak <= (held * n + fold) * spec.lam ** (2 * g)


def test_a_genus_one_axis_over_the_cap_is_refused_before_it_is_allocated():
    # At genus 1 the box is one axis: at lam = 3e6 and radius 4 it has
    # 24e6 + 1 points, whose v alone would take 192 MB.
    tau = PeriodMatrix(np.array([[0.1 + 1.1j]]))
    zero = Characteristic.zero(1)
    error, peak = _peak(lambda: theta_shift_table(zero, 0.1, tau, 3_000_000))
    assert isinstance(error, TruncationError)
    assert f"radius 4 has {24_000_001} points" in str(error)
    assert peak < 100_000


class _NoDraws(TrialSampler):
    def make_rng(self):
        raise AssertionError("drew before refusing the spec")


@pytest.mark.parametrize("mode", list(CoefficientMode), ids=lambda m: m.value)
@pytest.mark.parametrize("g", [12, 65])
def test_verify_refuses_a_spec_with_oversized_boxes_before_drawing(g, mode):
    spec = RelationSpec.create(2, g, mode=mode)
    error, peak = _peak(lambda: verify(spec, 1, sampler=_NoDraws()))
    assert isinstance(error, TruncationError) and f"has {9**g} points" in str(error)
    assert peak < 1_000_000


@pytest.mark.parametrize("command", ["verify", "falsify"])
@pytest.mark.parametrize("g", ["12", "65"])
def test_the_command_line_exits_2_on_an_oversized_box(command, g, capsys):
    assert main([command, "--n", "2", "--g", g, "--trials", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"thetarel: error: the box at radius 4 has {9**int(g)} points, "
                   f"above the cap of {theta_module._MAX_BOX_POINTS} points\n")
