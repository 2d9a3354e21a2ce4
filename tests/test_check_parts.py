"""A relation check builds its rows from parts derived once per check,
and naive mode checks every trial's first attempt in chunks before it
resamples one attempt at a time: both against one attempt at a time."""

import importlib
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from thetarel import (
    Characteristic,
    CoefficientMode,
    PeriodMatrix,
    RelationSpec,
    TrialSampler,
    verify,
)
from test_stacked_rows import _mu, _same_reports

theta_module = importlib.import_module("thetarel.theta")
relations = importlib.import_module("thetarel.relations")


def _one_at_a_time(spec, trials, sampler, settings):
    """(reports, attempts): naive-mode verify as a loop of one-attempt
    checks, each trial resampled while its sides agree, with GENERIC_GAP
    read at call time, and the number of attempts it checks."""
    rng = sampler.make_rng()
    reports, attempts = [], 0
    for idx in range(trials):
        for _ in range(relations.MAX_RESAMPLES):
            attempts += 1
            (report,) = relations._check(spec, [sampler.draw(rng, spec.n, spec.genus)],
                                         settings, idx)
            if report.status != "ok" or report.rel_error >= relations.GENERIC_GAP:
                break
            report = replace(report, status="flagged")
        reports.append(report)
    return reports, attempts


# At GENERIC_GAP 0.3 most (4, 1) naive attempts agree, so seed 3 has
# flagged trials and trials resampled until they disagree; at 0.03 few
# agree, so seed 6's first agreeing trial comes late.  A cap of 48
# points makes chunks of 3 trials.
@pytest.mark.parametrize("cap", [2**14, 48])
@pytest.mark.parametrize("gap,seed", [(0.3, 3), (0.03, 6)])
def test_naive_mode_gives_the_reports_of_one_attempt_at_a_time(gap, seed, cap, settings,
                                                               monkeypatch):
    monkeypatch.setattr(relations, "GENERIC_GAP", gap)
    spec = RelationSpec.create(4, 1, mode=CoefficientMode.NAIVE)
    sampler, trials = TrialSampler(seed), 12
    expected, attempts = _one_at_a_time(spec, trials, sampler, settings)
    statuses = {r.status for r in expected}
    assert statuses == ({"flagged", "ok"} if gap == 0.3 else {"ok"})

    checked = []
    check = relations._check
    monkeypatch.setattr(relations, "_check", lambda spec, draws, *args:
                        checked.append(len(draws)) or check(spec, draws, *args))
    monkeypatch.setattr(theta_module, "_STACK_POINTS", cap)
    _same_reports(verify(spec, trials, sampler=sampler), expected)
    # The first attempts after the first trial whose sides agree are
    # checked and dropped: at most trials - 1 of them.
    assert checked[0] == min(trials, cap // 16)
    assert attempts <= sum(checked) <= attempts + trials - 1


@pytest.mark.parametrize("trials", [1, 5, 40])
def test_a_chunk_builds_each_plan_once(trials, settings, monkeypatch):
    # At this tau the 240 rows of 40 trials need radius 6 or 8, so the
    # chunk builds 12 plans besides the 6 of radius 4; one plan per row
    # would be 240.
    tau = PeriodMatrix(np.array([[0.1 + 0.35j]]))
    spec = RelationSpec.create(3, 1, _mu("nonstandard", 3, 1, np.random.default_rng(1)))
    sampler = TrialSampler(11)
    rng = sampler.make_rng()
    draws = [(sampler.draw_args(rng, 3, 1), tau) for _ in range(trials)]
    radii = set()
    search, plan = theta_module._search, theta_module._plan
    plans = []
    monkeypatch.setattr(theta_module, "_search",
                        lambda *args: radii.add(search(*args)[0]) or search(*args))
    monkeypatch.setattr(theta_module, "_plan", lambda *args: plans.append(args) or plan(*args))
    reports = relations._check(spec, draws, settings)
    assert all(r.status == "ok" for r in reports)
    # The sides the check derives hold the 2n plans of the first radius.
    assert len(plans) <= 2 * spec.n * len(radii) + 2 * spec.n
    if trials == 40:
        assert len(radii) > 1


def test_a_run_builds_each_plan_once(monkeypatch):
    # A (5, 2) trial has 5 * 5^4 shift-table entries, so 15 trials are
    # checked in 3 chunks of 5.  With random tops k/4 the 10 rows of a
    # trial use up to 20 distinct axes per radius, more than the axis
    # cache holds, yet each (side, j, radius) plan is built once in the
    # run, besides the 2n plans of the first radius that the sides hold
    # before any draw.
    rng = np.random.default_rng(4)
    mu = [Characteristic(tuple(F(int(k), 4) for k in rng.integers(-8, 8, 2)),
                         tuple(F(int(k), 4) for k in rng.integers(-8, 8, 2))) for _ in range(5)]
    spec = RelationSpec.create(5, 2, mu)
    radii, plans, checked = set(), [], []
    search, plan, check = theta_module._search, theta_module._plan, relations._check

    def recording_plan(*args):
        plans.append(args)
        return plan(*args)

    monkeypatch.setattr(theta_module, "_search",
                        lambda *args: radii.add(search(*args)[0]) or search(*args))
    monkeypatch.setattr(theta_module, "_plan", recording_plan)
    monkeypatch.setattr(relations, "_check", lambda spec, draws, *args:
                        checked.append(len(draws)) or check(spec, draws, *args))
    reports = verify(spec, 15, sampler=TrialSampler(2))
    assert all(r.status == "ok" for r in reports)
    assert checked == [5, 5, 5]
    assert len(plans) <= 2 * spec.n * len(radii) + 2 * spec.n
