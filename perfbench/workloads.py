"""The three workloads: inputs from a seed, the timed op, the per-op check.

Every workload is a closed loop: one caller, one op at a time, the next
op starting when the previous one has returned.  A run is a whole
number of cycles; each cycle has the same composition of op kinds and
configurations, and the seed only draws the random parts (trial seeds,
characteristics, arguments, period matrices, and the order of the ops
inside a cycle).  Fixed composition keeps the latency percentiles on
the same kind of op from run to run.  verify and theta-eval draw fresh
values in every cycle, so a cache keyed on input values is not hit;
the emit configs and the all-zero verify specs do repeat across cycles.

Ops call the library through module attributes looked up at call time
(``cli.main``, ``theta.theta``), so a traced run sees the wrappers that
``spans.install`` binds and an untraced run sees the library as is.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from reference import reference_theta

cli = importlib.import_module("thetarel.cli")
render = importlib.import_module("thetarel.render")
theta_mod = importlib.import_module("thetarel.theta")
Characteristic = importlib.import_module("thetarel.charalg").Characteristic

DIGESTS_FILE = Path(__file__).resolve().parent / "emit_digests.json"


@dataclass
class Op:
    kind: str               # verify | falsify | suite | emit | parse | theta
    label: str              # configuration, for the op counts of the run record
    payload: object         # argv list, emit key, or theta-eval input


@dataclass
class Outcome:
    ok: bool
    digest: Optional[str] = None      # sha256 of the op's stdout (verify, emit)
    reason: Optional[str] = None      # why the op failed its check


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _rng(workload: str, seed: int, cycle: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "big")
    return np.random.default_rng([tag, seed, cycle])


def _char_text(top, bottom) -> str:
    return str(Characteristic(tuple(top), tuple(bottom)))


# ---------------------------------------------------------------- verify

# (n, g, trials, mu) per op of a cycle.  Trial counts keep ops between
# ~20 ms and ~1 s and put the (4,2), (5,1) and suite ops at about the
# same cost, so the median falls inside that group; three (5,2) ops,
# a sixth of the cycle, put the 90th percentile inside the (5,2) group
# rather than on the edge between it and the next.
VERIFY_OPS = [
    (3, 1, 6, "zero"), (3, 1, 6, "random"),
    (4, 1, 6, "zero"), (4, 1, 6, "random"),
    (5, 1, 3, "zero"), (5, 1, 3, "random"),
    (7, 1, 2, "zero"), (7, 1, 2, "random"),
    (3, 2, 2, "zero"), (3, 2, 2, "random"),
    (4, 2, 3, "zero"), (4, 2, 3, "random"),
    (5, 2, 1, "zero"), (5, 2, 1, "random"), (5, 2, 1, "random"),
]
FALSIFY_CONFIGS = [(4, 5), (3, 5)]          # (n, trials), naive mode, genus 1
SUITE_TRIALS = 2


class VerifyWorkload:
    """``verify`` (all-zero and nonzero --mu), ``falsify`` and ``suite``
    through ``cli.main`` with stdout captured in memory."""

    name = "verify"
    # Cycle time at the commit that defined the benchmark (2 vCPU);
    # --seconds / CYCLE_SECONDS cycles make a run.
    CYCLE_SECONDS = 3.0

    def build(self, seed: int, cycles: int) -> list[Op]:
        ops = []
        for c in range(cycles):
            rng = _rng(self.name, seed, c)
            cycle = []
            for n, g, trials, mu in VERIFY_OPS:
                lam = n if n % 2 else n // 2
                argv = ["verify", "--n", str(n), "--g", str(g),
                        "--trials", str(trials),
                        "--seed", str(int(rng.integers(2**31)))]
                if mu == "random":
                    for _ in range(n):
                        k = rng.integers(0, lam, 2 * g)
                        argv += ["--mu", _char_text(
                            [Fraction(int(x), lam) for x in k[:g]],
                            [Fraction(int(x), lam) for x in k[g:]])]
                cycle.append(Op("verify", f"verify n={n} g={g} mu={mu}", argv))
            for n, trials in FALSIFY_CONFIGS:
                argv = ["falsify", "--n", str(n), "--trials", str(trials),
                        "--seed", str(int(rng.integers(2**31)))]
                cycle.append(Op("falsify", f"falsify n={n}", argv))
            argv = ["suite", "--trials", str(SUITE_TRIALS),
                    "--seed", str(int(rng.integers(2**31)))]
            cycle.append(Op("suite", "suite", argv))
            ops += [cycle[i] for i in rng.permutation(len(cycle))]
        return ops

    def prepare(self, ops: list[Op]) -> None:
        pass

    def execute(self, op: Op):
        return _run_cli(op.payload)

    def check(self, op: Op, result) -> Outcome:
        rc, text = result
        if rc != 0:
            return Outcome(False, _sha256(text), f"exit code {rc}")
        report = json.loads(text)
        if op.kind == "falsify":
            ok = report.get("falsified") is True
        else:
            ok = report.get("verdict") == "pass"
        return Outcome(ok, _sha256(text), None if ok else "verdict")


# ------------------------------------------------------------------ emit

# ((n, g), variants per cycle).  The three cheap configs make over half
# of the ops, so the median falls inside the (9,1) group; (7,2) makes
# over a sixth, so the 90th percentile falls inside the (7,2) group
# rather than on the edge between it and the next.
EMIT_CONFIGS = [((3, 2), 2), ((9, 1), 2), ((4, 3), 2),
                ((8, 2), 1), ((5, 2), 1), ((3, 3), 1), ((7, 2), 2)]
EMIT_FORMATS = ("json", "latex", "text")
EMIT_VARIANTS = 3       # variant 0 is the all-zero --mu


def emit_mu(n: int, g: int, variant: int) -> list[str]:
    """The --mu texts of one emit variant; variant 0 is all zero."""
    lam = n if n % 2 else n // 2
    chars = []
    for j in range(n):
        top = [Fraction(variant * (j + 1) + a, lam) % 1 if variant else 0
               for a in range(g)]
        bottom = [Fraction(variant * (j + 2) * (a + 1), lam) % 1 if variant else 0
                  for a in range(g)]
        chars.append(_char_text(top, bottom))
    return chars


def emit_argv(n: int, g: int, variant: int, fmt: str) -> list[str]:
    argv = ["emit", "--n", str(n), "--g", str(g), "--format", fmt]
    for text in emit_mu(n, g, variant):
        argv += ["--mu", text]
    return argv


def emit_key(n: int, g: int, variant: int, fmt: str) -> str:
    return f"n={n} g={g} variant={variant} format={fmt}"


def emit_output(n: int, g: int, variant: int, fmt: str) -> str:
    rc, text = _run_cli(emit_argv(n, g, variant, fmt))
    if rc != 0:
        raise RuntimeError(f"emit {emit_key(n, g, variant, fmt)} exited {rc}")
    return text


class EmitWorkload:
    """``emit`` in json, latex and text, plus ``render.parse_terms_json``
    of the JSON output dumped again; every output is compared with the
    digests in emit_digests.json."""

    name = "emit"
    CYCLE_SECONDS = 6.5

    def __init__(self):
        self.digests = json.loads(DIGESTS_FILE.read_text())
        self.last_json: dict[str, str] = {}

    def build(self, seed: int, cycles: int) -> list[Op]:
        # Variants rotate with the cycle, so every seed runs the same
        # variant mix; the seed orders each cycle.
        ops = []
        for c in range(cycles):
            cycle = []
            for i, ((n, g), copies) in enumerate(EMIT_CONFIGS):
                for j in range(copies):
                    variant = (c * copies + i + j) % EMIT_VARIANTS
                    group = []
                    for fmt in EMIT_FORMATS:
                        key = emit_key(n, g, variant, fmt)
                        group.append(Op("emit", f"emit {fmt} n={n} g={g}",
                                        (key, emit_argv(n, g, variant, fmt))))
                        if fmt == "json":
                            # Parses the output of the op just before it.
                            group.append(Op("parse", f"parse n={n} g={g}", key))
                    cycle.append(group)
            for k in _rng(self.name, seed, c).permutation(len(cycle)):
                ops += cycle[k]
        return ops

    def prepare(self, ops: list[Op]) -> None:
        pass

    def execute(self, op: Op):
        if op.kind == "emit":
            return _run_cli(op.payload[1])
        text = self.last_json[op.payload]
        spec, terms = render.parse_terms_json(text)
        return 0, render.dumps(render.terms_to_json_obj(spec, terms)) + "\n"

    def check(self, op: Op, result) -> Outcome:
        rc, text = result
        if op.kind == "parse":
            ok = text == self.last_json[op.payload]
            return Outcome(ok, None, None if ok else "roundtrip")
        key = op.payload[0]
        if key.endswith("format=json"):
            self.last_json[key] = text
        digest = _sha256(text)
        if rc != 0:
            return Outcome(False, digest, f"exit code {rc}")
        ok = digest == self.digests[key]
        return Outcome(ok, digest, None if ok else "digest")


# ------------------------------------------------------------ theta-eval

THETA_GENERA = (2, 3)
# Ops per (genus, slice of Im tau) in one cycle; the first of each has
# z = 0.  Op time is a step function of the truncation radius, and g=3
# oriented ops at radius >= 8 (about 40% of them, 3 to 25 ms) sit far
# above the rest.  Three of them in 18 ops put about 6% of all ops in
# that tail, so the 90th percentile falls inside the g=3 radius-6 group
# rather than on the 2 ms -> 4 ms step between it and the tail.
THETA_STRATA = {(2, "isotropic"): 5, (2, "oriented"): 5,
                (3, "isotropic"): 5, (3, "oriented"): 3}
# The equicorrelated slice is evaluated in every run (probe_known_defect)
# but is not an op: the evaluator's lambda_min estimate starts inverse
# iteration on (1,...,1), the top eigenvector of these matrices, so about
# a third of the draws exceed their claimed tail_bound (ROADMAP item 2).
# As an op it would fail the run at every commit before that fix.
DEFECT_SLICE = "equicorrelated"
PROBE_DRAWS = 200   # per genus
MAX_COND = 20.0
LAM_MIN_RANGE = (0.15, 1.0)


def _symmetric(rng, shape, lo, hi) -> np.ndarray:
    """Symmetric matrices with U[lo, hi] entries on and above the diagonal."""
    a = rng.uniform(lo, hi, shape)
    return np.triu(a) + np.swapaxes(np.triu(a, 1), -1, -2)


def draw_im_tau(rng, count: int, g: int, kind: str) -> np.ndarray:
    """``count`` matrices Im tau of one slice, shape (count, g, g).

    isotropic: the TrialSampler recipe, D + 0.2 W with D ~ U[0.9, 1.4].
    oriented: random orthogonal frame, smallest eigenvalue in
        LAM_MIN_RANGE, condition number up to MAX_COND.
    equicorrelated: a ((1 - rho) I + rho J), the shape symmetric curves
        give, with the same eigenvalue and condition limits.
    """
    if kind == "isotropic":
        im = np.empty((count, g, g))
        todo = np.arange(count)
        while todo.size:
            draw = (np.eye(g) * rng.uniform(0.9, 1.4, (todo.size, g))[:, None, :]
                    + 0.2 * _symmetric(rng, (todo.size, g, g), -1.0, 1.0))
            good = np.linalg.eigvalsh(draw)[:, 0] > 0
            im[todo[good]] = draw[good]
            todo = todo[~good]
        return im
    if kind == "oriented":
        lam_min = rng.uniform(*LAM_MIN_RANGE, (count, 1))
        lam_max = lam_min * rng.uniform(1.0, MAX_COND, (count, 1))
        lam = np.concatenate(
            [lam_min, lam_max, rng.uniform(lam_min, lam_max, (count, g - 2))], axis=1)
        q, r = np.linalg.qr(rng.standard_normal((count, g, g)))
        q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
        y = (q * lam[:, None, :]) @ np.swapaxes(q, 1, 2)
        return (y + np.swapaxes(y, 1, 2)) / 2
    # Condition number (1 + (g-1) rho) / (1 - rho) <= MAX_COND.
    rho_max = (MAX_COND - 1.0) / (MAX_COND + g - 1.0)
    a, rho = np.empty(count), np.empty(count)
    todo = np.arange(count)
    while todo.size:
        a_draw = rng.uniform(0.8, 1.6, todo.size)
        rho_draw = rng.uniform(0.3, rho_max, todo.size)
        good = a_draw * (1.0 - rho_draw) >= LAM_MIN_RANGE[0]
        a[todo[good]], rho[todo[good]] = a_draw[good], rho_draw[good]
        todo = todo[~good]
    return a[:, None, None] * ((1.0 - rho)[:, None, None] * np.eye(g) + rho[:, None, None])


@dataclass
class ThetaInput:
    mu: object
    z: np.ndarray
    tau: np.ndarray
    ref: complex = 0j
    ref_rounding: float = 0.0


def theta_inputs(name: str, seed: int, g: int, kind: str, count: int,
                 zero_every: int = 5) -> list[ThetaInput]:
    """``count`` inputs of one (genus, slice) stratum, drawn from the seed;
    every ``zero_every``-th has z = 0."""
    rng = _rng(f"{name} g={g} {kind}", seed, 0)
    tau = _symmetric(rng, (count, g, g), -0.5, 0.5) + 1j * draw_im_tau(rng, count, g, kind)
    dens = rng.integers(1, 7, (count, 2 * g))
    nums = (rng.random((count, 2 * g)) * dens).astype(int)
    z = rng.uniform(-0.5, 0.5, (count, g)) + 1j * rng.uniform(-0.5, 0.5, (count, g))
    z[::zero_every] = 0
    inputs = []
    for i in range(count):
        vals = [Fraction(int(p), int(q)) for p, q in zip(nums[i], dens[i])]
        inputs.append(ThetaInput(Characteristic(tuple(vals[:g]), tuple(vals[g:])), z[i], tau[i]))
    return inputs


class ThetaEvalWorkload:
    """One ``PeriodMatrix(...)`` plus one ``theta(mu, z, tau)`` per op."""

    name = "theta-eval"
    CYCLE_SECONDS = 0.03

    def build(self, seed: int, cycles: int) -> list[Op]:
        strata = [([Op("theta", f"g={g} {kind}", x)
                    for x in theta_inputs(self.name, seed, g, kind, cycles * k, k)], k)
                  for (g, kind), k in THETA_STRATA.items()]
        ops = []
        for c in range(cycles):
            cycle = [op for inputs, k in strata for op in inputs[c * k:(c + 1) * k]]
            ops += [cycle[i] for i in _rng(self.name, seed, c).permutation(len(cycle))]
        return ops

    def prepare(self, ops: list[Op]) -> None:
        """Reference values; outside the timed phase and outside setup_s."""
        for op in ops:
            x = op.payload
            x.ref, x.ref_rounding = reference_theta(x.mu.top, x.mu.bottom, x.z, x.tau)

    def execute(self, op: Op):
        x = op.payload
        try:
            return theta_mod.theta(x.mu, x.z, theta_mod.PeriodMatrix(x.tau))
        except theta_mod.TruncationError as exc:
            return exc

    def check(self, op: Op, result) -> Outcome:
        if isinstance(result, theta_mod.TruncationError):
            return Outcome(False, None, "truncation error")
        x = op.payload
        # The evaluator floors tail_bound at its own rounding estimate;
        # twice the reference's rounding bound covers both sums' rounding.
        ok = abs(result.value - x.ref) <= result.tail_bound + 2.0 * x.ref_rounding
        return Outcome(ok, None, None if ok else "bound violation")

    def probe_known_defect(self, seed: int) -> dict:
        """Evaluate PROBE_DRAWS inputs of DEFECT_SLICE per genus, untimed,
        and report how many exceed their claimed error bound.

        error_over_bound is |value - ref| / (tail_bound + 2 * ref rounding):
        above 1 the check of an op fails.
        """
        ops = [Op("theta", f"g={g} {DEFECT_SLICE}", x)
               for g in THETA_GENERA
               for x in theta_inputs(self.name, seed, g, DEFECT_SLICE, PROBE_DRAWS)]
        self.prepare(ops)
        ratios, failed, worst_error = [], 0, 0.0
        for op in ops:
            result, x = self.execute(op), op.payload
            if isinstance(result, theta_mod.TruncationError):
                failed += 1
                continue
            error = abs(result.value - x.ref)
            ratios.append(error / (result.tail_bound + 2.0 * x.ref_rounding))
            failed += ratios[-1] > 1.0
            worst_error = max(worst_error, error)
        return {
            "slice": DEFECT_SLICE,
            "draws": len(ops),
            "failed": int(failed),
            "failed_share": failed / len(ops),
            "worst_abs_error": worst_error,
            "max_error_over_bound": max(ratios, default=math.inf),
        }


WORKLOADS = {w.name: w for w in (VerifyWorkload, ThetaEvalWorkload, EmitWorkload)}


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / WORKLOADS[workload].CYCLE_SECONDS))
