"""Command-line interface.

Subcommands: emit (render a relation), verify (randomized numerical
verification), falsify (demonstrate failure of the uncorrected
coefficient), suite (curated identity checks), table (cycle numbers).

Exit codes: 0 pass, 1 identity failure, 2 evaluation failure
(truncation), 64 usage error.  THETA_MAX_RADIUS overrides the
evaluator's radius cap.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from .charalg import Characteristic, cycle_number
from .identities import run_suite
from .relations import (
    CoefficientMode,
    DEFAULT_SEED,
    RelationSpec,
    TrialSampler,
    build_relation,
    relation_report,
    verify,
)
from .render import dumps, relation_to_latex, terms_to_json_obj, terms_to_text
from .theta import EvalSettings, PeriodMatrix

__all__ = ["main", "entry"]

EXIT_PASS = 0
EXIT_IDENTITY_FAIL = 1
EXIT_EVAL_FAIL = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    return int(text, 0)


def _build_parser() -> _Parser:
    p = _Parser(prog="thetarel", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(sp, trials_default=None, tol_default=None):
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--g", type=int, default=1)
        sp.add_argument("--mu", action="append", default=None, metavar="CHAR",
                        help='characteristic "p/q,...;p/q,..."; repeat n times')
        sp.add_argument("--mode", choices=["modified", "naive"], default="modified")
        if trials_default is not None:
            sp.add_argument("--trials", type=int, default=trials_default)
            sp.add_argument("--tol", type=float, default=tol_default)
            sp.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
            sp.add_argument("--tau", default=None, metavar="RE+IMi",
                            help="fixed genus-1 period, e.g. 0.3+1.1i")
        sp.add_argument("--format", choices=["json", "latex", "text"], default=None)
        sp.add_argument("--out", default=None)

    common(sub.add_parser("emit", help="render the term list"))
    common(sub.add_parser("verify", help="randomized verification"),
           trials_default=20, tol_default=1e-9)
    common(sub.add_parser("falsify", help="demonstrate the uncorrected "
                          "coefficient failing"), trials_default=10,
           tol_default=0.01)

    ps = sub.add_parser("suite", help="curated identity checks")
    ps.add_argument("--trials", type=int, default=10)
    ps.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    ps.add_argument("--format", choices=["json", "text"], default="json")
    ps.add_argument("--out", default=None)

    pt = sub.add_parser("table", help="cycle numbers for a range of n")
    pt.add_argument("--range", dest="n_range", default="3..10", metavar="A..B")
    pt.add_argument("--format", choices=["json", "text"], default="text")
    pt.add_argument("--out", default=None)
    return p


def _settings() -> EvalSettings:
    radius = os.environ.get("THETA_MAX_RADIUS")
    if radius is None:
        return EvalSettings()
    try:
        return EvalSettings(max_radius=int(radius))
    except ValueError as exc:
        raise UsageError(f"THETA_MAX_RADIUS: {exc}") from None


def _spec_from_args(args) -> RelationSpec:
    if args.n is None:
        raise UsageError("--n is required")
    if args.n < 2:
        raise UsageError(f"--n must be >= 2, got {args.n}")
    if args.g < 1:
        raise UsageError(f"--g must be >= 1, got {args.g}")
    mode = CoefficientMode(args.mode)
    mu = None
    if args.mu:
        if len(args.mu) != args.n:
            raise UsageError(f"--mu given {len(args.mu)} times, need {args.n}")
        parsed = []
        for text in args.mu:
            try:
                c = Characteristic.parse(text)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
            if c.genus != args.g:
                raise UsageError(f"characteristic {text!r} has genus {c.genus}, "
                                 f"expected {args.g}")
            parsed.append(c)
        mu = tuple(parsed)
    return RelationSpec.create(args.n, args.g, mu, mode)


def _parse_tau(text: str, genus: int) -> PeriodMatrix:
    if genus != 1:
        raise UsageError("--tau is only supported for genus 1")
    body = text.strip()
    if body.endswith("i"):
        body = body[:-1] + "j"
    try:
        value = complex(body)
    except ValueError:
        raise UsageError(f"cannot parse period {text!r}") from None
    try:
        return PeriodMatrix(np.array([[value]]))
    except ValueError as exc:
        raise UsageError(f"--tau {text!r}: {exc}") from None


def _write(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_emit(args) -> int:
    spec = _spec_from_args(args)
    terms = build_relation(spec)
    fmt = args.format or "latex"
    if fmt == "latex":
        text = relation_to_latex(spec, terms) + "\n"
    elif fmt == "json":
        text = dumps(terms_to_json_obj(spec, terms)) + "\n"
    else:
        text = terms_to_text(spec, terms)
    _write(text, args.out)
    return EXIT_PASS


def _report_text(report: dict) -> str:
    lines = [
        f"n={report['spec']['n']} g={report['spec']['g']} "
        f"lambda={report['spec']['lambda']} mode={report['spec']['mode']}"
    ]
    for t in report["trials"]:
        lines.append(
            f"trial {t['seed_index']:3d}  rel_error={t['rel_error']:.3e}  "
            f"status={t['status']}"
        )
    lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> int:
    """verify and falsify; falsify forces naive mode, defaults --n to 4
    and succeeds only when some ok trial exceeds --tol."""
    if args.format == "latex":
        raise UsageError("latex output applies to emit only")
    falsify = args.command == "falsify"
    if falsify:
        args.mode = "naive"
        if args.n is None:
            args.n = 4
    spec = _spec_from_args(args)
    settings = _settings()
    tau = _parse_tau(args.tau, args.g) if args.tau else None
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    sampler = TrialSampler(args.seed)
    reports = verify(spec, args.trials, sampler=sampler, settings=settings, tau=tau)
    report = relation_report(spec, build_relation(spec), reports, args.tol)
    if falsify:
        report["threshold"] = args.tol
        report["falsified"] = any(
            r.status == "ok" and r.rel_error > args.tol for r in reports
        )
    fmt = args.format or "json"
    text = _report_text(report) if fmt == "text" else dumps(report) + "\n"
    _write(text, args.out)
    if any(r.status == "eval-failed" for r in reports):
        return EXIT_EVAL_FAIL
    passed = report["falsified"] if falsify else report["verdict"] == "pass"
    return EXIT_PASS if passed else EXIT_IDENTITY_FAIL


def _cmd_suite(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    report = run_suite(args.trials, args.seed, _settings())
    if args.format == "text":
        lines = [
            f"{c['name']:24s} samples={c['samples']:3d} "
            f"max_rel_error={c['max_rel_error']:.3e} {c['verdict']}"
            for c in report["cases"]
        ]
        lines.append(f"verdict: {report['verdict']}")
        text = "\n".join(lines) + "\n"
    else:
        text = dumps(report) + "\n"
    _write(text, args.out)
    if any(c["verdict"] == "eval-failed" for c in report["cases"]):
        return EXIT_EVAL_FAIL
    return EXIT_PASS if report["verdict"] == "pass" else EXIT_IDENTITY_FAIL


def _cmd_table(args) -> int:
    try:
        lo_text, hi_text = args.n_range.split("..")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise UsageError(f"bad --range {args.n_range!r}, expected A..B") from None
    if lo < 2 or hi < lo:
        raise UsageError(f"bad --range {args.n_range!r}: need 2 <= A <= B")
    rows = [{"n": n, "lambda": cycle_number(n)} for n in range(lo, hi + 1)]
    if args.format == "json":
        text = dumps({"rows": rows}) + "\n"
    else:
        lines = ["  n  lambda"]
        lines += [f"{r['n']:3d}  {r['lambda']:6d}" for r in rows]
        text = "\n".join(lines) + "\n"
    _write(text, args.out)
    return EXIT_PASS


_COMMANDS = {
    "emit": _cmd_emit,
    "verify": _cmd_verify,
    "falsify": _cmd_verify,
    "suite": _cmd_suite,
    "table": _cmd_table,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"thetarel: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
