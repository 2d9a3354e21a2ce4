"""Command-line interface.

Subcommands: emit (render a relation), verify (randomized numerical
verification), falsify (demonstrate failure of the uncorrected
coefficient), suite (curated identity checks), table (cycle numbers).

Exit codes: 0 pass, 1 identity failure, 2 evaluation failure
(truncation, or a lattice-sum box too large to allocate), 64 usage
error.  An invalid --n, --g or --mu is reported
with the message of RelationSpec or Characteristic.parse.  The parser
alone refuses every other invalid option: a --format outside the
choices of its subcommand (latex is emit's only), a --trials below 1,
a negative --seed, and a --tol that is negative or not finite.
THETA_MAX_RADIUS overrides the evaluator's radius cap.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
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
    _terms_json_obj,
    _with_trials,
    build_relation,
    verify,
)
from .render import dumps, relation_to_latex, terms_to_text
from .theta import EvalSettings, PeriodMatrix, TruncationError

__all__ = ["main", "entry"]

EXIT_PASS = 0
EXIT_IDENTITY_FAIL = 1
EXIT_EVAL_FAIL = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Exits 64 on a usage error.  argparse reads a value that starts
    with "-" (and is no negative number) as an option, and "--opt=value"
    as a value; an option in dash_value_options, or a prefix of one, is
    rewritten to the = form when such a value follows it.  argparse then
    resolves the prefix, or reports it ambiguous."""

    dash_value_options: tuple[str, ...] = ()

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else list(args)
        joined = []
        for i, arg in enumerate(args):
            if arg == "--":
                joined += args[i:]
                break
            # A value cannot start with "--" or "-h", which stay options.
            if (joined and joined[-1].startswith("--") and re.match("-[^-h]", arg)
                    and any(o.startswith(joined[-1]) for o in self.dash_value_options)):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _number(convert, text: str, kind: str):
    """convert(text).  Its ValueError becomes an ArgumentTypeError, so
    the usage error names the option and not the type function."""
    try:
        return convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be {kind}, got {text!r}") from None


def _seed(text: str) -> int:
    seed = _number(lambda t: int(t, 0), text, "an integer")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return seed


def _trials(text: str) -> int:
    trials = _number(int, text, "an integer")
    if trials < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return trials


def _tol(text: str) -> float:
    tol = _number(float, text, "a number")
    if not math.isfinite(tol) or tol < 0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return tol


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: building it costs about a
    millisecond of argparse set-up, and parsing leaves it unchanged
    (each parse fills a new namespace, and help is formatted at the
    terminal width of the moment)."""
    p = _Parser(prog="thetarel", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(sp, trials_default=None, tol_default=None, modes=("modified", "naive")):
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--g", type=int, default=1)
        sp.add_argument("--mu", action="append", default=None, metavar="CHAR",
                        help='characteristic "p/q,...;p/q,..."; repeat n times')
        sp.add_argument("--mode", choices=modes, default=modes[0])
        if trials_default is not None:
            sp.add_argument("--trials", type=_trials, default=trials_default)
            sp.add_argument("--tol", type=_tol, default=tol_default)
            sp.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
            sp.add_argument("--tau", default=None, metavar="MATRIX",
                            help="fixed period matrix, entries like 0.3+1.1i "
                            "separated by ',' and rows by ';', e.g. "
                            "'1.1i,0.2+0.3i;0.2+0.3i,0.9i'")
        formats = ["json", "latex", "text"] if trials_default is None else ["json", "text"]
        sp.add_argument("--format", choices=formats, default=None)
        sp.add_argument("--out", default=None)
        # A negative Re tau, a negative coordinate or -inf starts with "-".
        sp.dash_value_options = ("--mu",) if trials_default is None else (
            "--mu", "--tol", "--tau")
        return sp

    common(sub.add_parser("emit", help="render the term list")).set_defaults(
        run=_cmd_emit, format="latex")
    common(sub.add_parser("verify", help="randomized verification"),
           trials_default=20, tol_default=1e-9).set_defaults(run=_cmd_verify, format="json")
    common(sub.add_parser("falsify", help="demonstrate the uncorrected "
                          "coefficient failing"), trials_default=10,
           tol_default=0.01, modes=("naive",)).set_defaults(
        run=_cmd_verify, format="json", n=4)

    ps = sub.add_parser("suite", help="curated identity checks")
    ps.add_argument("--trials", type=_trials, default=10)
    ps.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    ps.add_argument("--format", choices=["json", "text"], default="json")
    ps.add_argument("--out", default=None)
    ps.set_defaults(run=_cmd_suite)

    pt = sub.add_parser("table", help="cycle numbers for a range of n")
    pt.add_argument("--range", dest="n_range", default="3..10", metavar="A..B")
    pt.add_argument("--format", choices=["json", "text"], default="text")
    pt.add_argument("--out", default=None)
    pt.set_defaults(run=_cmd_table)
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
    """The spec of --n, --g, --mu and --mode; RelationSpec decides which
    are valid, and its ValueError, or that of Characteristic.parse, is
    the usage error."""
    if args.n is None:
        raise UsageError("--n is required")
    try:
        mu = [Characteristic.parse(text) for text in args.mu] if args.mu else None
        return RelationSpec.create(args.n, args.g, mu, CoefficientMode(args.mode))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_tau(text: str, genus: int) -> PeriodMatrix:
    """A genus x genus period matrix: rows separated by ';', entries by
    ',', each entry a complex number written with i or j."""
    rows = [row.split(",") for row in text.split(";")]
    if len(rows) != genus or any(len(row) != genus for row in rows):
        raise UsageError(
            f"--tau {text!r}: need a {genus}x{genus} matrix, "
            "rows separated by ';' and entries by ','"
        )
    try:
        # Only a trailing imaginary unit is rewritten; the i of inf stays.
        entries = [[complex(re.sub("i$", "j", e.strip())) for e in row] for row in rows]
    except ValueError:
        raise UsageError(f"cannot parse period {text!r}") from None
    try:
        return PeriodMatrix(np.array(entries))
    except ValueError as exc:
        raise UsageError(f"--tau {text!r}: {exc}") from None


def _write(texts: tuple[str, ...], out: Optional[str]) -> None:
    """Writes texts in order to out, or to stdout.  A long document and
    its final newline are two texts, so the document is not copied to
    append one."""
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.writelines(texts)
        except OSError as exc:
            raise UsageError(f"cannot write {out!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.writelines(texts)


def _cmd_emit(args) -> tuple[tuple[str, ...], int]:
    spec = _spec_from_args(args)
    terms = build_relation(spec)
    if args.format == "latex":
        texts = (relation_to_latex(spec, terms), "\n")
    elif args.format == "json":
        texts = (dumps(_terms_json_obj(spec, terms, written=True)), "\n")
    else:
        texts = (terms_to_text(spec, terms),)
    return texts, EXIT_PASS


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


# A side that overflows to inf or NaN is reported "eval-failed", so the
# commands that sum lattice sums leave numpy's overflow and invalid-value
# warnings unprinted, once per command: stderr stays free of them.
_quiet_floats = np.errstate(over="ignore", invalid="ignore")


@_quiet_floats
def _cmd_verify(args) -> tuple[tuple[str, ...], int]:
    """verify and falsify; falsify runs naive mode only, its parser
    defaults --n to 4, and it succeeds only when some ok trial exceeds
    --tol."""
    falsify = args.command == "falsify"
    spec = _spec_from_args(args)
    settings = _settings()
    tau = _parse_tau(args.tau, args.g) if args.tau else None
    sampler = TrialSampler(args.seed)
    reports = verify(spec, args.trials, sampler=sampler, settings=settings, tau=tau)
    report = _with_trials(
        _terms_json_obj(spec, build_relation(spec), written=True), reports, args.tol)
    if falsify:
        report["threshold"] = args.tol
        report["falsified"] = any(
            r.status == "ok" and r.rel_error > args.tol for r in reports
        )
    texts = (_report_text(report),) if args.format == "text" else (dumps(report), "\n")
    if any(r.status == "eval-failed" for r in reports):
        return texts, EXIT_EVAL_FAIL
    passed = report["falsified"] if falsify else report["verdict"] == "pass"
    return texts, EXIT_PASS if passed else EXIT_IDENTITY_FAIL


@_quiet_floats
def _cmd_suite(args) -> tuple[tuple[str, ...], int]:
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
    if any(c["verdict"] == "eval-failed" for c in report["cases"]):
        return (text,), EXIT_EVAL_FAIL
    return (text,), EXIT_PASS if report["verdict"] == "pass" else EXIT_IDENTITY_FAIL


def _cmd_table(args) -> tuple[tuple[str, ...], int]:
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
    return (text,), EXIT_PASS


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        texts, code = args.run(args)
        _write(texts, args.out)
        return code
    except UsageError as exc:
        print(f"thetarel: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TruncationError as exc:
        # verify refuses a spec whose smallest boxes are too large.
        print(f"thetarel: error: {exc}", file=sys.stderr)
        return EXIT_EVAL_FAIL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
