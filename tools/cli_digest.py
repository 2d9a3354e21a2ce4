"""Digests of the thetarel command line over a fixed set of argv.

Usage: python3 tools/cli_digest.py [ROOT]

Imports thetarel.cli from ROOT/src (default: the repository that holds
this script) and runs every argv of CASES in-process through main().
For each it prints the sha256 of the exit code, stdout and stderr,
then the argv; the last line is the sha256 of all the lines before it.
A run that raises an exception other than SystemExit has the name of
the exception's type in place of its exit code, and its argv goes to
stderr, so one crashing argv leaves the digests of all the others.
Two trees whose command line behaves the same print the same lines, so
a refactor that must keep every output byte can be checked with

    diff <(python3 tools/cli_digest.py OLD) <(python3 tools/cli_digest.py NEW)

The argv cover emit, verify, falsify, suite and table in each output
format, the edges of the emit row templates (n = 2, text fields that
overflow, LaTeX abbreviation on both sides), malformed input that must
fail with a usage error, and the --help text of the top parser and of
each of the five subcommands at COLUMNS=80.  The malformed specs are a
missing --n, and then, refused by RelationSpec or Characteristic.parse,
--n 1 and --n 0, --g 0 and --g -1, a bad --mu token, too few --mu for
emit and for verify, and a --mu of the wrong genus at --g 1 and at
--g 2.  A --seed x and a --tol x of verify and a --trials x of suite
are values of no number, whose usage errors must name the option.  A
leading NAME=VALUE token sets that environment variable for one run, as
in a shell.
THETA_MAX_RADIUS is unset for every other run.  Last come the
characteristics with a large top, far outside the box of the lattice
sum: verify at n = 3 with a first --mu of 100000001/3;1, of
-100000001/3;1 and of 1000000000000000000001/3;1 (whose box indices do
not fit in int64), and at (n, g) = (4, 2) with 30000000001/2,1/2;0,1/2;
all other --mu are zero, and each must pass.  Then comes a large n,
emit --n 96 --format text, whose 96 x 96 Smith matrix the command line
builds before it writes anything, and last a large genus: emit at n = 2
(lambda = 1, one term) with g = 65 in text and g = 200 in JSON, more
axes than a numpy array has dimensions, then verify at g = 12 and
falsify at g = 65, whose lattice-sum boxes are refused before anything
is drawn or allocated (exit 2).  After the run cases come runs whose
trials are summed in several stacks: verify at n = 3 with 40 trials and
at (n, g) = (3, 3), whose boxes cross the point cap of a stack; verify
at THETA_MAX_RADIUS=4 with a fixed --tau whose radius search fails for
some trials and not for others; falsify at n = 3 with 12 trials, and
at (n, g) = (5, 2) with 12 trials, whose first attempts naive mode
checks in three chunks, of 5, 5 and 2 trials; falsify at
THETA_MAX_RADIUS=4 with that --tau, at n = 3, where some trials fail
and the rest pass, and at n = 2, where the relation holds, so each trial
is resampled, one attempt at a time, until a draw's radius search
fails; and the suite at THETA_MAX_RADIUS=4 with 8
trials, whose identity checks each evaluate their theta values as one
stack, and where jacobi_quadruple and smith_relation are eval-failed
(exit 2) and the other cases pass.  Last of all, verify at n = 3 with a
--tau of 1e308i and of 1e307+1i, whose sides overflow to a value that is
not a finite number: each trial is eval-failed (exit 2), and stderr
holds no float warning, which would print once per process and so
differ between the two passes.

All of CASES then runs a second time in the same process, in reverse
order, so that state left behind by a later case meets an earlier one.
If any second-pass digest differs from the first, which is state left
behind by an earlier run (a cached parser, relation spec or lattice-sum
plan, say), the argv of each such case goes to stderr and the exit
status is 1; the printed lines are those of the first pass either way.
Stdlib only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
from pathlib import Path

SEEDS = ("1", "7", "123")
MU = {
    1: {
        "standard": ["1/3;0", "0;2/3", "2/3;1/3"],
        "mixed": ["1/2;1/3", "-1/4;5/6", "0;1/5"],
    },
    2: {
        "standard": ["1/3,0;0,2/3", "0,2/3;1/3,0", "2/3,1/3;0,0"],
        "mixed": ["1/2,1/3;-1/4,0", "0,5/6;1/5,-1/2", "1/7,0;0,3/4"],
    },
}


def _emit_cases() -> list[list[str]]:
    cases = []
    for g in (1, 2):
        for mu in (None, "standard", "mixed"):
            mu_args = [a for m in MU[g][mu] for a in ("--mu", m)] if mu else []
            for fmt in ("json", "latex", "text"):
                cases.append(["emit", "--n", "3", "--g", str(g), *mu_args, "--format", fmt])
    cases += [
        ["emit", "--n", "4"],
        ["emit", "--n", "5", "--mode", "naive", "--format", "text"],
        ["emit", "--n", "4", "--g", "2", "--mu", "1/2,0;0,1/2", "--mu", "0,1/2;1/2,0",
         "--mu", "1/4,0;0,-1/3", "--mu", "0,0;0,0", "--format", "json"],
    ]
    # Edges of the row templates: lambda = 1; shifts wider than the
    # 16-column text field; equal non-zero mu, abbreviated in LaTeX on
    # both sides; exponents wider than the 10-column text field.
    cases += [["emit", "--n", "2", "--format", fmt] for fmt in ("json", "latex", "text")]
    cases += [
        ["emit", "--n", "3", "--g", "3", "--format", "text"],
        ["emit", "--n", "3", "--mu", "1/3;2/3", "--mu", "1/3;2/3", "--mu", "1/3;2/3"],
        ["emit", "--n", "3", "--mu", "1/1234567;0", "--mu", "0;0", "--mu", "0;0",
         "--format", "text"],
        ["emit", "--n", "6", "--mode", "naive"],
        ["emit", "--n", "4", "--g", "3", "--format", "json"],
    ]
    return cases


def _run_cases() -> list[list[str]]:
    cases = []
    for seed in SEEDS:
        for fmt in ("json", "text"):
            common = ["--seed", seed, "--format", fmt]
            cases += [
                ["verify", "--n", "3", "--trials", "3", *common],
                ["verify", "--n", "3", "--g", "2", "--trials", "2", *common],
                ["verify", "--n", "3", "--trials", "2", "--mode", "naive", *common],
                ["verify", "--n", "3", "--trials", "2", *common,
                 *(a for m in MU[1]["mixed"] for a in ("--mu", m))],
                ["falsify", "--trials", "3", *common],
                ["suite", "--trials", "2", "--seed", seed, "--format", fmt],
            ]
    cases += [
        ["verify", "--n", "5", "--trials", "2", "--tau", "0.1+1.2i"],
        ["verify", "--n", "3", "--g", "2", "--trials", "2", "--tau",
         "-0.2+1.1i,0.1+0.2i;0.1+0.2i,0.9i"],
        ["falsify", "--n", "2", "--trials", "2"],
        ["falsify", "--mode", "naive", "--trials", "2", "--format", "text"],
        ["falsify", "--mode", "modified", "--trials", "2"],
        ["table"],
        ["table", "--range", "2..12", "--format", "json"],
    ]
    return cases


MALFORMED = [
    ["emit"],
    ["emit", "--n", "1"],
    ["emit", "--n", "3", "--g", "0"],
    ["emit", "--n", "3", "--mu", "0;0", "--mu", "oops;0", "--mu", "0;0"],
    ["emit", "--n", "3", "--mu", "0;0"],
    ["emit", "--n", "3", "--mu", "0,0;0,0", "--mu", "0;0", "--mu", "0;0"],
    ["emit", "--n", "3", "--g", "2", "--mu", "0,0;0,0", "--mu", "0;0", "--mu", "0,0;0,0"],
    ["emit", "--n", "0"],
    ["emit", "--n", "3", "--g", "-1"],
    ["verify", "--n", "4", "--mu", "0;0"],
    ["verify", "--n", "3", "--format", "latex"],
    ["verify", "--n", "3", "--tau", "junk"],
    ["verify", "--n", "3", "--g", "2", "--tau", "1i,1i;1i,1i"],
    ["verify", "--n", "3", "--tol", "nan"],
    ["verify", "--n", "3", "--trials", "0"],
    ["verify", "--n", "3", "--mode", "bogus"],
    ["falsify", "--seed", "-1"],
    ["verify", "--n", "3", "--seed", "x"],
    ["verify", "--n", "3", "--tol", "x"],
    ["suite", "--trials", "x"],
    ["table", "--range", "junk"],
    ["table", "--range", "5..3"],
    ["bogus"],
    ["THETA_MAX_RADIUS=1000", "verify", "--n", "3", "--trials", "2"],
    ["THETA_MAX_RADIUS=4", "verify", "--n", "3", "--trials", "2", "--tau", "0.3+0.05i"],
]

# argparse wraps help text to the terminal width, read from COLUMNS.
HELP = [["COLUMNS=80", "--help"]] + [
    ["COLUMNS=80", command, "--help"]
    for command in ("emit", "verify", "falsify", "suite", "table")
]

LARGE_TOPS = [
    ["verify", "--n", "3", "--mu", top, "--mu", "0;0", "--mu", "0;0", "--trials", "3"]
    for top in ("100000001/3;1", "-100000001/3;1", "1000000000000000000001/3;1")
] + [["verify", "--n", "4", "--g", "2", "--mu", "30000000001/2,1/2;0,1/2",
      *(a for _ in range(3) for a in ("--mu", "0,0;0,0"))]]

LARGE_N = [["emit", "--n", "96", "--format", "text"]]

LARGE_G = [["emit", "--n", "2", "--g", "65", "--format", "text"],
           ["emit", "--n", "2", "--g", "200", "--format", "json"],
           ["verify", "--n", "2", "--g", "12", "--trials", "1"],
           ["falsify", "--n", "2", "--g", "65", "--trials", "1"]]

# Runs whose trials are evaluated in several stacks of lattice sums.
STACKED = [
    ["verify", "--n", "3", "--trials", "40"],
    ["verify", "--n", "3", "--g", "3", "--trials", "2"],
    ["THETA_MAX_RADIUS=4", "verify", "--n", "3", "--trials", "8", "--tau", "0.1+0.8i"],
    ["falsify", "--n", "3", "--trials", "12"],
    ["falsify", "--n", "5", "--g", "2", "--trials", "12"],
    ["THETA_MAX_RADIUS=4", "falsify", "--n", "3", "--trials", "8", "--tau", "0.1+0.8i"],
    ["THETA_MAX_RADIUS=4", "falsify", "--n", "2", "--trials", "6", "--tau", "0.1+0.8i"],
    ["THETA_MAX_RADIUS=4", "suite", "--trials", "8"],
]

# Sides that are not a finite number.
NON_FINITE = [["verify", "--n", "3", "--tau", tau, "--trials", "1"]
              for tau in ("1e308i", "1e307+1i")]

CASES = (_emit_cases() + _run_cases() + STACKED + MALFORMED + HELP + LARGE_TOPS + LARGE_N
         + LARGE_G + NON_FINITE)


def _load_main(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    from thetarel import cli

    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported thetarel from {cli.__file__}, not from {src}")
    return cli.main


def digest(main, case: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr of one in-process run."""
    env = {}
    argv = list(case)
    while argv and "=" in argv[0]:
        name, value = argv.pop(0).split("=", 1)
        env[name] = value
    os.environ.pop("THETA_MAX_RADIUS", None)
    os.environ.update(env)
    out, err = io.StringIO(), io.StringIO()
    raised = False
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:
                code, raised = type(exc).__name__, True
    finally:
        for name in env:
            os.environ.pop(name, None)
    if raised:
        print(f"raised {code}: {shlex.join(case)}", file=sys.stderr)
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    cli_main = _load_main(root)
    lines = [f"{digest(cli_main, case)}  {shlex.join(case)}" for case in CASES]
    again = [f"{digest(cli_main, case)}  {shlex.join(case)}" for case in reversed(CASES)][::-1]
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print("\n".join(lines))
    print(f"{total}  total")
    leaks = [line.split("  ", 1)[1] for line, other in zip(lines, again) if line != other]
    for case in leaks:
        print(f"second pass differs: {case}", file=sys.stderr)
    return 1 if leaks else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
