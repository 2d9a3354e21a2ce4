"""verify ms/trial of thetarel on the (n, g) grid, written as JSON.

Usage: python3 tools/verify_grid.py --out PATH [--trials T] [--repeats R]
                                    [--runs K] [--cells N,G ...] [NAME=ROOT ...]

Times the library call verify(RelationSpec.create(n, g), T) (all-zero
mu, modified mode, the default seed) for each (n, g) cell, in a fresh
interpreter per root and cell that imports thetarel from ROOT/src.  Each
cell runs once untimed, so the spec and the lattice-sum axes are warm,
then R timed times; the best is reported as ms per trial, both as wall
time and normalised for host-speed drift by perfbench/hostspeed.py
(loaded by path), at the speed where its reference mix takes REF_MIX_S.
Each cell also times the report rendering layer: the JSON round trip of
the cell's relation as the emit benchmark makes it, parse_terms_json of
the text of `emit --n N --g G --format json`, then dumps of
terms_to_json_obj of what it returns, checked once against that text
and reported the same way, as ms per round trip.  rows_ms and
records_ms split the object half of that trip: terms_to_json_obj of
the cell's relation alone, checked once against json.loads of the
text, and dumps of that object alone, checked once against the text.
report_ms times dumps of the cell's verify report, built as the verify
command builds it from the reports of the untimed run and checked once
against the stdout of `verify --n N --g G --trials T`.  emit_ms times
the three command-line renderers of the cell's relation, each writing the stdout
of `emit --n N --g G --format F` for F = json, latex and text, against
which each is checked once, and is reported the same way, as ms for
the three documents.  theta_us times the
lattice sums alone: theta(mu_j, z_j, tau), with its rounding bound, for
the cell's n zero characteristics mu_j at the arguments and tau of its
first sampler trial, T times over per timed call, reported the same way
as microseconds per theta() call.
OpenBLAS runs one thread, as in perfbench/run.py.  Roots default to
this=the repository that holds this script; with several, say
parent=OLD change=NEW, they are measured in turn cell by cell, in an
order that alternates from cell to cell.  With --runs K, each root is
measured K times per cell, each time in a fresh interpreter, in an
order that also alternates from run to run; a cell's times are then
the medians of its K runs, and ms_per_trial_runs lists the K values of
ms_per_trial, so the spread of each cell is in the document.  The
document holds the host (python, numpy, nproc, the BLAS threads and
configuration), the settings and, per root, each cell's times.  Stdlib
only in this process; the interpreters it starts import numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERFBENCH = HERE.parent / "perfbench"
# The (n, g) grid of ROADMAP item 1.
GRID = [(3, 1), (4, 1), (5, 1), (7, 1), (3, 2), (4, 2), (5, 2), (7, 2), (3, 3), (5, 3)]
# The default --tol of the verify command.
VERIFY_TOL = 1e-9


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _cell(root: str, n: int, g: int, trials: int, repeats: int) -> dict:
    """The times of one cell, measured in this interpreter."""
    src = Path(root, "src").resolve()
    sys.path.insert(0, str(src))
    import numpy as np
    import thetarel
    from thetarel import RelationSpec, TrialSampler, cli, render, theta, verify
    from thetarel.relations import _terms_json_obj, _with_trials, build_relation

    if Path(thetarel.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported thetarel from {thetarel.__file__}, not from {src}")

    hostspeed, run = _load("hostspeed"), _load("run")
    spec, speed = RelationSpec.create(n, g), hostspeed.HostSpeed()

    def best(call):
        """(normalised, wall) seconds of the best of repeats calls."""
        times = []
        for _ in range(repeats):
            speed.sample()
            start = time.perf_counter()
            call()
            wall = time.perf_counter() - start
            speed.sample()
            times.append((speed.normalise(start, wall), wall))
        return min(times)

    def stdout_of(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main([*argv, "--n", str(n), "--g", str(g)])
        return out.getvalue()

    terms = build_relation(spec)
    renderers = {
        "json": lambda: render.dumps(_terms_json_obj(spec, terms, written=True)) + "\n",
        "latex": lambda: render.relation_to_latex(spec, terms) + "\n",
        "text": lambda: render.terms_to_text(spec, terms),
    }
    for fmt, write in renderers.items():
        if write() != stdout_of("emit", "--format", fmt):
            raise SystemExit(f"the {fmt} renderer of ({n},{g}) is not the emit command's text")

    def emits():
        for write in renderers.values():
            write()

    text = stdout_of("emit", "--format", "json")

    def roundtrip():
        return render.dumps(render.terms_to_json_obj(*render.parse_terms_json(text))) + "\n"

    if roundtrip() != text:
        raise SystemExit(f"the JSON round trip of ({n},{g}) changed the emit text")
    obj = render.terms_to_json_obj(spec, terms)
    if obj != json.loads(text):
        raise SystemExit(f"the object of ({n},{g}) is not the emit text's object")
    if render.dumps(obj) + "\n" != text:
        raise SystemExit(f"dumps of the object of ({n},{g}) is not the emit text")
    sampler = TrialSampler()
    args, tau = sampler.draw(sampler.make_rng(), n, g)

    def thetas():
        for _ in range(trials):
            for mu, z in zip(spec.mu, args):
                theta(mu, z, tau)

    report = _with_trials(_terms_json_obj(spec, terms, written=True),
                          verify(spec, trials), VERIFY_TOL)
    if render.dumps(report) + "\n" != stdout_of("verify", "--trials", str(trials)):
        raise SystemExit(f"the verify report of ({n},{g}) is not the verify command's text")
    thetas()
    normalised, wall = best(lambda: verify(spec, trials))
    render_normalised, render_wall = best(roundtrip)
    rows_normalised, rows_wall = best(lambda: render.terms_to_json_obj(spec, terms))
    records_normalised, records_wall = best(lambda: render.dumps(obj))
    report_normalised, report_wall = best(lambda: render.dumps(report))
    emit_normalised, emit_wall = best(emits)
    theta_normalised = best(thetas)[0]
    threads, config = run._blas_threads()
    return {"ms_per_trial": normalised * 1e3 / trials, "wall_ms_per_trial": wall * 1e3 / trials,
            "render_ms": render_normalised * 1e3, "wall_render_ms": render_wall * 1e3,
            "rows_ms": rows_normalised * 1e3, "wall_rows_ms": rows_wall * 1e3,
            "records_ms": records_normalised * 1e3, "wall_records_ms": records_wall * 1e3,
            "report_ms": report_normalised * 1e3, "wall_report_ms": report_wall * 1e3,
            "emit_ms": emit_normalised * 1e3, "wall_emit_ms": emit_wall * 1e3,
            "theta_us": theta_normalised * 1e6 / (trials * n),
            "host": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "nproc": os.cpu_count(), "blas_threads": threads, "blas_config": config}}


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description="verify ms/trial on the (n, g) grid")
    p.add_argument("--out", type=Path)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--cells", nargs="+", default=[f"{n},{g}" for n, g in GRID])
    p.add_argument("--child", nargs=3, metavar=("ROOT", "N", "G"), help=argparse.SUPPRESS)
    p.add_argument("roots", nargs="*", metavar="NAME=ROOT")
    args = p.parse_args(argv)
    if args.child:
        root, n, g = args.child
        print(json.dumps(_cell(root, int(n), int(g), args.trials, args.repeats)))
        return 0
    if args.out is None:
        p.error("--out is required")
    if args.runs < 1:
        p.error("--runs must be at least 1")
    for cell in args.cells:
        if not re.fullmatch(r"\d+,\d+", cell):
            p.error(f"--cells takes N,G items, not {cell!r}; give NAME=ROOT before --cells")
    roots = dict(r.split("=", 1) for r in args.roots) or {"this": str(HERE.parent)}
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    runs, host = {name: {} for name in roots}, None
    for i, cell in enumerate(args.cells):
        n, g = cell.split(",")
        measured: dict[str, list[dict]] = {name: [] for name in roots}
        for k in range(args.runs):
            for name in list(roots)[:: -1 if (i + k) % 2 else 1]:
                done = subprocess.run(
                    [sys.executable, __file__, "--child", roots[name], n, g,
                     "--trials", str(args.trials), "--repeats", str(args.repeats)],
                    env=env, capture_output=True, text=True, check=True)
                times = json.loads(done.stdout)
                host = times.pop("host")
                measured[name].append(times)
                print(f"{name:>8} ({cell}): {times['ms_per_trial']:9.3f} ms/trial, "
                      f"{times['render_ms']:9.3f} ms/round trip, "
                      f"{times['rows_ms']:8.3f} ms/rows, "
                      f"{times['records_ms']:8.3f} ms/records, "
                      f"{times['report_ms']:8.3f} ms/report, "
                      f"{times['emit_ms']:8.3f} ms/emit, "
                      f"{times['theta_us']:8.1f} us/theta", file=sys.stderr)
        for name, each in measured.items():
            runs[name][cell] = {field: statistics.median(t[field] for t in each)
                                for field in each[0]}
            runs[name][cell]["ms_per_trial_runs"] = [t["ms_per_trial"] for t in each]
    document = {
        "metric": "verify(RelationSpec.create(n, g), trials) ms per trial, all-zero mu, "
                  "best of repeats after one untimed run, median of runs",
        "render_metric": "report rendering: ms per JSON round trip of the emit text of the "
                         "same relation, dumps(terms_to_json_obj(*parse_terms_json(text))), "
                         "best of repeats after one checked run",
        "rows_metric": "report rendering: ms per terms_to_json_obj of the cell's relation, "
                       "the object half of the round trip, best of repeats after one run "
                       "checked against json.loads of the emit text",
        "records_metric": "report rendering: ms per dumps of that object, best of repeats "
                          "after one run checked against the emit text",
        "report_metric": "report rendering: ms per dumps of the verify report of the cell, "
                         "with its trials, as the verify command writes it, best of repeats "
                         "after one run checked against that command's stdout",
        "emit_metric": "report rendering: ms for the json, latex and text documents of the "
                       "cell's relation as the emit command writes them, best of repeats after "
                       "one run checked against that command's stdout",
        "theta_metric": "lattice sums: us per theta(mu_j, z_j, tau) call with its rounding "
                        "bound, the n zero mu_j at the first sampler trial of the cell, trials "
                        "times over per timed call, best of repeats after one untimed pass",
        "trials": args.trials,
        "repeats": args.repeats,
        "runs_per_side": args.runs,
        "host": host,
        "runs": runs,
    }
    args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
