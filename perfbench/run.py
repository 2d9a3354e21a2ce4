"""thetarel benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {verify,theta-eval,emit}
        [--seed N] [--seconds S] [--trace {0,1}]

Run from the repository root; the library is imported from ./src.
--seed draws the workload's inputs (default DEFAULT_SEED; HELD_OUT_SEED
is kept for confirming a claim on inputs not used while writing it).
--seconds sets the amount of work: a run is round(S / CYCLE_SECONDS)
cycles of the workload, about S seconds of measured ops at the commit
that defined the benchmark, so two commits always measure the same ops.

--trace 0 prints the end-to-end metrics:
  setup_s      median time of SETUP_PROBES fresh interpreters that
               import thetarel and build the inputs (no reference values)
  ops_per_s    ops / summed op time (checks run between ops, untimed)
  op_ms.p50, op_ms.p90   per-op latency over every attempted op
  ok_share     ops that passed their check / ops attempted (1 - failed_share)
  peak_rss_mb  ru_maxrss of this process
Times are normalised for host-speed drift (hostspeed.py); the raw wall
times are in the run record.
--trace 1 runs half the cycles untraced and the same ops again with
spans.install's wrappers, and prints the per-layer metrics and
trace.overhead, the ratio of the two passes' summed op times.

theta-eval also evaluates its known-defect slice (equicorrelated Im tau,
ROADMAP item 2) after the timed passes and reports it under
"known_defect"; those draws are not ops and do not count in attempted
or failed.

Progress, the run record and the metrics go to stdout as text; the last
line is the JSON result.  Records and spans are also written under
.bench_out/.  Exit status is 0 whenever the run completed, even with
failed ops; failures are counted, not fatal.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUP_PROBES = 5
# One caller runs one op at a time on one thread, so op times do not
# depend on how many CPUs a shared host leaves idle.  OpenBLAS's default
# of nproc threads made the g=3 matmuls about 8% faster.  Set before numpy
# loads; the set-up probes inherit it.
BLAS_THREADS = "1"
# A run that has taken this many times --seconds stops starting ops.
DEADLINE_FACTOR = 6


def _load_library():
    sys.path.insert(0, str(SRC))
    try:
        import thetarel
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import thetarel from {SRC}: {exc}")
    if Path(thetarel.__file__).resolve().parent != SRC / "thetarel":
        sys.exit(f"perfbench: thetarel came from {thetarel.__file__}, not {SRC}")


def _blas_threads():
    """(thread count, config) of the OpenBLAS numpy loaded, or (None, None)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None, None
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                conf = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get is not None:
                    get.restype = ctypes.c_int
                    config = None
                    if conf is not None:
                        conf.restype = ctypes.c_char_p
                        config = conf().decode()
                    return get(), config
    return None, None


def _proc_field(path: str, key: str):
    """Value of the first ``key: value`` line of a /proc file, or None."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def measure_setup(workload: str, seed: int, seconds: float, speed) -> list[tuple[float, float]]:
    """(normalised, wall) seconds of each fresh-interpreter set-up.

    No ``timeout`` here: with one, subprocess polls the child in steps of
    up to 50 ms, which rounded set-up times up to those steps.  The probe
    ends itself after 120 s instead.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(seconds)]
    times = []
    for _ in range(SETUP_PROBES):
        speed.sample()
        speed.sample()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append((t0, time.perf_counter() - t0))
        speed.sample()
        speed.sample()
    return [(speed.normalise(t0, wall), wall) for t0, wall in times]


def run_pass(wl, ops, deadline: float, speed, tracer=None):
    """Execute ops one at a time.

    Returns (latencies, outcomes); a latency is (normalised, wall) seconds.
    """
    from workloads import Outcome

    starts, walls, outcomes = [], [], []
    for i, op in enumerate(ops):
        if time.monotonic() > deadline:
            break
        speed.sample_if_due()
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        starts.append(t0)
        try:
            result = wl.execute(op)
        except Exception:
            walls.append(time.perf_counter() - t0)
            traceback.print_exc(file=sys.stderr)
            outcomes.append(Outcome(False, None, "exception"))
            continue
        walls.append(time.perf_counter() - t0)
        try:
            outcomes.append(wl.check(op, result))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            outcomes.append(Outcome(False, None, "check raised"))
    speed.sample()
    latencies = [(speed.normalise(t0, w), w) for t0, w in zip(starts, walls)]
    return latencies, outcomes


def _latency_metrics(latencies: list[float]) -> dict[str, float]:
    q = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms.p50": statistics.median(latencies) * 1e3,
        "op_ms.p90": q[8] * 1e3,
    }


def _digest(outcomes) -> str:
    """sha256 over the per-op stdout digests, in op order."""
    h = hashlib.sha256()
    for o in outcomes:
        if o.digest is not None:
            h.update(o.digest.encode())
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["verify", "theta-eval", "emit"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    _load_library()
    import numpy as np

    import hostspeed
    import spans
    import workloads

    deadline = time.monotonic() + DEADLINE_FACTOR * args.seconds
    cycles = workloads.cycles_for(args.workload, args.seconds)
    if args.trace:
        cycles = max(1, cycles // 2)
    speed = hostspeed.HostSpeed()
    setup = [] if args.trace else measure_setup(args.workload, args.seed, args.seconds, speed)

    wl = workloads.WORKLOADS[args.workload]()
    ops = wl.build(args.seed, cycles)
    wl.prepare(ops)
    # Warm-up: run ops in order until every op kind has run once.
    kinds = {op.kind for op in ops}
    warm = 0
    while kinds:
        kinds.discard(ops[warm].kind)
        warm += 1
    run_pass(wl, ops[:warm], deadline, speed)

    latencies, outcomes = run_pass(wl, ops, deadline, speed)
    norm = [n for n, _ in latencies]
    walls = [w for _, w in latencies]
    all_outcomes = list(outcomes)
    if args.trace:
        tracer = spans.Tracer()
        uninstall = spans.install(tracer)
        try:
            t_lat, t_out = run_pass(wl, ops[:len(outcomes)], deadline, speed, tracer)
        finally:
            uninstall()
        for a, b in zip(outcomes, t_out):
            if a.digest != b.digest and b.ok:
                b.ok, b.reason = False, "traced output differs"
        all_outcomes += t_out
    # Untimed and untraced; reported, not counted in attempted or failed.
    probe = wl.probe_known_defect(args.seed) if hasattr(wl, "probe_known_defect") else None
    if args.trace:
        overhead = sum(n for n, _ in t_lat) / sum(norm)
        metrics = spans.layer_metrics(tracer, len(t_out), probe, overhead)
    else:
        lat = _latency_metrics(norm)
        metrics = {
            "setup_s": (statistics.median(n for n, _ in setup), "s"),
            "ops_per_s": (lat["ops_per_s"], "ops/s"),
            "op_ms.p50": (lat["op_ms.p50"], "ms"),
            "op_ms.p90": (lat["op_ms.p90"], "ms"),
            "ok_share": (sum(o.ok for o in outcomes) / len(outcomes), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    attempted = len(all_outcomes)
    failed = sum(not o.ok for o in all_outcomes)
    reasons = Counter(o.reason for o in all_outcomes if not o.ok)

    by_label = {}
    for op, dt in zip(ops, norm):
        by_label.setdefault(op.label, []).append(dt)
    by_label = dict(sorted(by_label.items()))
    blas_threads, blas_config = _blas_threads()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": cycles,
        "ops": len(latencies),
        "op_counts": {k: len(v) for k, v in by_label.items()},
        "op_median_ms": {k: statistics.median(v) * 1e3 for k, v in by_label.items()},
        "stdout_sha256": _digest(outcomes),
        "failed_share": sum(not o.ok for o in outcomes) / len(outcomes),
        "failure_reasons": dict(reasons),
        "known_defect": probe,
        "setup_probes_s": [n for n, _ in setup],
        "timed_s": sum(norm),
        # The same times in raw wall time, before host-speed normalisation.
        "wall": {
            "setup_s": statistics.median(w for _, w in setup) if setup else None,
            "timed_s": sum(walls),
            **_latency_metrics(walls),
        },
        "host_mix_ms": {
            "ref": hostspeed.REF_MIX_S * 1e3,
            "min": min(speed.mixes) * 1e3,
            "median": statistics.median(speed.mixes) * 1e3,
            "max": max(speed.mixes) * 1e3,
        },
        "stopped_at_deadline": len(latencies) < len(ops),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": blas_threads,
        "blas_config": blas_config,
        "os_threads": int(_proc_field("/proc/self/status", "Threads") or 0) or None,
        "cpu_model": _proc_field("/proc/cpuinfo", "model name") or platform.processor(),
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        record["spans_file"] = str(Path(OUT_DIR.name) / f"spans-{stem}.jsonl")
        tracer.write(OUT_DIR / f"spans-{stem}.jsonl")
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT_DIR / f"record-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}, indent=2))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:40s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"{args.workload:10s} {'failed_share':40s} {record['failed_share']:14.6g} ratio")
    if probe is not None:
        print(f"{args.workload:10s} known defect, not counted: {probe['failed']} of "
              f"{probe['draws']} {probe['slice']} draws beyond tail_bound "
              f"(share {probe['failed_share']:.4g}, worst error {probe['worst_abs_error']:.3g})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
