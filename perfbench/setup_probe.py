"""One set-up as a user pays it: a fresh interpreter imports thetarel and
builds a workload's inputs, then exits.  run.py times this script.

    python3 perfbench/setup_probe.py WORKLOAD SEED SECONDS
"""

import signal
import sys
from pathlib import Path

# SIGALRM's default action ends the process: a hung probe cannot hang the run.
signal.alarm(120)
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402  (imports thetarel)

name, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
workloads.WORKLOADS[name]().build(seed, workloads.cycles_for(name, seconds))
