"""tools/cli_digest.py digests the command line over a fixed argv set."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "cli_digest.py"


def _run():
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT)], capture_output=True, text=True, check=True,
        timeout=300,
    )
    return done.stdout.splitlines()


def test_two_runs_print_the_same_digests():
    first, second = _run(), _run()
    assert first == second
    assert first[-1].endswith("  total")
    digests = [line.split("  ", 1)[0] for line in first]
    assert all(len(d) == 64 for d in digests)
    argvs = [line.split("  ", 1)[1] for line in first[:-1]]
    assert len(set(argvs)) == len(argvs) > 70
