"""tools/verify_grid.py times verify, the JSON round trip and its object
half, the verify report's dumps and the emit renderers on the (n, g)
grid."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "verify_grid.py"


def test_one_cell_writes_its_times_and_the_host(tmp_path):
    out = tmp_path / "grid.json"
    subprocess.run([sys.executable, str(TOOL), "--cells", "3,1", "--trials", "2",
                    "--repeats", "1", "--out", str(out)],
                   capture_output=True, text=True, check=True, timeout=120)
    document = json.loads(out.read_text())
    assert (document["trials"], document["repeats"]) == (2, 1)
    assert set(document["host"]) == {"python", "numpy", "nproc", "blas_threads", "blas_config"}
    (times,) = document["runs"]["this"].values()
    assert list(document["runs"]["this"]) == ["3,1"]
    assert times["ms_per_trial"] > 0 and times["wall_ms_per_trial"] > 0
    assert times["render_ms"] > 0 and times["wall_render_ms"] > 0 and times["theta_us"] > 0
    assert times["report_ms"] > 0 and times["wall_report_ms"] > 0
    assert times["rows_ms"] > 0 and times["wall_rows_ms"] > 0
    assert times["records_ms"] > 0 and times["wall_records_ms"] > 0
    assert times["emit_ms"] > 0 and times["wall_emit_ms"] > 0
    assert set(times) == {"ms_per_trial", "wall_ms_per_trial", "render_ms", "wall_render_ms",
                          "report_ms", "wall_report_ms", "emit_ms", "wall_emit_ms", "theta_us",
                          "rows_ms", "wall_rows_ms", "records_ms", "wall_records_ms",
                          "ms_per_trial_runs"}
    assert times["ms_per_trial_runs"] == [times["ms_per_trial"]]
    assert {"render_metric", "rows_metric", "records_metric", "report_metric", "emit_metric",
            "theta_metric"} <= set(document)


def test_runs_are_medians_with_every_run_listed(tmp_path):
    out = tmp_path / "grid.json"
    root = str(TOOL.parents[1])
    done = subprocess.run([sys.executable, str(TOOL), "--cells", "3,1", "--trials", "2",
                           "--repeats", "1", "--runs", "3", "--out", str(out),
                           f"parent={root}", f"change={root}"],
                          capture_output=True, text=True, check=True, timeout=300)
    document = json.loads(out.read_text())
    assert document["runs_per_side"] == 3
    for name in ("parent", "change"):
        times = document["runs"][name]["3,1"]
        assert len(times["ms_per_trial_runs"]) == 3
        assert times["ms_per_trial"] == sorted(times["ms_per_trial_runs"])[1]
    # The two roots alternate from run to run within the cell.
    order = [line.split()[0] for line in done.stderr.splitlines()]
    assert order == ["parent", "change", "change", "parent", "parent", "change"]


def test_a_root_after_cells_is_a_usage_error(tmp_path):
    # --cells takes one or more items, so a NAME=ROOT after it is read as
    # a cell; it must be refused before anything runs.
    done = subprocess.run([sys.executable, str(TOOL), "--out", str(tmp_path / "grid.json"),
                           "--cells", "3,1", "parent=."], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2
    assert "give NAME=ROOT before --cells" in done.stderr
    assert not (tmp_path / "grid.json").exists()
