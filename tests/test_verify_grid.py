"""tools/verify_grid.py times verify and the JSON round trip on the (n, g)
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
    assert times["render_ms"] > 0 and times["wall_render_ms"] > 0
    assert set(times) == {"ms_per_trial", "wall_ms_per_trial", "render_ms", "wall_render_ms"}
    assert "render_metric" in document
