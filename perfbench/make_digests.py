"""Write emit_digests.json: the sha256 of every emit output the emit
workload can produce.  The emit output is promised to be byte-stable, so
this file is written once and a changed digest is a failed op.

    python3 perfbench/make_digests.py
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402

digests = {}
for (n, g), _ in workloads.EMIT_CONFIGS:
    for variant in range(workloads.EMIT_VARIANTS):
        for fmt in workloads.EMIT_FORMATS:
            text = workloads.emit_output(n, g, variant, fmt)
            digests[workloads.emit_key(n, g, variant, fmt)] = hashlib.sha256(text.encode()).hexdigest()
workloads.DIGESTS_FILE.write_text(json.dumps(digests, indent=1) + "\n")
print(f"wrote {len(digests)} digests to {workloads.DIGESTS_FILE}")
