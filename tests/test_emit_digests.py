"""Every emit output of the benchmark matches its committed sha256.

The configurations, argv and keys are read from perfbench/workloads.py
and the digests from perfbench/emit_digests.json, so this test and the
benchmark's emit check can never disagree about the expected bytes."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from thetarel.cli import main
from thetarel.render import dumps, parse_terms_json, terms_to_json_obj

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    # workloads.py imports its sibling reference.py as a top-level module.
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        # dataclasses looks the module up while the class body runs.
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


W = _load_workloads()
DIGESTS = json.loads((PERFBENCH / "emit_digests.json").read_text())
CASES = [
    (n, g, variant, fmt)
    for (n, g), _ in W.EMIT_CONFIGS
    for variant in range(W.EMIT_VARIANTS)
    for fmt in W.EMIT_FORMATS
]


def test_every_digest_is_covered():
    assert sorted(W.emit_key(*case) for case in CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("case", CASES, ids=lambda case: W.emit_key(*case))
def test_emit_output_matches_digest(capsys, case):
    assert main(W.emit_argv(*case)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[W.emit_key(*case)]


@pytest.mark.parametrize("case", [case for case in CASES if case[3] == "json"],
                         ids=lambda case: W.emit_key(*case))
def test_json_document_round_trips_through_parse(capsys, case):
    assert main(W.emit_argv(*case)) == 0
    out = capsys.readouterr().out
    spec, terms = parse_terms_json(out)
    assert dumps(terms_to_json_obj(spec, terms)) + "\n" == out
