"""tools/cli_digest.py digests the command line over a fixed argv set."""

import hashlib
import importlib.util
import json
import shlex
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
    # Exit 0 and no stderr: the second in-process pass over the argv
    # printed the same digests as the first.
    assert done.stderr == ""
    return done.stdout.splitlines()


def _tool():
    spec = importlib.util.spec_from_file_location("cli_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_print_the_same_digests():
    first, second = _run(), _run()
    assert first == second
    assert first[-1].endswith("  total")
    digests = [line.split("  ", 1)[0] for line in first]
    assert all(len(d) == 64 for d in digests)
    argvs = [line.split("  ", 1)[1] for line in first[:-1]]
    assert len(set(argvs)) == len(argvs) > 70


def test_a_second_pass_that_differs_exits_one(monkeypatch, capsys):
    """A main whose output depends on an earlier run in the process, as
    a leaking cache would make it, is reported by argv and exits 1."""
    tool = _tool()
    seen = set()

    def leaky_main(argv):
        if argv == ["table"] and tuple(argv) in seen:
            print("warm")
        seen.add(tuple(argv))
        return 0

    monkeypatch.setattr(tool, "_load_main", lambda root: leaky_main)
    assert tool.main(["cli_digest.py"]) == 1
    out, err = capsys.readouterr()
    assert err == "second pass differs: table\n"
    assert len(out.splitlines()) == len(tool.CASES) + 1

    monkeypatch.setattr(tool, "_load_main", lambda root: lambda argv: 0)
    assert tool.main(["cli_digest.py"]) == 0
    assert capsys.readouterr().err == ""


def test_an_argv_that_raises_is_recorded_and_the_others_still_run(monkeypatch, capsys):
    tool = _tool()

    def crashing_main(argv):
        if argv == ["table"]:
            raise TypeError("boom")
        if argv == ["--help"]:
            # An exit with a message is an exit, not a raise.
            raise SystemExit("usage")
        return 0

    monkeypatch.setattr(tool, "_load_main", lambda root: crashing_main)
    assert tool.main(["cli_digest.py"]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == len(tool.CASES) + 1
    # The type name stands in the place of the exit code.
    assert f"{hashlib.sha256(b'TypeError' + bytes(2)).hexdigest()}  table" in lines
    assert err == "raised TypeError: table\n" * 2


def test_the_second_pass_runs_the_cases_in_reverse_order(monkeypatch, capsys):
    """State that one case leaves for the next only changes the case
    before it in CASES, so only a reversed second pass can show it."""
    tool = _tool()
    before = tool.CASES[tool.CASES.index(["table"]) - 1]
    last = [None]

    def main(argv):
        if argv == before and last[0] == ["table"]:
            print("warm")
        last[0] = argv
        return 0

    monkeypatch.setattr(tool, "_load_main", lambda root: main)
    assert tool.main(["cli_digest.py"]) == 1
    assert capsys.readouterr().err == f"second pass differs: {shlex.join(before)}\n"


def _reporting_main(rel_error, verdict):
    """A main whose verify argv print a report in the argv's format, with
    two trials at rel_error, and exit 0 on a pass and 1 otherwise."""
    def main(argv):
        if argv[:1] != ["verify"]:
            return 0
        if "text" in argv:
            print("\n".join([*(f"trial {i:3d}  rel_error={rel_error:.3e}  status=ok"
                               for i in range(2)), f"verdict: {verdict}"]))
        else:
            trials = [{"rel_error": rel_error, "status": "ok"}] * 2
            print(json.dumps({"trials": trials, "verdict": verdict}))
        return 0 if verdict == "pass" else 1
    return main


def test_the_verdict_listing_keeps_float_changes_out_and_shows_a_flipped_verdict(
        monkeypatch, capsys):
    tool = _tool()

    def listing(main, *args):
        monkeypatch.setattr(tool, "_load_main", lambda root: main)
        assert tool.main(["cli_digest.py", *args]) == 0
        return capsys.readouterr().out.splitlines()

    before = listing(_reporting_main(1.25e-15, "pass"), "--verdicts")
    assert len(before) == len(tool.CASES)
    assert ('0 status="ok" status="ok" verdict="pass"  verify --n 3 --trials 3 --seed 1 '
            '--format text') in before
    # Moved last bits change the digests but not the listing.
    assert listing(_reporting_main(1.5e-15, "pass"), "--verdicts") == before
    assert (listing(_reporting_main(1.5e-15, "pass"))
            != listing(_reporting_main(1.25e-15, "pass")))
    flipped = listing(_reporting_main(1.25e-15, "fail"), "--verdicts")
    changed = [case for case, a, b in zip(tool.CASES, before, flipped) if a != b]
    assert changed and all("verify" in case for case in changed)
    assert ('1 status="ok" status="ok" verdict="fail"  verify --n 3 --trials 3 --seed 1 '
            '--format json') in flipped
