import json
import subprocess
import sys

import pytest

from thetarel.cli import main
from thetarel.render import parse_terms_json, dumps, terms_to_json_obj


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_matches_reference(capsys):
    code, out, _ = run_cli(capsys, "table", "--range", "3..10")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert [(int(a), int(b)) for a, b in rows] == [
        (3, 3), (4, 2), (5, 5), (6, 3), (7, 7), (8, 4), (9, 9), (10, 5)
    ]


def test_table_json_and_n2(capsys):
    code, out, _ = run_cli(capsys, "table", "--range", "2..3", "--format", "json")
    assert code == 0
    assert json.loads(out)["rows"][0] == {"n": 2, "lambda": 1}


def test_table_bad_range_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "table", "--range", "junk")
    assert code == 64
    assert "junk" in err


def test_emit_latex_nine_terms(capsys):
    code, out, _ = run_cli(capsys, "emit", "--n", "3", "--g", "1")
    assert code == 0
    assert out.count("\\binom") == 10  # one left side + nine summands
    assert out.startswith("3\\cdot\\binom{0}{0} = ")
    assert "\\omega" in out
    code2, out2, _ = run_cli(capsys, "emit", "--n", "3", "--g", "1")
    assert out2 == out  # byte-stable


def test_emit_json_four_terms(capsys):
    code, out, _ = run_cli(capsys, "emit", "--n", "4", "--g", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert [t["exponent"] for t in obj["terms"]] == ["0", "0", "0", "1/2"]


def test_emit_json_81_terms_genus2(capsys):
    code, out, _ = run_cli(capsys, "emit", "--n", "3", "--g", "2", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["terms"]) == 81


def test_emit_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "emit", "--n", "6", "--g", "1", "--format", "json",
        "--mu", "1/3;0", "--mu", "0;2/3", "--mu", "2/3;1/3",
        "--mu", "0;0", "--mu", "1/3;1/3", "--mu", "0;0",
    )
    assert code == 0
    spec, terms = parse_terms_json(out)
    assert dumps(terms_to_json_obj(spec, terms)) + "\n" == out


@pytest.mark.parametrize(
    "argv",
    [
        # denominators not dividing lambda, values outside [0, 1)
        ["--n", "6", "--mu=1/7;5/3", "--mu=-4/3;3/11", "--mu=-9/4;0",
         "--mu=2/3;1/2", "--mu=0;-1/5", "--mu=7/2;1/3"],
        ["--n", "7", "--g", "2"],
    ],
    ids=["6-1-nonstandard", "7-2"],
)
def test_emit_json_roundtrip_nonstandard_mu_and_genus_two(capsys, argv):
    code, out, _ = run_cli(capsys, "emit", "--format", "json", *argv)
    assert code == 0
    spec, terms = parse_terms_json(out)
    assert dumps(terms_to_json_obj(spec, terms)) + "\n" == out


def test_emit_text_format(capsys):
    code, out, _ = run_cli(capsys, "emit", "--n", "4", "--g", "1", "--format", "text")
    assert code == 0
    assert "lambda=2" in out and out.count("\n") == 6


def test_emit_latex_coefficient_styles(capsys):
    # lambda = 5: generic exponents render as e(p/q)
    code, out5, _ = run_cli(capsys, "emit", "--n", "5", "--g", "1")
    assert code == 0
    assert "{\\bf e}\\left(2/5\\right)" in out5
    # lambda = 2: the single nontrivial coefficient renders as a minus sign
    _, out4, _ = run_cli(capsys, "emit", "--n", "4", "--g", "1")
    assert "- \\binom{\\frac{1}{2}}{\\frac{1}{2}}'" in out4
    assert "e}\\left" not in out4


def test_verify_rejects_latex_format(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "3", "--format", "latex")
    assert code == 64
    assert "emit" in err


def test_emit_requires_n(capsys):
    code, _, err = run_cli(capsys, "emit")
    assert code == 64
    assert "--n" in err


def test_emit_bad_mu_token(capsys):
    code, _, err = run_cli(
        capsys, "emit", "--n", "3", "--mu", "0;0", "--mu", "oops;0", "--mu", "0;0"
    )
    assert code == 64
    assert "oops" in err


def test_emit_mu_count_mismatch(capsys):
    code, _, err = run_cli(capsys, "emit", "--n", "3", "--mu", "0;0")
    assert code == 64
    assert "3" in err


def test_verify_passes_and_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "3", "--g", "1", "--trials", "5", "--tol", "1e-9"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_byte_stable(capsys):
    args = ["verify", "--n", "3", "--trials", "3", "--tol", "1e-9", "--seed", "7"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_verify_naive_exit_one(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "4", "--g", "1", "--mode", "naive", "--trials", "5"
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_verify_fixed_tau(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "3", "--trials", "3", "--tau", "0.2+0.9i"
    )
    assert code == 0
    obj = json.loads(out)
    assert all(t["tau"] == [[[0.2, 0.9]]] for t in obj["trials"])


def test_verify_bad_tau(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "3", "--tau", "wat")
    assert code == 64
    code, _, err = run_cli(capsys, "verify", "--n", "3", "--tau", "0.2-0.9i")
    assert code == 64  # lower half-plane
    code, _, err = run_cli(capsys, "verify", "--n", "3", "--g", "2", "--tau", "0.2+0.9i")
    assert code == 64


@pytest.mark.parametrize("tau", ["nan+1i", "0.2+nani"])
def test_verify_non_finite_tau_is_usage_error(capsys, tau):
    code, out, err = run_cli(capsys, "verify", "--n", "3", "--tau", tau)
    assert code == 64
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize("tau", ["inf+1i", "nan+1i"])
def test_verify_tau_keeps_non_unit_i(capsys, tau):
    # Only the trailing imaginary unit is rewritten, so the "i" of "inf"
    # survives and the value reaches the finite check.
    code, out, err = run_cli(capsys, "verify", "--n", "3", "--tau", tau)
    assert code == 64
    assert out == ""
    assert "must be finite" in err
    assert "cannot parse" not in err


def test_verify_truncation_exit_two(capsys, monkeypatch):
    monkeypatch.setenv("THETA_MAX_RADIUS", "1")
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--trials", "2")
    assert code == 2
    assert all(t["status"] == "eval-failed" for t in json.loads(out)["trials"])


def test_env_radius_must_be_valid(capsys, monkeypatch):
    monkeypatch.setenv("THETA_MAX_RADIUS", "1000")
    code, _, err = run_cli(capsys, "verify", "--n", "3", "--trials", "2")
    assert code == 64
    assert "THETA_MAX_RADIUS" in err


def test_falsify_defaults_demonstrate_failure(capsys):
    code, out, _ = run_cli(capsys, "falsify")
    assert code == 0
    obj = json.loads(out)
    assert obj["falsified"] is True
    assert obj["spec"]["mode"] == "naive"
    assert obj["spec"]["n"] == 4
    assert max(
        t["rel_error"] for t in obj["trials"] if t["status"] == "ok"
    ) > 0.01


def test_falsify_cannot_break_true_identity(capsys):
    # n=2 naive relation is genuinely true: no counterexample, exit 1.
    code, out, _ = run_cli(capsys, "falsify", "--n", "2", "--trials", "2")
    assert code == 1
    obj = json.loads(out)
    assert obj["falsified"] is False
    assert all(t["status"] == "flagged" for t in obj["trials"])


def test_suite_command(capsys):
    code, out, _ = run_cli(capsys, "suite", "--trials", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "pass"
    assert len(obj["cases"]) == 8


def test_suite_text_format(capsys):
    code, out, _ = run_cli(capsys, "suite", "--trials", "2", "--format", "text")
    assert code == 0
    assert "verdict: pass" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--n", "3", "--trials", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["verdict"] == "pass"


def test_unknown_command_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bogus"])
    assert info.value.code == 64


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "thetarel", "table", "--range", "3..4"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "3" in proc.stdout
