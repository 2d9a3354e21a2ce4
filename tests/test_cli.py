import json
import subprocess
import sys

import numpy as np
import pytest

from thetarel import Characteristic, RelationSpec, cli
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


def test_emit_json_roundtrip(capsys, assert_same):
    code, out, _ = run_cli(
        capsys, "emit", "--n", "6", "--g", "1", "--format", "json",
        "--mu", "1/3;0", "--mu", "0;2/3", "--mu", "2/3;1/3",
        "--mu", "0;0", "--mu", "1/3;1/3", "--mu", "0;0",
    )
    assert code == 0
    spec, terms = parse_terms_json(out)
    assert_same(dumps(terms_to_json_obj(spec, terms)) + "\n", out)


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
def test_emit_json_roundtrip_nonstandard_mu_and_genus_two(capsys, argv, assert_same):
    code, out, _ = run_cli(capsys, "emit", "--format", "json", *argv)
    assert code == 0
    spec, terms = parse_terms_json(out)
    assert_same(dumps(terms_to_json_obj(spec, terms)) + "\n", out)


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
    # latex is a --format choice of emit only, so the parser refuses it.
    with pytest.raises(SystemExit) as info:
        main(["verify", "--n", "3", "--format", "latex"])
    assert info.value.code == 64
    assert "argument --format: invalid choice: 'latex'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify", "--n", "3"], ["falsify"], ["suite"]])
@pytest.mark.parametrize("trials", ["0", "-1"])
def test_parser_refuses_fewer_than_one_trial(capsys, command, trials):
    with pytest.raises(SystemExit) as info:
        main([*command, "--trials", trials])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (64, "")
    assert err == f"thetarel {command[0]}: error: argument --trials: must be >= 1, got '{trials}'\n"


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


def _spec_error(n, g, mu):
    """The ValueError message of Characteristic.parse or RelationSpec.create."""
    try:
        RelationSpec.create(n, g, [Characteristic.parse(m) for m in mu] or None)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"n={n} g={g} mu={mu} is a valid spec")


@pytest.mark.parametrize(
    "command, n, g, mu",
    [
        ("emit", 1, 1, []),
        ("emit", 0, 1, []),
        ("emit", -3, 1, []),
        ("emit", 3, 0, []),
        ("emit", 3, -1, []),
        ("emit", 3, 0, ["0;0"] * 3),
        ("emit", 3, 1, ["0;0"]),
        ("emit", 3, 1, ["0,0;0,0", "0;0", "0;0"]),
        ("emit", 3, 2, ["0,0;0,0", "0;0", "0,0;0,0"]),
        ("emit", 3, 1, ["0;0", "oops;0", "0;0"]),
        ("emit", 2, 1, ["0;1/0", "0;0"]),
        ("emit", 2, 1, ["0,0;0", "0;0"]),
        ("verify", 4, 1, ["0;0"]),
        ("falsify", 4, 1, ["0;0"] * 5),
    ],
    ids=["n-1", "n-0", "n-minus-3", "g-0", "g-minus-1", "g-0-with-mu", "mu-count",
         "genus-2-at-g-1", "genus-1-at-g-2", "bad-token", "zero-denominator",
         "half-lengths", "verify-mu-count", "falsify-mu-count"],
)
def test_spec_errors_are_the_messages_of_relation_spec(capsys, command, n, g, mu):
    argv = [command, "--n", str(n), "--g", str(g), *(a for m in mu for a in ("--mu", m))]
    assert run_cli(capsys, *argv) == (64, "", f"thetarel: error: {_spec_error(n, g, mu)}\n")


def test_verify_passes_and_exit_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "3", "--g", "1", "--trials", "5", "--tol", "1e-9"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


@pytest.mark.parametrize(
    "mu",
    [["100000001/3;1", "0;0", "0;0"], ["1000000001/3;1", "0;0", "0;0"],
     ["1000000000000000000001/3;1", "0;0", "0;0"], ["-100000001/3;1", "0;0", "0;0"],
     ["30000000001/2,1/2;0,1/2", "0,0;0,0", "0,0;0,0", "0,0;0,0"]],
    ids=["1e8", "1e9", "1e21", "minus-1e8", "n-4-g-2"],
)
def test_verify_passes_with_a_large_top(capsys, mu):
    """A top far outside the lattice-sum box: its residues and phases are
    exact, so the relation holds to rounding at any size of the top."""
    n, g = len(mu), mu[0].split(";")[0].count(",") + 1
    argv = ["verify", "--n", str(n), "--g", str(g), "--trials", "3",
            *(a for m in mu for a in ("--mu", m))]
    code, out, _ = run_cli(capsys, *argv)
    assert (code, json.loads(out)["verdict"]) == (0, "pass")


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


def test_verify_genus_one_tau_forms_give_the_same_bytes(capsys):
    outs = {
        run_cli(capsys, "verify", "--n", "3", "--trials", "2", "--tau", tau)[1]
        for tau in ["0.3+1.1i", "  0.3+1.1i ", "0.3+1.1j"]
    }
    assert len(outs) == 1
    assert all(t["tau"] == [[[0.3, 1.1]]] for t in json.loads(outs.pop())["trials"])


def test_verify_genus_two_tau_matrix(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--n", "3", "--g", "2", "--trials", "2",
        "--tau", "1.1i,0.2+0.3i; 0.2+0.3i,0.9j",
    )
    assert (code, err) == (0, "")
    obj = json.loads(out)
    assert obj["verdict"] == "pass"
    expected = [[[0.0, 1.1], [0.2, 0.3]], [[0.2, 0.3], [0.0, 0.9]]]
    assert all(t["tau"] == expected for t in obj["trials"])


@pytest.mark.parametrize(
    "g, tau, message",
    [
        ("2", "1.1i,0.2+0.3i;0.2+0.3i", "need a 2x2 matrix"),           # ragged
        ("2", "1.1i,0.2;0.2,0.9i,0.1i", "need a 2x2 matrix"),           # ragged
        ("2", "1.1i,0.2+0.3i;0.2+0.4i,0.9i", "must be symmetric"),
        ("2", "1.1i,nan+0.3i;nan+0.3i,0.9i", "must be finite"),
        ("2", "1.1i,inf;inf,0.9i", "must be finite"),
        ("2", "1.1i,0.2;0.2,-0.9i", "positive definite"),
        ("2", "1i,1i;1i,1.000000000000001i", "smallest-eigenvalue bound"),
        ("2", "1.1i,x;x,0.9i", "cannot parse period"),
        ("2", "0.2+0.9i", "need a 2x2 matrix"),                        # genus 1 for g=2
        ("1", "1.1i,0.2;0.2,0.9i", "need a 1x1 matrix"),               # genus 2 for g=1
        ("2", "1i,0,0;0,1i,0;0,0,1i", "need a 2x2 matrix"),             # genus 3 for g=2
    ],
)
def test_verify_bad_tau_matrix_is_one_line_usage_error(capsys, g, tau, message):
    code, out, err = run_cli(capsys, "verify", "--n", "3", "--g", g, "--tau", tau)
    assert code == 64
    assert out == ""
    assert err.count("\n") == 1 and message in err


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


def _usage_exit(capsys, *argv) -> str:
    """Run an argv that argparse must refuse; return its one stderr line."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    assert info.value.code == 64 and captured.out == ""
    assert captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize(
    "argv", [["verify", "--n", "3"], ["falsify"], ["suite"]], ids=lambda argv: argv[0]
)
def test_negative_seed_is_usage_error(capsys, argv):
    assert "--seed" in _usage_exit(capsys, *argv, "--seed", "-5")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9", "-inf"])
@pytest.mark.parametrize("command", [["verify", "--n", "3"], ["falsify"]],
                         ids=lambda argv: argv[0])
def test_bad_tol_is_usage_error(capsys, command, tol):
    assert "--tol" in _usage_exit(capsys, *command, f"--tol={tol}")


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "3", "--seed", "x"],
    ["verify", "--n", "3", "--tol", "x"],
    ["verify", "--n", "3", "--trials", "x"],
    ["falsify", "--seed", "0x"],
    ["falsify", "--tol", "1e"],
    ["suite", "--trials", "1.5"],
    ["suite", "--seed", "x"],
], ids=" ".join)
def test_a_value_that_is_no_number_names_its_option(capsys, argv):
    err = _usage_exit(capsys, *argv)
    assert f"argument {argv[-2]}: must be a" in err and repr(argv[-1]) in err
    assert not any(name in err for name in ("_seed", "_tol", "_trials"))


def test_tau_value_may_start_with_a_minus(capsys):
    argv = ["verify", "--n", "3", "--trials", "2"]
    spaced = run_cli(capsys, *argv, "--tau", "-0.2+1.1i")
    assert spaced == run_cli(capsys, *argv, "--tau=-0.2+1.1i")
    code, out, err = spaced
    assert (code, err) == (0, "")
    assert all(t["tau"] == [[[-0.2, 1.1]]] for t in json.loads(out)["trials"])


def test_mu_value_may_start_with_a_minus(capsys):
    mu = ["-1/3;0", "0;-2/3", "1/3;0"]
    spaced = run_cli(capsys, "emit", "--n", "3", "--format", "json",
                     *[a for m in mu for a in ("--mu", m)])
    assert spaced == run_cli(capsys, "emit", "--n", "3", "--format", "json",
                             *[f"--mu={m}" for m in mu])
    code, out, err = spaced
    assert (code, err) == (0, "")
    assert json.loads(out)["spec"]["mu"] == mu


def test_tol_value_may_start_with_a_minus(capsys):
    spaced = _usage_exit(capsys, "verify", "--n", "3", "--tol", "-inf")
    assert spaced == _usage_exit(capsys, "verify", "--n", "3", "--tol=-inf")
    assert "must be finite" in spaced
    # An option after the flag is still read as an option.
    assert "expected one argument" in _usage_exit(capsys, "verify", "--tol", "--n", "3")


@pytest.mark.parametrize("command", [["verify", "--n", "3"], ["falsify"]],
                         ids=lambda argv: argv[0])
def test_abbreviated_option_value_may_start_with_a_minus(capsys, command):
    argv = [*command, "--trials", "2"]
    spaced = run_cli(capsys, *argv, "--ta", "-0.2+1.1i")
    assert spaced == run_cli(capsys, *argv, "--tau=-0.2+1.1i")
    assert spaced[2] == "" and json.loads(spaced[1])["trials"][0]["tau"] == [[[-0.2, 1.1]]]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--to", "-inf"], "argument --tol: must be finite"),
        # --m is a prefix of --mu and of --mode, and argparse says so.
        (["--m", "-1/3;0"], "ambiguous option: --m"),
        (["--t", "-1"], "ambiguous option: --t"),
    ],
    ids=["to", "m", "t"],
)
def test_abbreviated_option_with_a_minus_value_is_resolved_by_argparse(capsys, argv, message):
    assert message in _usage_exit(capsys, "verify", "--n", "3", *argv)


def test_zero_tol_is_valid(capsys):
    code, out, err = run_cli(capsys, "verify", "--n", "3", "--trials", "1", "--tol", "0")
    assert code in (0, 1) and err == ""
    assert json.loads(out)["verdict"] in ("pass", "fail")


def test_verify_truncation_exit_two(capsys, monkeypatch):
    monkeypatch.setenv("THETA_MAX_RADIUS", "1")
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--trials", "2")
    assert code == 2
    assert all(t["status"] == "eval-failed" for t in json.loads(out)["trials"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tau", ["1e308i", "1e307+1i"])
def test_verify_exits_two_when_a_side_is_not_a_finite_number(capsys, tau):
    """The overflow is reported by the exit code and the trial status
    alone: numpy's float warnings, each with the path of a source file,
    are not printed (a RuntimeWarning would raise here)."""
    code, out, err = run_cli(capsys, "verify", "--n", "3", "--tau", tau, "--trials", "1")
    assert (code, err) == (2, "")
    assert [t["status"] for t in json.loads(out)["trials"]] == ["eval-failed"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_suite_runs_without_float_warnings(capsys, monkeypatch):
    suite = cli.run_suite

    def overflowing(*args):
        np.exp(np.array([1e308])) * 0.0  # overflow, then an invalid inf * 0
        return suite(*args)

    monkeypatch.setattr(cli, "run_suite", overflowing)
    code, _, err = run_cli(capsys, "suite", "--trials", "1")
    assert (code, err) == (0, "")


def test_env_radius_must_be_valid(capsys, monkeypatch):
    monkeypatch.setenv("THETA_MAX_RADIUS", "1000")
    code, _, err = run_cli(capsys, "verify", "--n", "3", "--trials", "2")
    assert code == 64
    assert "THETA_MAX_RADIUS" in err


@pytest.mark.parametrize(
    "argv, explicit",
    [
        (["emit", "--n", "3"], ["--format", "latex"]),
        (["verify", "--n", "3", "--trials", "2"], ["--format", "json"]),
        (["falsify", "--trials", "2"], ["--n", "4"]),
    ],
    ids=["emit-format", "verify-format", "falsify-n"],
)
def test_parser_defaults_equal_the_explicit_options(capsys, argv, explicit):
    # Same stdout, stderr and exit code with the default left out.
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv, *explicit)


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


def test_falsify_runs_naive_mode_only(capsys):
    with pytest.raises(SystemExit) as info:
        main(["falsify", "--mode", "modified"])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (64, "")
    assert "argument --mode: invalid choice: 'modified'" in err
    default = run_cli(capsys, "falsify", "--trials", "3")
    assert default == run_cli(capsys, "falsify", "--mode", "naive", "--trials", "3")
    assert json.loads(default[1])["spec"]["mode"] == "naive"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["emit", "--n", "3"],
        ["verify", "--n", "3", "--trials", "1"],
        ["falsify", "--trials", "1"],
        ["suite", "--trials", "1"],
        ["table"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_is_usage_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 64
    assert out == ""
    assert err.startswith("thetarel: error: cannot write") and err.count("\n") == 1
    assert not target.parent.exists()


def test_unknown_command_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bogus"])
    assert info.value.code == 64


MU3 = ("--mu", "1/3;0", "--mu", "0;2/3", "--mu", "2/3;1/3")


@pytest.mark.parametrize(
    "sequence",
    [
        [["verify", "--n", "3", "--trials", "2", *MU3], ["verify", "--n", "3", "--trials", "2"]],
        [["verify", "--n", "3", "--trials", "2"], ["falsify", "--trials", "2"]],
        [["verify", "--n", "3", "--trials", "2", "--format", "text"], ["emit", "--n", "3"]],
        [["verify", "--n", "3", "--mode", "bogus"], ["verify", "--n", "3", "--trials", "2"]],
        [["emit", "--n", "3", "--g", "0"], ["emit", "--n", "3", *MU3, "--format", "json"]],
        [["verify", "--help"], ["verify", "--n", "3", "--g", "2", "--trials", "1"]],
    ],
    ids=["mu-then-none", "verify-then-falsify", "verify-then-emit", "usage-then-good",
         "spec-error-then-good", "help-then-good"],
)
def test_cached_parser_gives_the_output_of_a_fresh_one(capsys, sequence):
    """Each call of a sequence on the one parser of the process prints
    what it prints on a parser built for it alone."""

    def run_all(fresh):
        results = []
        cli._build_parser.cache_clear()
        for argv in sequence:
            if fresh:
                cli._build_parser.cache_clear()
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            results.append((code, *capsys.readouterr()))
        return results, cli._build_parser.cache_info().misses

    warm, builds = run_all(fresh=False)
    assert builds == 1
    assert warm == run_all(fresh=True)[0]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "thetarel", "table", "--range", "3..4"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "3" in proc.stdout
