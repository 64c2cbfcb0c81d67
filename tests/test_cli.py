import json
import os
import runpy
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from random import Random

import pytest

import qstruct
from qstruct import awops, cli, structure
from qstruct.cli import main
from qstruct.characterize import classify
from qstruct.families import OPSTable, TTRRSpec, ttrr_cq_jacobi
from qstruct.scalar import QContext
from qstruct.structure import fit_auto, fit_structure


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_file(tmp_path, name, *argv):
    path = tmp_path / name
    code = main(list(argv) + ["--out", str(path)])
    assert code == 0
    return path


def test_generate_chebyshev_stdout(capsys):
    code, out, _ = run(capsys, "generate", "--family", "chebyshev-t", "-N", "8")
    assert code == 0
    data = json.loads(out)
    assert data["C"][:3] == ["1/2", "1/4", "1/4"]
    assert all(b == "0" for b in data["B"])


def test_generate_qhermite_b_all_zero(capsys):
    code, out, _ = run(
        capsys, "generate", "--family", "q-hermite", "--q-quarter", "1/2", "-N", "4"
    )
    assert code == 0
    data = json.loads(out)
    assert data["B"] == ["0"] * 5
    assert data["q_quarter"] == "1/2"


def test_generate_irregular_exits_2(capsys):
    code, _, err = run(
        capsys,
        "generate",
        "--family",
        "alsalam-chihara",
        "--c",
        "1",
        "--d",
        "1",
        "--q-quarter",
        "1/2",
    )
    assert code == 2
    assert "c*d*q" in err  # names the violated regularity factor


def test_generate_writes_ops_table(tmp_path, capsys):
    ttrr_path = tmp_path / "t.json"
    ops_path = tmp_path / "ops.json"
    code = main(
        [
            "generate",
            "--family",
            "q-hermite",
            "-N",
            "6",
            "--out",
            str(ttrr_path),
            "--ops-out",
            str(ops_path),
        ]
    )
    assert code == 0
    ops = json.loads(ops_path.read_text())
    assert ops["polys"][0] == ["1"]
    assert ops["polys"][1] == ["0", "1"]  # P_1 = x


def test_fit_auto_on_chebyshev(tmp_path, capsys):
    path = gen_file(tmp_path, "cheb.json", "generate", "--family", "chebyshev-t", "-N", "12")
    code, out, err = run(capsys, "fit", str(path), "--deg-pi", "auto")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "exact"
    assert data["pi"] == ["-1", "0", "1"]  # x^2 - 1
    assert "deg pi = 2" in err


def test_fit_explicit_wrong_degree_exits_1(tmp_path, capsys):
    path = gen_file(tmp_path, "qh.json", "generate", "--family", "q-hermite", "-N", "12")
    code, out, _ = run(capsys, "fit", str(path), "--deg-pi", "1")
    assert code == 1
    data = json.loads(out)
    assert data["status"] == {"noSolution": 2}


def test_fit_asc_deg1(tmp_path, capsys):
    path = gen_file(
        tmp_path,
        "asc.json",
        "generate",
        "--family",
        "alsalam-chihara",
        "--c",
        "1/4",
        "--d",
        "1",
        "-N",
        "12",
    )
    code, out, _ = run(capsys, "fit", str(path), "--deg-pi", "1")
    assert code == 0
    data = json.loads(out)
    assert data["pi"] == ["-1", "1"]  # x - 1
    assert data["c"][1] == "-3/8"


def test_classify_families_and_exit_codes(tmp_path, capsys):
    jac = gen_file(
        tmp_path,
        "jac.json",
        "generate",
        "--family",
        "continuous-q-jacobi",
        "--p-a",
        "1/4",
        "--p-b",
        "1/16",
        "-N",
        "12",
    )
    code, out, _ = run(capsys, "classify", str(jac))
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "continuous-q-jacobi"
    assert data["params"] == {"p_a": "1/4", "p_b": "1/16"}

    qh = gen_file(tmp_path, "qh.json", "generate", "--family", "q-hermite", "-N", "12")
    code, out, _ = run(capsys, "classify", str(qh))
    assert code == 0
    assert json.loads(out)["family"] == "q-hermite"


def test_classify_perturbed_exits_3(tmp_path, capsys):
    path = gen_file(tmp_path, "jac.json", "generate", "--family", "continuous-q-jacobi",
                    "--p-a", "1/4", "--p-b", "1/16", "-N", "12")
    data = json.loads(path.read_text())
    c2 = F(data["C"][1])
    data["C"][1] = str(c2 + F(1, 1000))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run(capsys, "classify", str(bad))
    assert code == 3
    parsed = json.loads(out)
    assert parsed["family"] == "not-characterized"
    assert parsed["predicates"]  # the ledger travels with the failure


def test_verify_all_checks_pass(tmp_path, capsys):
    for args in (
        ("--family", "q-hermite"),
        ("--family", "alsalam-chihara", "--c", "1/4", "--d", "1"),
        ("--family", "chebyshev-t"),
        ("--family", "continuous-q-jacobi", "--p-a", "1/4", "--p-b", "1/4"),
    ):
        path = gen_file(tmp_path, "v.json", "generate", *args, "-N", "12")
        code, out, _ = run(capsys, "verify", str(path), "-N", "10")
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert data["version"]
        assert data["input"]["C"]


def test_verify_single_check_selection(tmp_path, capsys):
    path = gen_file(tmp_path, "c.json", "generate", "--family", "chebyshev-t", "-N", "12")
    code, out, _ = run(capsys, "verify", str(path), "--checks", "pearson", "-N", "8")
    assert code == 0
    data = json.loads(out)
    assert all(c["name"] == "pearson" for c in data["checks"])


def test_verify_failure_is_nonzero(tmp_path, capsys):
    path = gen_file(tmp_path, "a.json", "generate", "--family", "alsalam-chihara",
                    "--c", "1", "--d", "2", "-N", "12")
    code, out, _ = run(capsys, "verify", str(path), "-N", "10")
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_verify_byte_identical_reports(tmp_path):
    src = tmp_path / "jac.json"
    main(["generate", "--family", "continuous-q-jacobi", "--p-a", "1/4",
          "--p-b", "1/16", "-N", "12", "--out", str(src)])
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", str(src), "-N", "10", "--out", str(out1)]) == 0
    assert main(["verify", str(src), "-N", "10", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["generate", "--family", "alsalam-chihara", "--c", "1/4", "--d", "1", "-N", "10"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_nmax_env_caps_n(tmp_path, capsys, monkeypatch):
    path = gen_file(tmp_path, "c.json", "generate", "--family", "chebyshev-t", "-N", "16")
    monkeypatch.setenv("QSTRUCT_NMAX", "8")
    code, out, _ = run(capsys, "verify", str(path), "-N", "14")
    assert code == 0
    data = json.loads(out)
    pearson_orders = [c["n"] for c in data["checks"] if c["name"] == "pearson"]
    assert max(pearson_orders) == 8


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/ttrr.json")
    assert code == 2
    assert "error" in err


def test_inverse_base_generation_classifies(tmp_path, capsys):
    path = gen_file(tmp_path, "qhi.json", "generate", "--family", "q-hermite",
                    "--base", "q-inverse", "-N", "12")
    code, out, _ = run(capsys, "classify", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["family"] == "q-hermite"
    assert data["base"] == "q-inverse"


def write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def assert_bad_input(code, err):
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1  # one error line, no traceback


CHEB_DOC = {"q_quarter": "1/2", "B": ["0"] * 9, "C": ["1/2"] + ["1/4"] * 7}


@pytest.mark.parametrize("command", ["fit", "classify", "verify"])
def test_numbers_in_b_or_c_exit_2(tmp_path, capsys, command):
    doc = dict(CHEB_DOC, C=[0.5] + [0.25] * 7)
    code, out, err = run(capsys, command, write_doc(tmp_path, doc))
    assert_bad_input(code, err)
    assert out == ""


@pytest.mark.parametrize("command", ["fit", "classify", "verify"])
@pytest.mark.parametrize(
    "doc",
    [dict(CHEB_DOC, B=["0"] * 20), dict(CHEB_DOC, C=["1/2"] + ["1/4"] * 19)],
    ids=["B-too-long", "C-too-long"],
)
def test_mismatched_b_c_lengths_exit_2(tmp_path, capsys, command, doc):
    code, out, err = run(capsys, command, write_doc(tmp_path, doc))
    assert_bad_input(code, err)
    assert "one horizon" in err
    assert out == ""


@pytest.mark.parametrize("command", ["fit", "classify", "verify"])
def test_top_level_list_exits_2(tmp_path, capsys, command):
    code, _, err = run(capsys, command, write_doc(tmp_path, [CHEB_DOC]))
    assert_bad_input(code, err)


@pytest.mark.parametrize("command", ["fit", "classify", "verify"])
def test_json_nested_past_the_recursion_limit_exits_2(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, command, str(path))
    assert_bad_input(code, err)
    assert str(path) in err and "nested too deeply" in err
    assert out == ""


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("command", ["fit", "classify", "verify"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_non_finite_json_numbers_exit_2(tmp_path, capsys, command, token, to_file):
    # verify echoes the document, and json.dumps writes these back as
    # NaN or Infinity, which no JSON parser has to accept
    path = tmp_path / "note.json"
    path.write_text(json.dumps(CHEB_DOC)[:-1] + f', "note": {token}}}')
    out_path = tmp_path / "report.json"
    argv = [command, str(path)] + (["--out", str(out_path)] if to_file else [])
    code, out, err = run(capsys, *argv)
    assert_bad_input(code, err)
    assert str(path) in err and token in err
    assert out == ""
    assert not out_path.exists()


def test_finite_json_numbers_outside_b_and_c_are_echoed(tmp_path, capsys):
    path = tmp_path / "note.json"
    path.write_text(json.dumps(CHEB_DOC)[:-1] + ', "note": 1.5e300}')
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert json.loads(out)["input"]["note"] == 1.5e300


@pytest.mark.parametrize("command", ["classify", "verify"])
def test_a_truncated_document_names_the_file(tmp_path, capsys, command):
    path = tmp_path / "cut.json"
    path.write_text(json.dumps(CHEB_DOC)[:27])
    code, out, err = run(capsys, command, str(path))
    assert_bad_input(code, err)
    assert err.startswith(f"error: {path}: Expecting value: line 1 column 28")
    assert out == ""


@pytest.fixture
def digit_limit_4300():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("command", ["classify", "verify"])
@pytest.mark.parametrize("where", ["note", "C"])
def test_a_number_past_the_digit_limit_exits_2_without_python_advice(
    tmp_path, capsys, digit_limit_4300, command, where
):
    # a JSON integer outside B and C, or a rational string inside C
    digits = "7" * 5001
    if where == "note":
        doc, message = json.dumps(CHEB_DOC)[:-1] + f', "note": {digits}}}', "a number has"
    else:
        doc, message = json.dumps(dict(CHEB_DOC, C=[digits] + CHEB_DOC["C"][1:])), "a rational string has a number of"
    path = tmp_path / "long.json"
    path.write_text(doc)
    code, out, err = run(capsys, command, str(path))
    assert_bad_input(code, err)
    assert f"{message} more than 4300 digits" in err
    assert (str(path) in err) == (where == "note")
    assert "sys.set_int_max_str_digits" not in err
    assert out == ""


def test_generate_zero_denominator_exits_2(capsys):
    code, out, err = run(capsys, "generate", "--family", "q-hermite", "--q-quarter", "1/0")
    assert_bad_input(code, err)
    assert out == ""


@pytest.mark.parametrize(
    "family, option, value",
    [
        ("alsalam-chihara", "--c", "-1/3"),
        ("alsalam-chihara", "--d", "-2/5"),
        ("continuous-q-jacobi", "--p-a", "-1/3"),
        ("continuous-q-jacobi", "--p-b", "-2/5"),
        ("q-hermite", "--q-quarter", "-1/3"),
    ],
)
def test_generate_reads_a_negative_rational_as_a_separate_token(capsys, family, option, value):
    params = {
        "alsalam-chihara": {"--c": "1/2", "--d": "2/5"},
        "continuous-q-jacobi": {"--p-a": "1/3", "--p-b": "2/5"},
        "q-hermite": {"--q-quarter": "1/2"},
    }[family]
    head = ["generate", "--family", family, "-N", "6"]
    rest = [token for flag, v in params.items() if flag != option for token in (flag, v)]
    apart = run(capsys, *head, *rest, option, value)
    assert apart == run(capsys, *head, *rest, f"{option}={value}")
    assert apart[0] == (0 if family == "alsalam-chihara" else 2)


@pytest.mark.parametrize(
    "argv",
    [
        # not a rational, after "--", or after an abbreviation: argparse's
        # usage error, as before
        ["generate", "--family", "alsalam-chihara", "--c", "-1/0", "--d", "1"],
        ["generate", "--family", "alsalam-chihara", "--", "--c", "-1/3"],
        ["generate", "--family", "q-hermite", "--q-q", "-1/3"],
        ["classify", "--c", "-1/3"],
    ],
)
def test_other_negative_tokens_keep_the_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "usage: qstruct" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "classify", "verify"])
def test_file_zero_denominator_exits_2(tmp_path, capsys, command):
    doc = dict(CHEB_DOC, q_quarter="1/0")
    code, _, err = run(capsys, command, write_doc(tmp_path, doc))
    assert_bad_input(code, err)


@pytest.mark.parametrize(
    "argv",
    [["generate", "--family", "chebyshev-t"], ["classify"], ["fit"], ["verify"]],
)
def test_non_integer_nmax_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("QSTRUCT_NMAX", "abc")
    if argv[0] != "generate":
        argv = argv + [write_doc(tmp_path, CHEB_DOC)]
    code, _, err = run(capsys, *argv)
    assert_bad_input(code, err)
    assert "QSTRUCT_NMAX" in err


@pytest.mark.parametrize("command", ["fit", "classify", "verify"])
def test_q_quarter_that_is_not_a_string_exits_2(tmp_path, capsys, command):
    path = write_doc(tmp_path, dict(CHEB_DOC, q_quarter=0.5))
    code, out, err = run(capsys, command, path)
    assert (code, out, err) == (2, "", f'error: {path}: "q_quarter" must be a rational string\n')


@pytest.mark.parametrize("given", [["--p-a", "1/3"], ["--p-b", "2/5"]], ids=["p-a", "p-b"])
def test_generate_continuous_q_jacobi_without_both_parameters_exits_2(capsys, given):
    code, out, err = run(capsys, "generate", "--family", "continuous-q-jacobi", *given)
    assert (code, out, err) == (2, "", "error: continuous-q-jacobi requires --p-a and --p-b\n")


def test_the_module_runs_as_a_script(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["qstruct", "generate", "--family", "chebyshev-t", "-N", "2"])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(cli.__file__, run_name="__main__")
    assert info.value.code == 0
    assert json.loads(capsys.readouterr().out) == {
        "B": ["0", "0", "0"],
        "C": ["1/2", "1/4"],
        "q_quarter": "1/2",
    }


# Identities 1..3 hold at deg pi = 1 with c_3 = 0: C_1 solves identity 3
# with c_3 = 0 once B_0, B_1 are chosen, and B_2, C_2 follow.
DEGENERATE_C_DOC = {
    "q_quarter": "1/2",
    "B": ["4299/8956450", "-4299/8956450", "102375/23698", "0"],
    "C": ["530763989202/340926485560625", "-703125/201433", "1"],
}


@pytest.mark.parametrize(
    "deg_pi, expected",
    [
        (
            "auto",
            {
                "attempts": {
                    "0": {"noSolution": 2},
                    "1": {"degenerateC": 3},
                    "2": {"noSolution": 3},
                },
                "error": "no-exact-fit",
            },
        ),
        (
            "1",
            {
                "a": ["0", "0", "0", "0"],
                "b": ["0", "1", "17/4", "273/16"],
                "c": ["0", "-246924396/76129825", "-1875/136", "0"],
                "pi": ["-1875/578", "1"],
                "status": {"degenerateC": 3},
            },
        ),
    ],
)
def test_fit_reports_a_vanishing_c_n_as_degenerate_c(tmp_path, capsys, deg_pi, expected):
    path = write_doc(tmp_path, DEGENERATE_C_DOC)
    code, out, _ = run(capsys, "fit", path, "-N", "3", "--deg-pi", deg_pi)
    assert code == 1
    assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("command", ["fit", "classify", "verify"])
def test_string_instead_of_list_exits_2(tmp_path, capsys, command):
    doc = dict(CHEB_DOC, B="000000000")
    code, _, err = run(capsys, command, write_doc(tmp_path, doc))
    assert_bad_input(code, err)
    assert '"B"' in err


@pytest.mark.parametrize("text", ["1e-400", "0.5", "1_000", "١/٢"])
@pytest.mark.parametrize("command", ["fit", "classify", "verify"])
def test_rational_outside_the_grammar_in_b_exits_2(tmp_path, capsys, command, text):
    doc = dict(CHEB_DOC, B=["0"] * 3 + [text] + ["0"] * 5)
    code, out, err = run(capsys, command, write_doc(tmp_path, doc))
    assert_bad_input(code, err)
    assert repr(text) in err
    assert out == ""


@pytest.mark.parametrize("text", ["1e-400", "0.5", "1_000", "١/٢"])
def test_rational_outside_the_grammar_as_q_quarter_exits_2(capsys, text):
    code, out, err = run(capsys, "generate", "--family", "chebyshev-t", "--q-quarter", text)
    assert_bad_input(code, err)
    assert repr(text) in err
    assert out == ""


# n_max = 12: the horizon errors come from the library and name the
# effective N, that is -N capped by QSTRUCT_NMAX and by the file
CHEB_DOC_12 = {"q_quarter": "1/2", "B": ["0"] * 13, "C": ["1/2"] + ["1/4"] * 11}


@pytest.mark.parametrize(
    "argv, nmax, message",
    [
        (["fit", "-N", "2"], None, "fit horizon must be at least 3, got N = 2"),
        (["classify", "-N", "5"], None, "classification horizon must be at least 6, got N = 5"),
        (["verify", "-N", "2"], None, "fit horizon must be at least 3, got N = 2"),
        (["classify"], "4", "classification horizon must be at least 6, got N = 4"),
    ],
    ids=["fit", "classify", "verify", "classify-nmax"],
)
def test_horizon_below_minimum_exits_2(tmp_path, capsys, monkeypatch, argv, nmax, message):
    if nmax is not None:
        monkeypatch.setenv("QSTRUCT_NMAX", nmax)
    code, out, err = run(capsys, *argv, write_doc(tmp_path, CHEB_DOC_12))
    assert_bad_input(code, err)
    assert err == f"error: {message}\n"
    assert out == ""


def test_verify_runs_at_two_below_the_file_horizon(tmp_path, capsys):
    # an 8-entry file under -N 10 verifies at N = 6
    code, out, _ = run(capsys, "verify", write_doc(tmp_path, CHEB_DOC), "-N", "10")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert max(c["n"] for c in checks if c["name"] == "structure-residual") == 6


# Rejection paths downstream of an exact fit: C_10 and B_10 first enter
# P_11, so the fit at N = 10 stays exact and the failure shows in the
# auxiliary recurrences or in the parameter recovery.
CQ_JACOBI_ARGS = ("--family", "continuous-q-jacobi", "--p-a", "1/3", "--p-b", "2/5")


def perturbed_file(tmp_path, family_args, key, n, delta=F(1, 1000)):
    path = gen_file(tmp_path, "p.json", "generate", *family_args, "--q-quarter", "1/2", "-N", "12")
    data = json.loads(path.read_text())
    i = n if key == "B" else n - 1  # B holds B_0.., C holds C_1..
    data[key][i] = str(F(data[key][i]) + delta)
    path.write_text(json.dumps(data))
    return str(path)


def test_verify_reports_aux_recurrence_failure(tmp_path, capsys):
    path = perturbed_file(tmp_path, CQ_JACOBI_ARGS, "C", 10)
    code, out, _ = run(capsys, "verify", path, "-N", "10")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    failing = [(c["name"], c["n"]) for c in data["checks"] if not c["passed"]]
    assert failing == [("system:aux", 10)]


@pytest.mark.parametrize(
    "family_args",
    [
        CQ_JACOBI_ARGS,
        ("--family", "q-hermite"),
        ("--family", "chebyshev-t"),
        ("--family", "alsalam-chihara", "--c", "1/4", "--d", "1"),
    ],
    ids=["cq-jacobi", "q-hermite", "chebyshev-t", "alsalam-chihara"],
)
def test_classify_reports_aux_recurrence_failure(tmp_path, capsys, family_args):
    path = perturbed_file(tmp_path, family_args, "C", 10)
    code, out, _ = run(capsys, "classify", path, "-N", "10")
    assert code == 3
    data = json.loads(out)
    assert data["family"] == "not-characterized"
    assert data["predicates"]["aux-recurrence"]["holds"] is False


def test_classify_reports_qjacobi_recovery_failure(tmp_path, capsys):
    path = perturbed_file(tmp_path, CQ_JACOBI_ARGS, "B", 10)
    code, out, _ = run(capsys, "classify", path, "-N", "10")
    assert code == 3
    ledger = json.loads(out)["predicates"]
    for key in ("qjacobi-recovery-q", "qjacobi-recovery-q-inverse", "qjacobi-recovery"):
        assert ledger[key]["holds"] is False


def test_verify_applies_each_operator_image_once(monkeypatch):
    # verify_structure builds the D_q P_n images in the table and the
    # five-term check reads them, taking pi S_q P_n from them by the product
    # rule; the fits build none (they read windows), and the Pearson check
    # reads the monomial images from the operator rows, so verify at N = 10
    # applies D_q once per P_0..P_10 and S_q to no
    # P_n (33 and 21 calls when every check made its own images, 11 and 10
    # when the five-term check applied S_q to each P_n). The table builds
    # its images by dq_image, which dq_apply also runs, so that is counted
    counts = {awops.dq_image: 0, awops.sq_apply: 0}

    def counting(fn):
        def counted(*args):
            counts[fn] += 1
            return fn(*args)

        return counted

    for name, mod in list(sys.modules.items()):
        if name == "qstruct" or name.startswith("qstruct."):
            for attr, val in list(vars(mod).items()):
                if any(val is fn for fn in counts):
                    monkeypatch.setattr(mod, attr, counting(val))
    ctx = QContext(F(1, 2))
    ttrr = ttrr_cq_jacobi(ctx, F(1, 3), F(2, 5), n_max=12)
    report = cli._verify_checks(ctx, ttrr, 10, "all")
    assert report.ok
    assert list(counts.values()) == [11, 0]


REJECT_DOC = {
    "q_quarter": "1/2",
    "B": ["1", "-2", "3", "1/2", "0", "2", "-1"],
    "C": ["1", "2", "1/3", "1", "5", "1/2"],
}


@pytest.mark.parametrize(
    "argv, code, tables",
    [
        ("classify {j} -N 10", 0, []),
        ("classify {b10} -N 10", 3, []),  # exact fit, recovery rejects
        ("classify {reject}", 3, []),
        ("fit {j}", 0, []),
        ("fit {j} --deg-pi 0", 1, []),
        ("fit {j} --deg-pi 1", 1, []),
        ("fit {j} --deg-pi 2", 0, []),
        ("verify {j} -N 10 --checks system", 0, []),
        ("verify {j} -N 10 --checks pearson", 0, []),
        ("verify {reject}", 1, []),  # no exact fit
        ("verify {j} -N 10 --checks structure", 0, [12]),
        ("verify {j} -N 10 --checks five-term", 0, [12]),
        ("verify {j} -N 10", 0, [12]),
    ],
)
def test_only_verify_of_the_structure_or_five_term_check_builds_a_table(
    tmp_path, capsys, monkeypatch, argv, code, tables
):
    # the fits take the recurrence and decide each index from windows, and
    # the Pearson moments come from the recurrence, so the one OPS table of
    # a process is verify's, built after an exact fit for the two checks
    # that read P_n: P_0..P_{N+1}, as the five-term check reads P_{N+1}
    built = []
    init = OPSTable.__init__

    def counted(table, ttrr, N):
        init(table, ttrr, N)
        built.append(len(table.polys))

    monkeypatch.setattr(OPSTable, "__init__", counted)
    j = gen_file(tmp_path, "j.json", "generate", *CQ_JACOBI_ARGS, "--q-quarter", "1/2", "-N", "12")
    paths = {"j": j, "b10": perturbed_file(tmp_path, CQ_JACOBI_ARGS, "B", 10)}
    paths["reject"] = write_doc(tmp_path, REJECT_DOC)
    assert run(capsys, *argv.format(**paths).split())[0] == code
    assert built == tables


@pytest.mark.parametrize("through_verify", [False, True], ids=["fit_auto", "verify"])
def test_fit_grows_a_fresh_contexts_operator_rows_once(monkeypatch, through_verify):
    # the fit grows the rows in two steps: to degree 3 for the pin, which
    # reads D_q P_2 and D_q P_3, and to degree N once pi pins; nothing
    # after it in verify needs a longer table (growing them per D_q P_n
    # image would take N steps, and up front to N before the pin would
    # build rows that a rejected recurrence never reads)
    stores = []
    slot = QContext._rows

    def store(ctx, table):  # every growth stores one longer table
        stores.append(len(table[0]) - 1)
        slot.__set__(ctx, table)

    monkeypatch.setattr(QContext, "_rows", property(slot.__get__, store))
    ctx = QContext(F(1, 2))
    ttrr = ttrr_cq_jacobi(ctx, F(1, 3), F(2, 5), n_max=12)
    if through_verify:
        assert cli._verify_checks(ctx, ttrr, 10, "all").ok
    else:
        assert fit_auto(ctx, ttrr, 10)[-1].is_exact
    assert stores == [3, 10]
    assert len(ctx._rows[0]) == 10 + 1


def test_a_rejected_recurrence_grows_the_rows_to_degree_3_and_pins_once(monkeypatch):
    # every fit of this recurrence fails at n = 2 or 3, so nothing reads an
    # operator row past degree 3, and the degree attempts share the six
    # reduced residuals of x**j * D_q P_n (j <= 2, n = 2, 3) that pin pi
    # (11 reductions when each attempt redid those of the lower ones)
    n = 20
    rng = Random(20)
    ttrr = TTRRSpec.from_lists(
        [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n + 1)],
        [F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)],
    )
    ctx = QContext(F(1, 2))
    assert not classify(ctx, ttrr, n).characterized
    assert len(ctx._rows[0]) == 4
    for d in (0, 1, 2):
        assert fit_structure(ctx, ttrr, d, n).failure_n <= 3
        assert len(ctx._rows[0]) == 4

    # no index past the pin is decided, so every identity residual is a pin's;
    # the three-term steps build the windows of P_1, P_2 and P_3, which the
    # attempts also share
    calls = {"int_three_term": [], "_residual": []}
    for name, seen in calls.items():
        fn = getattr(structure, name)
        monkeypatch.setattr(
            structure, name, lambda *args, fn=fn, seen=seen: seen.append(args) or fn(*args)
        )
    fits = fit_auto(ctx, ttrr, n)
    assert [fit.failure_n for fit in fits] == [2, 3, 3]
    assert len(calls["_residual"]) == 6
    assert len(calls["int_three_term"]) == 3


SRC = Path(__file__).resolve().parents[1] / "src"


def modules_loaded_by(code):
    """The dataclasses, inspect and qstruct modules that a fresh interpreter
    with PYTHONPATH=src has loaded after running code."""
    probe = (
        f"{code}\nimport sys\n"
        "print(*(m for m in sys.modules if m in ('dataclasses', 'inspect') or m.startswith('qstruct')))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def test_a_cli_process_loads_only_the_layers_its_command_runs(tmp_path):
    # every CLI process imports the cli module, so nothing it loads may pull
    # in dataclasses or inspect; generate runs the family layer only, so the
    # fit and classification layers stay unloaded, while classify loads them
    heavy = {"dataclasses", "inspect"}
    assert not heavy & modules_loaded_by("import qstruct.cli")
    path = tmp_path / "h.json"
    command = "from qstruct import cli\ncli.main({!r})".format
    generate = modules_loaded_by(command(["generate", "--family", "q-hermite", "--out", str(path)]))
    assert "qstruct.families" in generate and not heavy & generate
    assert not generate & {"qstruct.structure", "qstruct.characterize"}
    fit_layers = modules_loaded_by(command(["classify", str(path), "--out", str(tmp_path / "c")]))
    assert {"qstruct.structure", "qstruct.characterize"} <= fit_layers
    assert not heavy & fit_layers


def test_a_cli_process_without_site_loads_no_typing(tmp_path):
    # the package annotates with collections.abc, so neither the import nor
    # generate nor classify loads typing; -S keeps site, which may import
    # typing itself, out of the probe
    path = tmp_path / "h.json"
    probe = (
        "import qstruct.cli, sys\n"
        "loaded = ['typing' in sys.modules]\n"
        f"qstruct.cli.main(['generate', '--family', 'q-hermite', '--out', {str(path)!r}])\n"
        "loaded.append('typing' in sys.modules)\n"
        f"qstruct.cli.main(['classify', {str(path)!r}, '--out', {str(tmp_path / 'c')!r}])\n"
        "loaded.append('typing' in sys.modules)\n"
        "print(loaded)"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[False, False, False]"


def test_the_package_resolves_each_public_name_from_its_home_module(monkeypatch):
    names = [name for name in qstruct.__all__ if name != "__version__"]
    for name in names:  # resolve each name afresh, through the package hook
        monkeypatch.delitem(vars(qstruct), name, raising=False)
    for name in names:
        value = getattr(qstruct, name)
        assert value.__module__.startswith("qstruct.")
        assert getattr(sys.modules[value.__module__], name) is value
    assert qstruct.__version__ == "0.1.0"
    assert set(qstruct.__all__) <= set(dir(qstruct))
    with pytest.raises(AttributeError, match="no_such_name"):
        qstruct.no_such_name
    with pytest.raises(ImportError):
        from qstruct import no_such_name  # noqa: F401


def test_main_parses_with_one_parser_per_process(capsys):
    assert cli.build_parser() is cli.build_parser()
    for _ in range(2):
        code, out, _ = run(capsys, "generate", "--family", "chebyshev-t", "-N", "3")
        assert code == 0 and json.loads(out)["C"] == ["1/2", "1/4", "1/4"]
