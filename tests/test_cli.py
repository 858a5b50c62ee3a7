"""Command-line interface: reports, JSON output and exit codes."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import luroth
from luroth import cli, poncelet, verify
from luroth.forms import _MAX_NESTING, form_from_json, parse_form, rational_literal
from luroth.poncelet import DUAL_VARS, PARAM_VARS
from oracles import fraction_chord_dual, int_str_limit

QUARTIC_A = "(u^2+w^2)*(v^2+w^2)+2*u*v^3"
QUARTIC_B = "w^2*(u^2+v^2)+w*(u^3+v^3)-u*v*(u^2+v^2)"
# the = form keeps argparse from reading the leading minus as an option
PENCIL_B = ["--gamma1", "s0^2*s1^2*(s1-s0)", "--gamma2=-(s0^5+s1^5)"]


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# poncelet

def test_poncelet_standard_pencil(capsys):
    code, out = run(capsys, ["poncelet", "--conic", "standard"] + PENCIL_B)
    assert code == 0
    assert "base_point_free: True" in out
    curve_line = next(line for line in out.splitlines() if line.startswith("curve:"))
    curve = parse_form(curve_line.split(":", 1)[1].strip(), DUAL_VARS)
    expected = parse_form(QUARTIC_B, DUAL_VARS)
    assert curve.proportional_to(expected)


def test_poncelet_dependent_gammas_exit_3(capsys):
    """Dependent generators, or dependent conic components, fail a
    precondition (exit 3), not the input's syntax."""
    for argv in (["poncelet", "--gamma1", "s0^4", "--gamma2", "2*s0^4"],
                 ["poncelet", "--conic", "s0^2;2*s0^2;s1^2", "--gamma1", "s0^4", "--gamma2", "s1^4"]):
        code, out = run(capsys, argv)
        assert code == 3
        assert "error" in out


def test_poncelet_parse_error_exit_2(capsys):
    code, _ = run(capsys, ["poncelet", "--gamma1", "s0^4 +", "--gamma2", "s1^4"])
    assert code == 2


@pytest.mark.parametrize("digit", ["²", "٣", "①"])
def test_non_ascii_digit_exit_2(capsys, digit):
    for argv in (["quartic", "analyze", "--f", f"u^{digit}*v^2", "--node", "0:0:1"],
                 ["quartic", "tangent", "--f", QUARTIC_A, "--node", "1:0:0",
                  "--g", f"{digit}*u^4"],
                 ["poncelet", "--gamma1", f"s0^{digit}", "--gamma2", "s1^3"]):
        code, out = run(capsys, argv)
        assert code == 2, argv
        assert f"unexpected character {digit!r}" in out


def test_poncelet_zero_denominator_exit_2(capsys):
    code, out = run(capsys, ["poncelet", "--gamma1", "1/0*s0^3", "--gamma2", "s1^3"])
    assert code == 2
    assert "zero denominator (at position 2)" in out


@pytest.mark.parametrize("gamma1", ["s0^999999999", "(s0+s1)^3000"])
def test_poncelet_exponent_above_cap_exit_2_fast(capsys, gamma1):
    start = time.perf_counter()
    code, out = run(capsys, ["poncelet", "--gamma1", gamma1, "--gamma2", "s1^3"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "MAX_DEGREE" in out


def test_poncelet_coefficients_past_int_string_limit(capsys):
    nines = "9" * 4000
    gammas = (f"{nines}*s0^3+s1^3", f"{nines}*s1^3+s0*s1^2")
    argv = ["poncelet", "--gamma1", gammas[0], "--gamma2", gammas[1]]
    pencil = poncelet.PonceletPencil(*(parse_form(g, PARAM_VARS) for g in gammas))
    expected = poncelet.poncelet_curve(poncelet.standard_conic(), pencil)
    assert max(abs(c.numerator) for c in expected.terms.values()) > 10 ** 7000
    code, out = run(capsys, argv)
    assert code == 0
    curve_text = next(line for line in out.splitlines() if line.startswith("curve:"))[7:]
    code, out = run(capsys, argv + ["--json"])
    assert code == 0
    report = json.loads(out)
    # text and JSON output read back as they are, past the int-string digit limit
    assert curve_text == str(expected)
    assert parse_form(curve_text, DUAL_VARS) == expected
    assert form_from_json(report["curve"]) == expected


def test_poncelet_vertices_polygon(capsys):
    gamma1 = "s0*(s0-s1)*(s0+s1)*(s0-2*s1)*(s0-3*s1)"
    code, out = run(capsys, [
        "poncelet", "--gamma1", gamma1, "--gamma2", "s1^5",
        "--vertices", "0:1,1:1,-1:1,2:1,3:1"])
    assert code == 0
    assert out.count("on-curve") == 10
    assert "off-curve" not in out


def test_poncelet_vertices_are_capped(capsys):
    """MAX_VERTICES parameters print every chord, each vertex the chord's
    dual on the Fraction images; one more is an input error on one line."""
    params = [f"{k}:{k * k + 1}" for k in range(cli.MAX_VERTICES + 1)]
    argv = ["poncelet", "--conic", "s0^2+2*s0*s1+3*s1^2;2*s0^2-s0*s1+s1^2;s0*s1-2*s1^2",
            "--gamma1", "s0^5+s1^5", "--gamma2", "s0*s1^4+2*s0^3*s1^2", "--vertices"]
    code, out = run(capsys, argv + [",".join(params[:-1])])
    k = cli.MAX_VERTICES
    lines = out.splitlines()[out.splitlines().index("vertices:") + 1:]
    assert code == 0 and k == 102 and len(lines) == k * (k - 1) // 2
    conic = poncelet.make_conic(*(parse_form(p, PARAM_VARS) for p in argv[2].split(";")))
    points = [tuple(map(int, p.split(":"))) for p in params]
    for line, (i, j) in zip(lines[::97], [(i, j) for i in range(k) for j in range(i + 1, k)][::97]):
        vertex = ":".join(str(x) for x in fraction_chord_dual(conic, points[i], points[j]))
        assert line.startswith(f"  ({i},{j}) -> [{vertex}] ")
    code, out = run(capsys, argv + [",".join(params)])
    assert code == 2 and out.splitlines() == [
        "status: error", f"message: --vertices: {k + 1} parameters, at most {k}"]


@pytest.mark.parametrize("vertices, code, message", [
    (",".join(f"{k}:1" for k in range(cli.MAX_VERTICES + 1)), 2,
     f"--vertices: {cli.MAX_VERTICES + 1} parameters, at most {cli.MAX_VERTICES}"),
    ("1:x", 2, "bad rational 'x': Invalid literal for Fraction: 'x'"),
    ("1:2:3", 2, "expected 2 colon-separated coordinates, got '1:2:3'"),
    ("1:1,0:0", 2, "the zero vector is not a projective point"),
    ("1:1,0:1,2:2", 3, "chord endpoints must be distinct parameters"),
], ids=["count", "literal", "arity", "zero", "repeated"])
def test_poncelet_checks_vertices_before_the_curve(capsys, monkeypatch, vertices, code, message):
    """A bad vertex list is reported without computing the curve, which takes
    seconds for a large pencil on a conic of long coefficients."""
    def no_curve(conic, pencil):
        raise AssertionError("the curve was computed before the vertices were checked")

    monkeypatch.setattr(poncelet, "poncelet_curve", no_curve)
    argv = ["poncelet", "--conic", "s0^2;s1^2;s0*s1"] + PENCIL_B + ["--vertices", vertices]
    assert run(capsys, argv) == (code, f"status: error\nmessage: {message}\n")


def test_poncelet_conic_of_two_forms_exit_2(capsys):
    argv = ["poncelet", "--conic", "s0^2;s1^2"] + PENCIL_B
    assert run(capsys, argv) == (2, "status: error\nmessage: --conic expects 'standard' or "
                                    "three forms 'p0;p1;p2'\n")


def test_poncelet_explicit_conic(capsys):
    code, out = run(capsys, [
        "poncelet", "--conic", "s0^2;s1^2;s0*s1"] + PENCIL_B)
    assert code == 0
    assert "x*y - t^2" in out


# ---------------------------------------------------------------------------
# quartic analyze

def test_analyze_type_two(capsys):
    code, out = run(capsys, ["quartic", "analyze", "--f", QUARTIC_A,
                             "--node", "1:0:0"])
    assert code == 0
    assert "verdict: TypeII" in out
    assert "conic: u^2 - w^2" in out
    assert "conic_singular_point: 0:1:0" in out


def test_analyze_not_type_two(capsys):
    code, out = run(capsys, ["quartic", "analyze", "--f", QUARTIC_B,
                             "--node", "0:0:1"])
    assert code == 0
    assert "verdict: NotTypeII" in out
    assert "det3: -1/4" in out
    assert "conic_singular_point" not in out


def test_analyze_off_curve_exit_3(capsys):
    code, out = run(capsys, ["quartic", "analyze", "--f", QUARTIC_A,
                             "--node", "0:1:1"])
    assert code == 3
    assert "on_curve: False" in out


def test_analyze_bad_point_exit_2(capsys):
    code, _ = run(capsys, ["quartic", "analyze", "--f", QUARTIC_A,
                           "--node", "0:0"])
    assert code == 2
    code, _ = run(capsys, ["quartic", "analyze", "--f", QUARTIC_A,
                           "--node", "0:0:0"])
    assert code == 2


def test_analyze_overlong_integer_literal_exit_2(capsys):
    # 39 458 digits: past MAX_COEFF_BITS by its digit count alone
    code, out = run(capsys, ["quartic", "analyze", "--f", "1" + "0" * 39457 + "*u^4",
                             "--node", "1:0:0"])
    assert code == 2
    assert "coefficient above MAX_COEFF_BITS = 131072 bits (at position 0)" in out


@pytest.mark.parametrize("depth, code", [(_MAX_NESTING - 1, 0), (_MAX_NESTING, 2), (340, 2)])
def test_analyze_nesting_limit(capsys, depth, code):
    # QUARTIC_A nests one level itself, so depth + 1 is the nesting in all
    f = "(" * depth + QUARTIC_A + ")" * depth
    assert cli.main(["quartic", "analyze", "--f", f, "--node", "1:0:0"]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert (f"parentheses nested deeper than {_MAX_NESTING} (at position {_MAX_NESTING})"
            in captured.out) == (code == 2)


@pytest.mark.parametrize("argv", [
    ["family", "--name", "93", "--param", "--"],
    ["family", "--name", "93", "--param=--"],
    ["poncelet", "--gamma1", "--", "--gamma2", "s1^3"],
    ["quartic", "analyze", "--f=--", "--node", "1:0:0"],
])
def test_flag_value_double_dash_exit_2(capsys, argv):
    # argparse drops "--" from an option's value; the flag then has no value
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert "expected a value, got '--'" in captured.err
    assert "internal error" not in captured.err


def test_analyze_json_round_trip(capsys):
    code, out = run(capsys, ["quartic", "analyze", "--f", QUARTIC_A,
                             "--node", "1:0:0", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok" and report["verdict"] == "TypeII"
    conic = form_from_json(report["conic"])
    assert conic == parse_form("u^2 - w^2", DUAL_VARS)
    f2 = form_from_json(report["f2"])
    assert f2.coeffs == parse_form("v^2+w^2", ("v", "w")).coeffs


# ---------------------------------------------------------------------------
# quartic tangent

def test_tangent_worked_values(capsys):
    code, out = run(capsys, ["quartic", "tangent", "--f", QUARTIC_A,
                             "--node", "1:0:0",
                             "--g", "v*u^3+3*u*v*w^2+u*v^3+2*v^4"])
    assert code == 0
    assert "xi:" in out and "-1/2" in out
    assert "conic_velocity: -u*v - 3*v^2" in out


def test_tangent_nonvanishing_direction_exit_3(capsys):
    code, _ = run(capsys, ["quartic", "tangent", "--f", QUARTIC_A,
                           "--node", "1:0:0", "--g", "u^4"])
    assert code == 3


def test_tangent_deterministic_rerun(capsys):
    argv = ["quartic", "tangent", "--f", QUARTIC_B, "--node", "0:0:1",
            "--g", QUARTIC_B]
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == 0 and out1 == out2


# ---------------------------------------------------------------------------
# family

def test_family_92(capsys):
    code, out = run(capsys, ["family", "--name", "92"])
    assert code == 0
    det_line = next(line for line in out.splitlines()
                    if line.startswith("determinant:"))
    det = parse_form(det_line.split(":", 1)[1].strip(), DUAL_VARS)
    assert det.proportional_to(parse_form(QUARTIC_B, DUAL_VARS))


def test_family_bad_param_exit_2(capsys):
    code, _ = run(capsys, ["family", "--name", "93", "--param", "x"])
    assert code == 2


@pytest.mark.parametrize("param", ["1e1000000", "1E5", "-2.5e-3", "1" * 10001])
def test_family_exponent_or_overlong_param_exit_2_fast(capsys, param):
    start = time.perf_counter()
    code, out = run(capsys, ["family", "--name", "93", "--param", param])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert ("exponent notation" if "e" in param.lower() else "too long") in out


@pytest.mark.parametrize("text, value", [("1/3", Fraction(1, 3)), ("-1/4", Fraction(-1, 4)),
                                         ("0.25", Fraction(1, 4)), ("-2.5", Fraction(-5, 2)),
                                         ("7", Fraction(7))])
def test_parse_rational_plain_literals(capsys, text, value):
    assert rational_literal(text) == value
    code, out = run(capsys, ["family", "--name", "93", f"--param={text}"])
    assert code == 0 and f"param: {value}" in out


def test_long_decimal_param_and_node_whatever_the_int_string_limit(capsys):
    param = "-0." + "7" * 1000
    expected = run(capsys, ["family", "--name", "93", f"--param={Fraction(param)}"])
    node = ["quartic", "analyze", "--f", QUARTIC_A, "--node"]
    with int_str_limit(640):  # the lowest limit Python accepts
        assert run(capsys, ["family", "--name", "93", f"--param={param}"]) == expected
        assert run(capsys, node + ["1." + "0" * 1000 + ":0:0"]) == run(capsys, node + ["1:0:0"])
    assert expected[0] == 0


@pytest.mark.parametrize("argv", [
    ["quartic", "analyze", "--f", QUARTIC_A, "--node", "\u0661:0:0"],
    ["family", "--name", "93", "--param", "-\u0661/\u0664"],
    ["family", "--name", "93", "--param", "1_0"],
])
def test_rational_literal_is_ascii_without_separators_exit_2(capsys, argv):
    code, out = run(capsys, argv)
    assert code == 2
    assert "Invalid literal for Fraction" in out


def test_family_unknown_name_rejected(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["family", "--name", "94"])
    assert err.value.code == 2
    capsys.readouterr()


def test_family_json(capsys):
    code, out = run(capsys, ["family", "--name", "eps91", "--param", "1/3",
                             "--json"])
    assert code == 0
    report = json.loads(out)
    assert len(report["matrix"]) == 6 and len(report["matrix"][0]) == 6
    det = form_from_json(report["determinant"])
    assert det.degree == 4


# ---------------------------------------------------------------------------
# verify

def test_verify_passes(capsys):
    code, out = run(capsys, ["verify"])
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 10
    assert all(line.startswith("PASS") for line in lines)


def test_verify_json(capsys):
    code, out = run(capsys, ["verify", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert all(check["passed"] for check in report["checks"])


def corrupt_family_matrix(monkeypatch):
    """Double one entry of every family matrix."""
    original = poncelet.family_matrix

    def corrupted(name, param=0):
        matrix = original(name, param)
        entries = list(matrix.entries)
        entries[2] = entries[2] + entries[2]  # double one entry
        return type(matrix)(matrix.rows, matrix.cols, tuple(entries))

    monkeypatch.setattr(poncelet, "family_matrix", corrupted)


def test_verify_negative_control(capsys, monkeypatch):
    # corrupt one family matrix entry and confirm the suite goes red
    corrupt_family_matrix(monkeypatch)
    code, out = run(capsys, ["verify"])
    assert code == 1
    assert "FAIL" in out and "SOME CHECKS FAILED" in out


def test_verify_expands_each_determinant_afresh_per_run(capsys, monkeypatch):
    """The determinants one `verify` run shares among its checks are gone
    after it: a corrupted matrix fails the next run and a check run alone,
    and a clean run after the corruption passes again."""
    assert run(capsys, ["verify"])[0] == 0
    corrupt_family_matrix(monkeypatch)
    code, out = run(capsys, ["verify"])
    assert code == 1 and "FAIL" in out
    assert not verify.check_92_determinant().passed
    monkeypatch.undo()
    assert verify.check_92_determinant().passed
    assert run(capsys, ["verify"])[0] == 0


# ---------------------------------------------------------------------------
# error contract

def test_unexpected_exception_is_internal_error_exit_4(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("kernel exploded\nsecond line")

    monkeypatch.setattr(cli, "cmd_verify", boom)
    code = cli.main(["verify"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL == 4
    assert captured.out == ""
    assert captured.err == "luroth: internal error: RuntimeError: kernel exploded second line\n"


# stdout and exit code of each error report, text then --json
ERROR_REPORTS = [
    (["poncelet", "--gamma1", "s0^4", "--gamma2", "2*s0^4"], 3,
     "status: error\nmessage: pencil generators are linearly dependent\n",
     '{\n  "message": "pencil generators are linearly dependent",\n  "status": "error"\n}\n'),
    (["poncelet", "--gamma1", "s0^3", "--gamma2", "s1^3", "--vertices", "1:1,1:1"], 3,
     "status: error\nmessage: chord endpoints must be distinct parameters\n",
     '{\n  "message": "chord endpoints must be distinct parameters",\n'
     '  "status": "error"\n}\n'),
    (["quartic", "analyze", "--f", "u^3", "--node", "1:0:0"], 2,
     "status: error\nmessage: --f must be a nonzero quartic\n",
     '{\n  "message": "--f must be a nonzero quartic",\n  "status": "error"\n}\n'),
    (["quartic", "analyze", "--f", QUARTIC_B, "--node", "1:1:1"], 3,
     "status: error\nmessage: node verification failed\nnode_report:\n"
     "  on_curve: False\n  singular: False\n  ordinary: False\n  admissible: False\n",
     '{\n  "command": "quartic analyze",\n  "message": "node verification failed",\n'
     '  "node_report": {\n    "admissible": false,\n    "on_curve": false,\n'
     '    "ordinary": false,\n    "singular": false\n  },\n  "status": "error"\n}\n'),
    (["quartic", "tangent", "--f", QUARTIC_A, "--node", "0:1:1", "--g", QUARTIC_A], 3,
     "status: error\nmessage: node verification failed: {'on_curve': False, "
     "'singular': False, 'ordinary': False, 'admissible': False}\n",
     '{\n  "command": "quartic tangent",\n  "message": "node verification failed: '
     "{'on_curve': False, 'singular': False, 'ordinary': False, 'admissible': False}\",\n"
     '  "status": "error"\n}\n'),
    (["quartic", "tangent", "--f", QUARTIC_A, "--node", "1:0:0", "--g", "u^4"], 3,
     "status: error\nmessage: direction quartic does not vanish at the node\n",
     '{\n  "command": "quartic tangent",\n'
     '  "message": "direction quartic does not vanish at the node",\n  "status": "error"\n}\n'),
    (["family", "--name", "93", "--param", "x"], 2,
     "status: error\nmessage: bad rational 'x': Invalid literal for Fraction: 'x'\n",
     '{\n  "message": "bad rational \'x\': Invalid literal for Fraction: \'x\'",\n'
     '  "status": "error"\n}\n'),
]


@pytest.mark.parametrize("argv, code, text, as_json", ERROR_REPORTS, ids=[
    "dependent-gammas", "repeated-vertex", "cubic", "off-curve-node",
    "tangent-off-curve-node", "nonvanishing-direction", "bad-param"])
def test_error_report_is_unchanged(capsys, argv, code, text, as_json):
    assert run(capsys, argv) == (code, text)
    assert run(capsys, argv + ["--json"]) == (code, as_json)


# ---------------------------------------------------------------------------
# start-up

def test_cli_import_leaves_out_the_costly_modules():
    """Every command is a fresh process, so what `import luroth.cli` pulls in
    is paid on each run: `dataclasses` (with `inspect`, `ast` and `dis`) cost
    about 12 ms of it, `json` (about 2 ms) is needed by `--json` alone, and
    `luroth.verify` by the `verify` command alone."""
    src = str(Path(luroth.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys; before = set(sys.modules); import luroth.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    added = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, check=True).stdout.split()
    assert "luroth.cli" in added
    assert not set(added) & {"dataclasses", "inspect", "ast", "dis", "json", "luroth.verify"}
