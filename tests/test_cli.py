"""Command-line interface: reports, JSON output and exit codes."""

import json
import time

import pytest

from luroth import cli, poncelet
from luroth.forms import form_from_json, parse_form
from luroth.poncelet import DUAL_VARS

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


def test_poncelet_dependent_gammas_exit_2(capsys):
    code, out = run(capsys, ["poncelet", "--gamma1", "s0^4", "--gamma2", "2*s0^4"])
    assert code == 2
    assert "error" in out


def test_poncelet_parse_error_exit_2(capsys):
    code, _ = run(capsys, ["poncelet", "--gamma1", "s0^4 +", "--gamma2", "s1^4"])
    assert code == 2


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


def test_poncelet_vertices_polygon(capsys):
    gamma1 = "s0*(s0-s1)*(s0+s1)*(s0-2*s1)*(s0-3*s1)"
    code, out = run(capsys, [
        "poncelet", "--gamma1", gamma1, "--gamma2", "s1^5",
        "--vertices", "0:1,1:1,-1:1,2:1,3:1"])
    assert code == 0
    assert out.count("on-curve") == 10
    assert "off-curve" not in out


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


def test_verify_negative_control(capsys, monkeypatch):
    # corrupt one family matrix entry and confirm the suite goes red
    original = poncelet.family_matrix

    def corrupted(name, param=0, dual_vars=poncelet.DUAL_VARS):
        matrix = original(name, param, dual_vars)
        entries = list(matrix.entries)
        entries[2] = entries[2] + entries[2]  # double one entry
        return type(matrix)(matrix.rows, matrix.cols, tuple(entries))

    monkeypatch.setattr(poncelet, "family_matrix", corrupted)
    code, out = run(capsys, ["verify"])
    assert code == 1
    assert "FAIL" in out and "SOME CHECKS FAILED" in out


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
