"""The `--json` report of every command, against stdout recorded before the
report printer was shared: each must match byte for byte, exit code too.

``json_pins.json`` maps each case name to its exit code and stdout.
"""

import json
from pathlib import Path

import pytest

from luroth import cli

QUARTIC_92 = "w^2*(u^2+v^2)+w*(u^3+v^3)-u*v*(u^2+v^2)"
QUARTIC_A = "(u^2+w^2)*(v^2+w^2)+2*u*v^3"

COMMANDS = {
    "poncelet-standard-vertices": [
        "poncelet", "--gamma1", "s0*(s0-s1)*(s0+s1)*(s0-2*s1)*(s0-3*s1)",
        "--gamma2", "s1^5", "--vertices", "0:1,1:1,-1:1,2:1,3:1"],
    "poncelet-other-conic": [
        "poncelet", "--conic", "s0^2;s0*s1+s1^2;s1^2-s0^2",
        "--gamma1", "s0^3", "--gamma2", "s1^3+s0*s1^2"],
    "analyze-92": ["quartic", "analyze", "--f", QUARTIC_92, "--node", "0:0:1"],
    "analyze-a": ["quartic", "analyze", "--f", QUARTIC_A, "--node", "1:0:0"],
    "tangent-a": ["quartic", "tangent", "--f", QUARTIC_A, "--node", "1:0:0",
                  "--g", "v*u^3+3*u*v*w^2+u*v^3+2*v^4"],
    "family-93": ["family", "--name", "93", "--param", "-1/4"],
    "family-eps91": ["family", "--name", "eps91", "--param", "1/3"],
}

PINS = json.loads((Path(__file__).parent / "json_pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_report_matches_pin(capsys, name):
    code = cli.main(COMMANDS[name] + ["--json"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (PINS[name]["code"], PINS[name]["stdout"], "")
