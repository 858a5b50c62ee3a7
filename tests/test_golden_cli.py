"""Every golden benchmark command line, run in-process, against its recorded output.

The commands and their exit codes come from ``bench/workloads.CLI_COMMANDS``
and the recorded stdout from ``bench/golden.json``; both are read, never
written.  Output must match byte for byte.
"""

import json
import sys
from pathlib import Path

import pytest

from luroth import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

GOLDEN = json.loads((BENCH / "golden.json").read_text())["cli"]


@pytest.mark.parametrize("name", sorted(workloads.CLI_COMMANDS))
def test_cli_output_matches_golden(capsys, name):
    argv, expected_code = workloads.CLI_COMMANDS[name]
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == expected_code
    assert captured.err == ""
    assert captured.out == GOLDEN[name]
