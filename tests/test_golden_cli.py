"""Every golden benchmark command line, run in-process, against its recorded output.

The commands and their exit codes come from ``bench/workloads.CLI_COMMANDS``
and the recorded stdout from ``bench/golden.json``; both are read, never
written.  Output must match byte for byte.  The same commands run as
processes under Python 3.10, the oldest version ``pyproject.toml`` admits,
when such an interpreter starts: ``python3.10`` on the path, else one under
``pyenv root``.
"""

import glob
import json
import os
import shutil
import subprocess
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


def python310() -> str | None:
    """A Python 3.10 interpreter that starts, or None; a shim that fails is none."""
    candidates = [shutil.which("python3.10")]
    if pyenv := shutil.which("pyenv"):
        root = subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout.strip()
        candidates += sorted(glob.glob(os.path.join(root, "versions", "3.10*", "bin",
                                                    "python3.10")), reverse=True)
    for exe in filter(None, candidates):
        try:
            probe = subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2])"],
                                   capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if probe.returncode == 0 and probe.stdout.strip() == "(3, 10)":
            return exe
    return None


def test_cli_output_matches_golden_under_python_3_10():
    exe = python310()
    if exe is None:
        pytest.skip("no python3.10 interpreter starts here")
    for name, (argv, expected_code) in sorted(workloads.CLI_COMMANDS.items()):
        proc = subprocess.run([exe, "-m", "luroth.cli", *argv], cwd=workloads.ROOT,
                              env=workloads.child_env(), capture_output=True, text=True,
                              timeout=120)
        assert (proc.returncode, proc.stderr) == (expected_code, ""), name
        assert proc.stdout == GOLDEN[name], name
