"""Record golden.json from the code in this checkout.

    python3 bench/record_golden.py

It stores the stdout of every cli-mix command line and, for the default
seed, the digests of each workload's inputs and of its first round's
outputs.  Run it only for a change that is meant to alter outputs, and
review the diff of golden.json.
"""

from __future__ import annotations

import json
import sys

from run import WORKLOADS, measure, output_digest

import workloads


def write(golden: dict):
    with open(workloads.GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


def main() -> int:
    workloads.import_luroth()
    golden = {"seed": workloads.DEFAULT_SEED, "cli": {}, "inputs": {}, "outputs": {}}
    for name, (argv, expected) in workloads.CLI_COMMANDS.items():
        code, out, err = workloads.run_cli(argv)
        if code != expected or err:
            print(f"{name}: exit {code}, expected {expected}; stderr {err!r}", file=sys.stderr)
            return 1
        golden["cli"][name] = out
    write(golden)  # the cli-mix checks read the stdout just recorded
    for name in WORKLOADS:
        workload = workloads.BUILDERS[name](workloads.DEFAULT_SEED)
        m = measure(workload, rounds=1)
        if m.failed:
            print(f"{name}: {m.reasons}", file=sys.stderr)
            return 1
        golden["inputs"][name] = workload.input_digest
        golden["outputs"][name] = output_digest(m)
    write(golden)
    print(f"wrote {workloads.GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
