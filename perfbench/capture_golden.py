#!/usr/bin/env python3
"""Write the golden transcript that the cli-mix workload checks against.

    python3 perfbench/capture_golden.py

Runs every cli-mix invocation once, in-process with ``--json``, and stores
its exit code and its standard output with the ``ms`` field removed in
``perfbench/golden/cli-mix.json``.  The stored transcript was captured from
the library as it stood when the benchmark was added; re-capture it only
when a change to the output is intended and reviewed.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main():
    golden = {}
    for inv in workloads.CLI_INVOCATIONS:
        code, out = workloads.cli_invoke(inv)
        golden[workloads.cli_label(inv)] = {"exit": code, "stdout": out}
    workloads.GOLDEN.parent.mkdir(exist_ok=True)
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print("wrote %d invocations to %s" % (len(golden), workloads.GOLDEN))


if __name__ == "__main__":
    main()
