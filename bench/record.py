"""Re-record ``expected.json``: run every pool item once and store, per item,
its stratification class and each step's exit code and stdout digest.

    python3 bench/record.py [--workload NAME ...]

The record pins the CLI's output bytes; re-record only when a change to
the output is intended and justified.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from run import (
    EXPECTED,
    WORK_DIR,
    Recorder,
    digest,
    import_hypercore,
    op_list,
    remove_workdir,
    run_op,
    write_inputs,
)
from workloads import WORKLOADS


def record(workload, cli) -> dict[str, str]:
    workdir = WORK_DIR / f"record-{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(workdir)
    entries = {}
    try:
        for key in workload.pool():
            item = workload.build(key)
            write_inputs([item], Path("."))
            ops = op_list([item])
            recorder = Recorder(ops)
            for index, op in enumerate(ops):
                rc, out, _ = run_op(cli, op.step.argv)
                recorder.record(index, rc, out)
            outs = {op.step.name: recorder.first[i] for i, op in enumerate(ops)}
            tags = [digest(*outs[step.name]) for step in item.steps]
            entries[key] = " ".join([workload.classify(item, outs), *tags])
            for name in os.listdir("."):
                os.remove(name)
    finally:
        os.chdir(cwd)
        remove_workdir(workdir)
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    _, cli = import_hypercore()
    data = {}
    if EXPECTED.exists():
        with open(EXPECTED, encoding="utf-8") as handle:
            data = json.load(handle)
    for name in args.workload or sorted(WORKLOADS):
        data[name] = record(WORKLOADS[name], cli)
        print(f"{name}: {len(data[name])} pool items", file=sys.stderr)
        with open(EXPECTED, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=0, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
