"""Write pins.json: the sha256 of every document the benchmark can print.

    python3 perfbench/make_pins.py

Runs every op any seed can draw (``workloads.all_ops``) through the CLI
and pins the printed document only if it also agrees with the reference.
The pins hold the program to byte-identical output, so regenerate them
only when a change of output is intended, and say so where it lands.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads


def pin_workload(main, workload: str, directory: Path) -> dict:
    pins = {}
    for op in workloads.all_ops(workload):
        paths = run.write_docs([op], directory)[op.key]
        _, steps = run.run_op(main, op, paths)
        codes = [code for code, _ in steps]
        if any(codes) or (len(steps) == 2 and steps[1][1] != "hda: ok\n"):
            raise SystemExit(f"{workload} {op.key}: exit codes {codes}")
        printed = run.printed_document(op, paths, steps)
        problem = run.check_printed(workload, printed, run.expected(workload, op))
        if problem:
            raise SystemExit(f"{workload} {op.key}: {problem}")
        pins[op.key] = hashlib.sha256(printed).hexdigest()
    return pins


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    cli = run.load_cli()
    run.SCRATCH.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix="pins-", dir=run.SCRATCH))
    try:
        pins = {w: pin_workload(cli.main, w, directory) for w in workloads.WORKLOADS}
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.SCRATCH.rmdir()
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
