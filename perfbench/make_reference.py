"""Regenerate the stored reference outputs of the benchmark.

    python3 perfbench/make_reference.py [workload ...]

Runs every op of every input set once and stores what check.py compares
in `perfbench/reference/<workload>.json.gz`.  Run it only when the
workloads change or an output change has been reviewed as correct: the
reference is what later versions of the program are checked against.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout

from check import config_digest, observe, save_reference
from run import WORK, import_cli, prepare
from workloads import VARIANTS, WORKLOADS, make_ops


def main(argv: list[str]) -> int:
    cli = import_cli()
    for workload in argv or sorted(WORKLOADS):
        variants = {}
        for variant in range(VARIANTS):
            ops = make_ops(workload, variant)
            entries = {}
            for op, (args, out) in zip(ops, prepare(ops, WORK / "reference")):
                stdout = io.StringIO()
                with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                    status = cli.main(args)
                if status != 0:
                    print(f"{workload}/{variant}/{op.name}: exit status {status}", file=sys.stderr)
                    return 1
                entries[op.name] = {"config_sha256": config_digest(op), **observe(out, stdout.getvalue())}
            variants[str(variant)] = entries
            print(f"{workload}: input set {variant} done", flush=True)
        save_reference(workload, variants)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
