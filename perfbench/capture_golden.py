#!/usr/bin/env python3
"""Record the golden outputs the benchmark checks against.

    python3 perfbench/capture_golden.py

Runs one pass of ``study-matrix`` at the shipped seed, at both sizes, and
writes its outputs to ``perfbench/golden.json``: the SHA-256 of every
trajectory CSV and of ``report.csv``, and the report row and ``analyze``
output per scenario. Rerun it only when a change is meant to alter
trajectories or metrics.
"""
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    golden = {"shipped_seed": workloads.SHIPPED_SEED}
    workdir = HERE / "results" / "capture"
    try:
        for size in (workloads.SMOKE, workloads.FULL):
            golden[size.name] = {}
            for name in ("study-matrix",):
                shutil.rmtree(workdir, ignore_errors=True)
                w = workloads.BUILDERS[name](workloads.SHIPPED_SEED, size, workdir)
                w.run_pass()
                golden[size.name][name] = w.outputs()
                print(f"captured {size.name} {name}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
