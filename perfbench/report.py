#!/usr/bin/env python3
"""Run every benchmark workload once and print each metric with its unit.

    python3 perfbench/report.py [--trace 0|1]

Each workload runs in its own process through run.py, at the default seed
for the run length that BENCHMARK.json gives; the printed lines
are run.py's, which give every end-to-end metric (or, with --trace 1, every
per-layer metric) by name with its unit, sample count and fail_rate.
Exits non-zero if a workload fails to run or reports incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    for workload in sorted(workloads.GENERATORS):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(run.DEFAULT_SEED),
             "--seconds", str(run.RUN_SECONDS), "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("env ")))
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"{workload}: exit {proc.returncode}, incorrect or no result\n{proc.stderr}")
            status = 1
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
