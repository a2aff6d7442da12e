#!/usr/bin/env python3
"""Re-measure the ROADMAP's baseline numbers with the benchmark's tracing.

    python3 perfbench/baselines.py

Prints a markdown report (kept in BASELINES.md) with:

1. a 60-vertex random digraph built to degree 3, split into self time of
   ``rational.rref`` and ``QMatrix.to_float``;
2. the persistence grid against the stage builds at 5, 9 and 17 stages of
   the benchmark molecule;
3. ``molecule --jobs 1`` against ``--jobs 2`` on the 5- and 7-stage grids,
   alternating which runs first.

These are one-off measurements, not benchmark workloads.
"""

from __future__ import annotations

import itertools
import random
import statistics
import sys
import time
from pathlib import Path

import run
import tracing
import workloads

BUILD_VERTICES = 60
BUILD_EDGE_P = 0.058
BUILD_WALKS = 2478  # the ROADMAP's graph: 2,478 degree-3 walks
GRID_STAGES = (5, 9, 17)
JOBS_STAGES = (5, 7)
JOBS_REPEATS = 5


def traced(fn):
    """Call fn under a fresh tracer; return (result, wall seconds, spans)."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return result, seconds, tracer.spans


def self_sum(spans, name: str) -> float:
    own = tracing.self_times(spans)
    return sum(own[s.id] for s in spans if s.name == name)


def total(spans, name: str) -> float:
    return sum(s.end - s.start for s in spans if s.name == name)


def degree3_build(seed: int) -> list[str]:
    """First seeded Erdos-Renyi digraph whose degree-3 walk count is within 5% of the ROADMAP's."""
    from pathdirac import Digraph, chain, graphs

    for attempt in itertools.count():
        rng = random.Random(f"baseline-build:{seed}:{attempt}")
        edges = [(u, v) for u in range(BUILD_VERTICES) for v in range(BUILD_VERTICES)
                 if u != v and rng.random() < BUILD_EDGE_P]
        g = Digraph.of(range(BUILD_VERTICES), edges)
        if abs(len(graphs.anchor_paths(g, 3)) - BUILD_WALKS) <= 0.05 * BUILD_WALKS:
            break
    c, seconds, spans = traced(lambda: chain.build_digraph_complex(g, 3))
    walks = len(c.degrees[3].paths)
    disallowed = next(s.counts["disallowed_rows"] for s in reversed(spans)
                      if s.name == "chain.split_boundary")
    rref = self_sum(spans, "rational.rref")
    to_float = self_sum(spans, "rational.QMatrix.to_float")
    return [
        "## 1. 60-vertex digraph built to degree 3",
        "",
        f"Erdos-Renyi, {BUILD_VERTICES} vertices, {len(edges)} edges, {walks} degree-3 walks, "
        f"{disallowed} disallowed degree-3 rows, Omega dims {[c.dim(k) for k in range(4)]}.",
        "",
        "| what | seconds | share |",
        "| --- | ---: | ---: |",
        f"| `build_digraph_complex(g, 3)`, traced | {seconds:.2f} | 100% |",
        f"| `rational.rref` self time | {rref:.2f} | {rref / seconds:.0%} |",
        f"| `QMatrix.to_float` self time | {to_float:.2f} | {to_float / seconds:.0%} |",
        "",
    ]


def molecule_grid(stages: int, jobs: int):
    from pathdirac import molecules, persistence

    atoms, bond_lines = workloads.parse_template(workloads.MOLECULE_TEMPLATE.read_text())
    thresholds = workloads.molecule_thresholds(atoms, bond_lines, stages)
    mol = molecules.load_molecule(workloads.MOLECULE_TEMPLATE)
    filtration = molecules.distance_filtration(molecules.bond_digraph(mol), thresholds)

    def grid():
        sc = persistence.StageComplexes(filtration, 2)
        return persistence.feature_grid(sc, 1, jobs=jobs)

    return traced(grid)


def grid_ratios() -> list[str]:
    lines = ["## 2. Persistence grid against stage builds", "",
             "The committed 24-atom molecule, `p = 1`, `--jobs 1`, thresholds at fixed "
             "shares of the bond lengths.", "",
             "| stages | pairs | stage builds s | grid s | grid / stages |",
             "| ---: | ---: | ---: | ---: | ---: |"]
    for stages in GRID_STAGES:
        _, _, spans = molecule_grid(stages, 1)
        build = total(spans, "persistence.stage_build")
        grid = total(spans, "persistence.feature_grid")
        lines.append(f"| {stages} | {stages * (stages + 1) // 2} | {build:.3f} | {grid:.2f} | "
                     f"{grid / build:.1f} |")
    return lines + [""]


def jobs_speedup(seed: int, repeats: int) -> list[str]:
    cli = run.load_cli()
    lines = ["## 3. `molecule --jobs 1` against `--jobs 2`", "",
             f"Wall time of the CLI op, untraced, {repeats} runs each, alternating order; "
             "median (min-max).", "",
             "| stages | jobs 1 s | jobs 2 s | jobs 2 / jobs 1 |",
             "| ---: | ---: | ---: | ---: |"]
    with run.Workspace("molecule-grid", seed) as workspace:
        (argv,) = workspace.ops
        atoms, bond_lines = workloads.parse_template(Path(argv[1]).read_text())
        for stages in JOBS_STAGES:
            cuts = [repr(t) for t in workloads.molecule_thresholds(atoms, bond_lines, stages)]
            base = [argv[0], argv[1], "--thresholds", *cuts, "--p", "1", "--jobs"]
            times = {"1": [], "2": []}
            run.run_op(cli, base + ["2"], workspace.out_dir(0))  # warm-up
            for r in range(repeats):
                for jobs in (("1", "2") if r % 2 == 0 else ("2", "1")):
                    secs, outcome = run.run_op(cli, base + [jobs], workspace.out_dir(0))
                    if run.op_failed(outcome, None):
                        raise RuntimeError(f"op failed: {outcome}")
                    times[jobs].append(secs)
            shown = {j: f"{statistics.median(t):.2f} ({min(t):.2f}-{max(t):.2f})"
                     for j, t in times.items()}
            ratio = statistics.median(times["2"]) / statistics.median(times["1"])
            lines.append(f"| {stages} | {shown['1']} | {shown['2']} | {ratio:.2f} |")
    return lines + [""]


def main() -> int:
    run.pin_threads()
    run.load_cli()
    env = run.environment()
    report = [f"# Baselines, re-measured (seed {run.DEFAULT_SEED})", "",
              f"git {env['git_revision']}, nproc {env['nproc']}, Python {env['python']}, "
              f"numpy {env['numpy']}, {env['blas']}, BLAS threads pinned to 1.", ""]
    report += degree3_build(run.DEFAULT_SEED)
    report += grid_ratios()
    report += jobs_speedup(run.DEFAULT_SEED, JOBS_REPEATS)
    print("\n".join(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
