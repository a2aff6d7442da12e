"""Seeded input generators and the CLI op list of every benchmark workload.

Each generator draws from ``random.Random(f"{workload}:{seed}")``, so the
same seed gives the same input bytes on every machine and commit. Sizes and
degree sequences are fixed per workload, so the amount of work stays nearly
the same from seed to seed. The program only ever sees the files written
here.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"
MOLECULE_TEMPLATE = DATA_DIR / "molecule.xyz"


def write_inputs(workload: str, seed: int, in_dir: Path) -> list[list[str]]:
    """Write the seed's inputs under in_dir; return one round of CLI argv lists.

    Each argv lacks ``--out``, which the runner appends. A round is the unit
    of warm-up and of the traced/untraced alternation.
    """
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), in_dir)


# ---------------------------------------------------------------------------
# Graph generators


def random_simple_digraph(rng: random.Random, out_deg: list[int],
                          in_deg: list[int]) -> list[tuple[int, int]]:
    """Digraph with the given out/in-degree sequences and no loops, repeats or 2-cycles.

    Stubs are paired at random, then offending edges swap heads with random
    edges (which keeps both degree sequences) until none is left.
    """
    if sum(out_deg) != sum(in_deg):
        raise ValueError("degree sequences must have equal sums")
    heads = [v for v, d in enumerate(in_deg) for _ in range(d)]
    rng.shuffle(heads)
    edges = list(zip((u for u, d in enumerate(out_deg) for _ in range(d)), heads))
    for _ in range(100 * len(edges) + 1000):
        counts = Counter(edges)
        bad = [i for i, (u, v) in enumerate(edges)
               if u == v or counts[(u, v)] > 1 or (v, u) in counts]
        if not bad:
            return sorted(edges)
        i = rng.choice(bad)
        j = rng.randrange(len(edges))
        (u, v), (x, y) = edges[i], edges[j]
        edges[i], edges[j] = (u, y), (x, v)
    raise RuntimeError("could not wire a simple digraph with these degree sequences")


def digraph_text(n: int, edges) -> str:
    lines = ["# vertices: " + " ".join(str(v) for v in range(n))]
    lines += [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + "\n"


def mixed_degrees(rng: random.Random, n: int, high: int, n_high: int) -> list[int]:
    """n_high vertices of degree `high`, the rest of degree `high - 1`, in random positions."""
    degs = [high] * n_high + [high - 1] * (n - n_high)
    rng.shuffle(degs)
    return degs


def permutation(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


# ---------------------------------------------------------------------------
# Workload inputs
#
# Graphs are wired once from a fixed seed and the run seed only relabels
# their vertices, which reorders walks, rows and pivots; rewiring per seed
# moved the op time of a 46-vertex 3-regular digraph by about 30%.
#
# There are two workloads so that each run can measure for 50 s within the
# benchmark's total time: on a shared 2-core host the same op runs up to
# twice as slow for tens of seconds at a time, and shorter runs gave medians
# that spread by about a quarter from run to run. Between them the two load
# every layer. A single large digraph (built to degree 3 on 46 vertices, or
# to degree 1 on 500) would mostly load rref, to_float and eigen_spectrum,
# which molecule-grid loads as well.

# Molecule: the committed template fixes atoms and bonds; each seed is a
# conformer of it (every atom displaced by up to MOLECULE_JITTER Angstrom),
# which reorders the bond lengths and so the stages of the filtration.
# The grid runs with --jobs 1. With --jobs 2 its two threads pass the GIL
# back and forth every few milliseconds, which gains nothing (BASELINES.md)
# and costs more the busier the shared host is: --jobs 2 took 0.97x the time
# of --jobs 1 on a quiet host and 1.15x (quartiles 1.05-1.27) on a busy one,
# which widened the run-to-run spread of this workload.
MOLECULE_JITTER = 0.06
MOLECULE_STAGES = 7


def parse_template(text: str) -> tuple[list[tuple[str, float, float, float]], list[str]]:
    lines = text.splitlines()
    count = int(lines[0])
    atoms = []
    for line in lines[2 : 2 + count]:
        el, x, y, z = line.split()
        atoms.append((el, float(x), float(y), float(z)))
    return atoms, [ln for ln in lines[2 + count :] if ln.strip()]


def molecule_thresholds(atoms, bond_lines, stages: int = MOLECULE_STAGES) -> list[float]:
    """`stages` thresholds, each admitting a fixed share of the bonds.

    Cuts fall midway between consecutive sorted bond lengths, so no bond sits
    on a threshold and the stage sizes do not depend on the seed.
    """
    lengths = []
    for line in bond_lines:
        _, i, j = line.split()
        a, b = atoms[int(i)], atoms[int(j)]
        lengths.append(math.dist(a[1:], b[1:]))
    lengths.sort()
    cuts = []
    for s in range(1, stages):
        r = round(s * len(lengths) / stages)
        cuts.append(round((lengths[r - 1] + lengths[r]) / 2, 6))
    cuts.append(round(lengths[-1] + 0.1, 6))
    return cuts


def gen_molecule_grid(rng: random.Random, in_dir: Path) -> list[list[str]]:
    atoms, bond_lines = parse_template(MOLECULE_TEMPLATE.read_text(encoding="utf-8"))
    moved = [
        (el, *(round(c + rng.uniform(-MOLECULE_JITTER, MOLECULE_JITTER), 5) for c in xyz))
        for el, *xyz in atoms
    ]
    rows = [f"{el} {x:.5f} {y:.5f} {z:.5f}" for el, x, y, z in moved]
    text = "\n".join([str(len(moved)), "synthetic conformer", *rows, *bond_lines]) + "\n"
    path = in_dir / "molecule.xyz"
    path.write_text(text, encoding="utf-8")
    thresholds = [repr(t) for t in molecule_thresholds(moved, bond_lines)]
    return [["molecule", str(path), "--thresholds", *thresholds, "--p", "1", "--jobs", "1"]]


MIXED_ITEMS = 6
MANIFEST_STAGES = 3


def gen_small_mixed(rng: random.Random, in_dir: Path) -> list[list[str]]:
    """MIXED_ITEMS groups of five ops: three on a graph, two on a weighted manifest."""
    ops = []
    for i in range(MIXED_ITEMS):
        n = 6 + i % 5
        shape = random.Random(f"small-mixed:shape:{i}")
        perm = permutation(rng, n)
        if i % 2 == 0:
            kind = "digraph"
            edges = random_simple_digraph(shape, mixed_degrees(shape, n, 2, n // 2),
                                          mixed_degrees(shape, n, 2, n // 2))
            text = digraph_text(n, sorted((perm[u], perm[v]) for u, v in edges))
        else:
            kind = "hypergraph"
            text = hypergraph_text(shape, perm)
        graph = in_dir / f"g{i}.txt"
        graph.write_text(text, encoding="utf-8")
        manifest = in_dir / f"m{i}.txt"
        manifest.write_text(weighted_manifest_text(shape, perm), encoding="utf-8")
        ops += [
            ["complex", str(graph), "--kind", kind, "--dump-matrices"],
            ["dirac", str(graph), "--kind", kind],
            ["check", str(graph), "--kind", kind],
            ["check", str(manifest), "--kind", "filtration"],
            ["persist", str(manifest), "--annotate"],
        ]
    return ops


def hypergraph_text(shape: random.Random, perm: list[int]) -> str:
    """A chain of overlapping triples plus one extra pair, vertices renamed by perm."""
    n = len(perm)
    order = permutation(shape, n)
    edges = [order[k : k + 3] for k in range(0, n - 2, 2)]
    edges.append(shape.sample(order, 2))
    lines = ["# vertices: " + " ".join(str(v) for v in range(n))]
    lines += [" ".join(str(perm[v]) for v in e) for e in edges]
    return "\n".join(lines) + "\n"


def weighted_manifest_text(shape: random.Random, perm: list[int]) -> str:
    """Distinct integer weights; stage s keeps the lightest s/MANIFEST_STAGES of the edges."""
    n = len(perm)
    edges = random_simple_digraph(shape, mixed_degrees(shape, n, 2, n // 2),
                                  mixed_degrees(shape, n, 2, n // 2))
    weights = shape.sample(range(1, 10 * len(edges)), len(edges))
    ordered = sorted(weights)
    thresholds = [ordered[round(s * len(ordered) / MANIFEST_STAGES) - 1]
                  for s in range(1, MANIFEST_STAGES + 1)]
    lines = ["# thresholds: " + " ".join(str(t) for t in thresholds),
             "# vertices: " + " ".join(str(v) for v in range(n))]
    lines += sorted(f"{perm[u]} {perm[v]} {w}" for (u, v), w in zip(edges, weights))
    return "\n".join(lines) + "\n"


GENERATORS = {
    "molecule-grid": gen_molecule_grid,
    "small-mixed": gen_small_mixed,
}
