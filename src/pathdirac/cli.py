"""Command-line interface.

Subcommands: complex, dirac, persist, molecule, check. Results are written
as JSON/CSV/SVG files under --out; a one-line summary goes to stdout and
timing to stderr (kept out of the files so outputs stay byte-identical).

Exit codes: 0 ok, 1 usage, 2 parse error, 3 resource cap, 4 identity violation.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from .chain import build_digraph_complex, build_hypergraph_complex
from .checks import filtration_check_suite, graph_check_suite
from .errors import PathDiracError, ResourceLimitError
from .fileio import (
    atomic_write_text,
    grid_csv,
    grid_payload,
    load_graph,
    load_manifest,
    result_document,
    write_csv,
    write_json,
)
from .graphs import DEFAULT_PATH_CAP, Digraph
from .heatmap import grid_heatmap_svg
from .molecules import bond_digraph, distance_filtration, load_molecule
from .operators import (
    DEFAULT_DENSE_LIMIT,
    FeatureSet,
    dirac,
    down_laplacian,
    eigen_spectrum,
    features,
    laplacian,
)
from .persistence import (DEFAULT_FEATURES, StageComplexes, feature_grid, feature_problem,
                          threshold_problem)


class CliParser(argparse.ArgumentParser):
    """argparse parser that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(1)


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than minimum (a usage error otherwise)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its invalid-value message
    return parse


def _checked(problem):
    """argparse action: a value list `problem` finds no fault in (a usage error otherwise)."""

    class Checked(argparse.Action):
        def __call__(self, parser, namespace, values, option_string=None):
            if message := problem(values):
                parser.error(f"argument {option_string}: {message}")
            setattr(namespace, self.dest, values)

    return Checked


def _out_dir(text: str) -> Path:
    """argparse type: a directory to write into, or one to create (a usage error otherwise)."""
    path = Path(text)
    try:
        existing = next(p for p in (path, *path.parents) if p.exists())
    except OSError as exc:  # a name too long for the file system, say
        raise argparse.ArgumentTypeError(f"{text}: {exc.strerror}") from None
    if not existing.is_dir():
        raise argparse.ArgumentTypeError(f"{existing} exists and is not a directory")
    return path


@functools.cache  # built once per process: every option default is only read
def build_parser() -> CliParser:
    parser = CliParser(prog="pathdirac", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, degree_help=None, dense=True):
        p.add_argument("--p", type=_int_at_least(0), default=1, help=degree_help)
        p.add_argument("--out", type=_out_dir, default=".",
                       help="output directory (default: current)")
        p.add_argument("--cap", type=_int_at_least(0), default=DEFAULT_PATH_CAP,
                       help="max anchor paths per degree")
        if dense:  # complex builds no dense operator; check keeps the default guard
            p.add_argument("--max-dense", type=_int_at_least(0), default=DEFAULT_DENSE_LIMIT,
                           help="max dense operator size")

    p_complex = sub.add_parser("complex", help="invariant subspace dims, ranks, Betti numbers")
    p_complex.add_argument("input")
    p_complex.add_argument("--kind", choices=("digraph", "hypergraph"), default="digraph")
    p_complex.add_argument("--dump-matrices", action="store_true",
                           help="include exact boundary matrices in the JSON")
    common(p_complex, "top homology degree to report", dense=False)

    p_dirac = sub.add_parser("dirac", help="Laplacian/Dirac spectra and features")
    p_dirac.add_argument("input")
    p_dirac.add_argument("--kind", choices=("digraph", "hypergraph"), default="digraph")
    p_dirac.add_argument("--dump-matrices", action="store_true",
                         help="also write operator matrices as CSV")
    common(p_dirac, "Dirac operator degree")

    def grid(p):
        p.add_argument("--features", nargs="+", default=list(DEFAULT_FEATURES), metavar="FEATURE",
                       choices=FeatureSet.FIELDS, action=_checked(feature_problem),
                       help=f"from {', '.join(FeatureSet.FIELDS)}")
        p.add_argument("--jobs", type=_int_at_least(1), default=1)
        p.add_argument("--annotate", action="store_true", help="write values into heatmap cells")
        common(p)

    p_persist = sub.add_parser("persist", help="persistent Dirac feature grid of a filtration")
    p_persist.add_argument("manifest")
    grid(p_persist)

    p_mol = sub.add_parser("molecule", help="bond digraph filtration pipeline from an XYZ file")
    p_mol.add_argument("input")
    p_mol.add_argument("--thresholds", type=float, nargs="+", required=True,
                       action=_checked(threshold_problem))
    grid(p_mol)

    p_check = sub.add_parser("check", help="run the identity verification suite")
    p_check.add_argument("input")
    p_check.add_argument("--kind", choices=("digraph", "hypergraph", "filtration"),
                         default="digraph")
    common(p_check, dense=False)
    return parser


def _spectrum_payload(degree: int, spec, feats) -> dict:
    return {
        "degree": degree,
        "spectrum": [float(v) for v in spec.values],
        "exact_nullity": spec.exact_nullity,
        "features": feats.as_dict(),
    }


def _build(args, graph):
    if isinstance(graph, Digraph):
        return build_digraph_complex(graph, args.p + 1, args.cap)
    return build_hypergraph_complex(graph, args.p + 1, args.cap)


def cmd_complex(args) -> int:
    graph = load_graph(args.input, args.kind)
    c = _build(args, graph)
    payload = {
        "kind": args.kind,
        "p_max": args.p,
        "dims": [c.dim(k) for k in range(c.p_top + 1)],
        "boundary_ranks": [c.boundary_rank(k) for k in range(1, c.p_top + 1)],
        "betti": c.betti_vector(),
    }
    if args.dump_matrices:
        payload["boundaries"] = [
            [[str(x) for x in row] for row in c.degrees[k].boundary.to_rows()]
            for k in range(1, c.p_top + 1)
        ]
        payload["omega_bases"] = [
            [[str(x) for x in row] for row in c.degrees[k].omega.to_rows()]
            for k in range(c.p_top + 1)
        ]
    doc = result_document("complex", args.input, payload)
    out = args.out / f"{Path(args.input).stem}.complex.json"
    write_json(out, doc)
    print(f"betti={payload['betti']} dims={payload['dims']} -> {out}")
    return 0


def cmd_dirac(args) -> int:
    graph = load_graph(args.input, args.kind)
    c = _build(args, graph)
    d = dirac(c, args.p, args.max_dense)  # the largest operator, so its guard goes first
    built = {f"laplacian_{n}": laplacian(c, n, args.max_dense) for n in range(args.p + 1)}
    built[f"down_laplacian_{args.p + 1}"] = down_laplacian(c, args.p + 1, args.max_dense)
    built[f"dirac_{args.p}"] = d
    operators = {}
    for name, op in built.items():
        spec = eigen_spectrum(op.matrix, op.exact_nullity)
        operators[name] = _spectrum_payload(op.degree, spec, features(spec))
    payload = {"kind": args.kind, "p": args.p, "operators": operators}
    doc = result_document("dirac", args.input, payload)
    stem = Path(args.input).stem
    out = args.out / f"{stem}.dirac.json"
    write_json(out, doc)
    if args.dump_matrices:
        for name, op in built.items():
            write_csv(args.out / f"{stem}.{name}.csv",
                      [f"c{j}" for j in range(op.matrix.shape[1])], op.matrix.tolist())
    print(
        f"dirac p={args.p}: size={d.matrix.shape[0]} nullity={d.exact_nullity} -> {out}"
    )
    return 0


def _emit_grid(args, filtration, source, command) -> int:
    """Persistent Dirac feature grid of a filtration, written as JSON, CSV and SVG."""
    stages = StageComplexes(filtration, args.p + 1, args.cap)
    grid = feature_grid(stages, args.p, tuple(args.features), jobs=args.jobs,
                        dense_limit=args.max_dense)
    stem = Path(source).stem
    doc = result_document(command, source, grid_payload(grid))
    json_path = args.out / f"{stem}.grid.json"
    csv_path = args.out / f"{stem}.grid.csv"
    write_json(json_path, doc)
    grid_csv(csv_path, grid)
    for name in grid.feature_names:
        svg = grid_heatmap_svg(grid, name, annotate=args.annotate)
        atomic_write_text(args.out / f"{stem}.{name}.svg", svg)
    print(f"grid {grid.size}x{grid.size} features={','.join(grid.feature_names)} -> {csv_path}")
    return 0


def cmd_persist(args) -> int:
    return _emit_grid(args, load_manifest(args.manifest), args.manifest, "persist")


def cmd_molecule(args) -> int:
    mol = load_molecule(args.input)
    weighted = bond_digraph(mol)
    filtration = distance_filtration(weighted, args.thresholds)
    return _emit_grid(args, filtration, args.input, "molecule")


def cmd_check(args) -> int:
    if args.kind == "filtration":
        filtration = load_manifest(args.input)
        stages = StageComplexes(filtration, args.p + 1, args.cap)
        results = filtration_check_suite(stages, args.p)
    else:
        graph = load_graph(args.input, args.kind)
        c = _build(args, graph)
        results = graph_check_suite(graph, c)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 4


COMMANDS = {
    "complex": cmd_complex,
    "dirac": cmd_dirac,
    "persist": cmd_persist,
    "molecule": cmd_molecule,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        code = COMMANDS[args.command](args)
    except PathDiracError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:  # a refused allocation is a resource limit too
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return ResourceLimitError.exit_code
    finally:
        elapsed = time.monotonic() - started
        print(f"[{args.command}] {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
