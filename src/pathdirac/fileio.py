"""Input parsing and deterministic result serialization.

Graph files, filtration manifests, and molecules come in as UTF-8 text;
results go out as schema-versioned JSON and row-major CSV. Floats are
rounded to 12 significant digits as they are written and files are
written atomically (temp file, then rename), so identical inputs yield
byte-identical outputs and failures never leave partial files behind.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import secrets
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import ParseError, ResourceLimitError
from .graphs import Digraph, Hypergraph, edge_problem, vertex_problem
from .persistence import FeatureGrid, Filtration, missing_element, threshold_problem

SCHEMA_VERSION = "1"
DIRECTIVES = ("vertices", "thresholds", "kind")  # the `# name: value` lines a parser reads
FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # as `json` spells them


class Lines:
    """The lines of one input file: its `# name: value` lines whose name is in DIRECTIVES,
    and its data lines (neither blank nor a comment), in file order. `read` is the one
    place a line's fault is raised, as a ParseError naming the file and the line."""

    def __init__(self, text: str, path: str | None):
        self.path, self.directives, self.data = path, [], []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            head, colon, value = line.partition(":")
            if line and not line.startswith("#"):
                self.data.append((lineno, line))
            elif colon and head.startswith("# ") and head[2:].lower() in DIRECTIVES:
                self.directives.append((lineno, head[2:].lower(), value.strip()))

    def read(self, lineno: int, text: str, parse):
        """parse(text); the ValueError it raises is a ParseError at `lineno`."""
        try:
            return parse(text)
        except ValueError as exc:
            raise ParseError(str(exc), self.path, lineno) from None

    def read_directives(self, form: str, **parsers) -> dict:
        """Each directive's value by name, read by its parser in `parsers`; a directive
        `form` has no parser for, or a second line of one, is a fault at its line."""
        values: dict = {}

        def parse(name: str, value: str):
            if name not in parsers:
                raise ValueError(f"a {form} does not read `# {name}:`")
            if name in values:
                raise ValueError(f"repeated `# {name}:` directive")
            return parsers[name](value)

        for lineno, name, value in self.directives:
            values[name] = self.read(lineno, value, lambda value: parse(name, value))
        return values

    def rows(self, parse) -> list:
        return [self.read(lineno, line, parse) for lineno, line in self.data]


def numbers(tokens, kind, problem: str, rule=lambda values: None) -> list:
    """The tokens as `kind`s; ValueError(problem) if one is not, or the fault `rule` finds."""
    try:
        values = [kind(tok) for tok in tokens]
    except ValueError:
        raise ValueError(problem) from None
    if fault := rule(values):
        raise ValueError(fault)
    return values


def _vertices(value: str) -> list[int]:
    return numbers(value.split(), int, "vertex declaration must list integers", vertex_problem)


def _thresholds(value: str) -> list[float]:
    return numbers(value.split(), float, "thresholds must be numbers",
                   lambda ts: threshold_problem(ts) if ts else "threshold list is empty")


def _kind(value: str) -> str:
    if value not in ("", *GRAPH_FILES):
        raise ValueError(f"manifest kind must be digraph or hypergraph, got {value!r}")
    return value or "digraph"  # an empty `# kind:` leaves the default


def _edge(line: str) -> list[int]:
    if len(parts := line.split()) != 2:
        raise ValueError(f"expected `u v`, got {line!r}")
    return numbers(parts, int, f"edge endpoints must be integers, got {line!r}",
                   lambda edge: edge_problem(*edge))


def _hyperedge(line: str) -> list[int]:
    return numbers(line.split(), int, f"hyperedge must list integers, got {line!r}", vertex_problem)


def _weighted_edge(line: str) -> tuple[int, int, float]:
    if len(parts := line.split()) != 3:
        raise ValueError(f"expected `u v w`, got {line!r}")
    u, v = numbers(parts[:2], int, f"bad weighted edge {line!r}")
    (w,) = numbers(parts[2:], float, f"bad weighted edge {line!r}")
    if not math.isfinite(w):
        raise ValueError(f"edge weight must be finite, got {line!r}")
    if problem := edge_problem(u, v):
        raise ValueError(problem)
    return u, v, w


GRAPH_FILES = {"digraph": (Digraph, _edge), "hypergraph": (Hypergraph, _hyperedge)}


def parse_graph(text: str, kind: str, path: str | None = None) -> Digraph | Hypergraph:
    """A graph file: one `u v` edge per line of a digraph, or one hyperedge per line
    of a hypergraph as space-separated vertex ids; `# vertices: ...` declares
    isolated vertices."""
    if kind not in GRAPH_FILES:
        raise ParseError(f"unknown graph kind {kind!r}", path)
    graph, row = GRAPH_FILES[kind]
    lines = Lines(text, path)
    vertices = lines.read_directives("graph file", vertices=_vertices).get("vertices", [])
    return graph.of(vertices, lines.rows(row))


def read_input(path) -> str:
    """Text of an input file, less a UTF-8 byte-order mark; an unreadable or non-UTF-8
    file is a ParseError naming it."""
    try:
        # not "utf-8-sig", which counts a fault's byte from after the mark
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc.strerror or exc}", str(path)) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text (byte {exc.start})", str(path)) from None


def load_graph(path, kind: str):
    return parse_graph(read_input(path), kind, str(path))


def parse_manifest(text: str, base_dir, path: str | None = None) -> Filtration:
    """Filtration manifest in one of two forms.

    Stage-list form: one graph-file path per line, optionally preceded by a
    `# kind: digraph|hypergraph` directive (digraph by default). Each stage
    must contain the one before it.

    Weighted form, selected by a `# thresholds: t1 t2 ...` directive: data
    lines are `u v w` weighted directed edges; stage i keeps edges with
    w <= t_i and every vertex is present from stage 1. A `# vertices: ...`
    directive declares isolated vertices. Thresholds and weights must be finite,
    and thresholds strictly increasing.
    """
    lines = Lines(text, path)
    if any(name == "thresholds" for _, name, _ in lines.directives):
        found = lines.read_directives("weighted manifest", thresholds=_thresholds,
                                      vertices=_vertices)
        return Filtration.by_threshold(found.get("vertices", []), lines.rows(_weighted_edge),
                                       found["thresholds"])

    kind = lines.read_directives("stage-list manifest", kind=_kind).get("kind", "digraph")
    stages: list = []

    def add_stage(line: str) -> None:
        stage_path = Path(base_dir) / line
        try:
            found = stage_path.exists()
        except OSError as exc:  # e.g. a name too long to stat
            raise ValueError(f"cannot look up stage file: {exc.strerror or exc}") from None
        if not found:
            raise ValueError(f"stage file not found: {line}")
        stage = load_graph(stage_path, kind)
        if stages and (missing := missing_element(stages[-1], stage)):
            raise ValueError(f"stages do not nest: stage {len(stages) + 1} ({line}) lacks "
                             f"{missing} of stage {len(stages)}")
        stages.append(stage)

    lines.rows(add_stage)
    if not stages:
        raise ParseError("manifest lists no stages", path)
    return Filtration(tuple(stages))  # nesting was checked stage by stage


def load_manifest(path) -> Filtration:
    p = Path(path)
    return parse_manifest(read_input(p), p.parent, str(p))


# ---------------------------------------------------------------------------
# Serialization


def sig12(x: float) -> float:
    """Round to 12 significant digits; canonical float for serialization."""
    if x == 0:
        return 0.0
    return float(f"{x:.12g}")


def input_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def atomic_write_text(path, text: str) -> None:
    """Write a fresh temp file beside `path` (mode 0o666 less the umask), then rename it.

    A write the system refuses (a full disk, a read-only directory) is a
    ResourceLimitError naming the path; it leaves no directory this call made."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{secrets.token_hex(4)}.tmp"
    made: list[Path] = []  # the missing ancestors mkdir creates, deepest first
    try:
        if not path.parent.is_dir():
            made = [d for d in (path.parent, *path.parent.parents) if not d.exists()]
            path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, "x", encoding="utf-8", newline="\n")  # raises before creating anything
        try:
            with fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        for d in made:  # rmdir keeps a directory that is not empty
            with contextlib.suppress(OSError):
                d.rmdir()
        raise ResourceLimitError(f"cannot write {path}: {exc.strerror or exc}") from None


def result_document(command: str, source, payload: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input_digest": input_digest(source),
        **payload,
    }


def _json_text(obj, indent: str = "") -> str:
    """What `json.dumps(obj, indent=2, sort_keys=True)` writes for obj nested at `indent`,
    each float rounded by `sig12` first: one pass, where `json` with an indent runs its
    pure-Python encoder. A value `json` cannot write, or a dict key that is not a str, is a
    TypeError."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, float):
        text = float.__repr__(sig12(obj))
        return FLOAT_WORDS.get(text, text)
    if obj is None or isinstance(obj, bool):
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not all(map(isinstance, obj, repeat(str))):
            raise TypeError("JSON object keys must be str")
        brackets = "{}"
        items = (f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                 for k, v in sorted(obj.items()))
    elif isinstance(obj, (list, tuple)):
        brackets = "[]"
        items = (map(encode_basestring_ascii, obj)  # one call for a row of strings
                 if all(map(isinstance, obj, repeat(str))) else (_json_text(v, inner) for v in obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not obj:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def write_json(path, document: dict) -> None:
    """`json.dumps(document, indent=2, sort_keys=True)` and a newline, floats at `sig12`."""
    atomic_write_text(path, _json_text(document) + "\n")


def format_cell(value) -> str:
    """A float at 12 significant digits (`sig12`); anything else as `str` writes it."""
    return f"{sig12(value):.12g}" if isinstance(value, float) else str(value)


def write_csv(path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header), *(",".join(map(format_cell, row)) for row in rows)]
    atomic_write_text(path, "\n".join(lines) + "\n")


def grid_csv(path, grid: FeatureGrid) -> None:
    """One `n,m,<feature>...` row per cell, in the pair order `grid_payload` writes."""
    rows = [[n, m, *(getattr(fs, name) for name in grid.feature_names)]
            for (n, m), fs in sorted(grid.cells.items())]
    write_csv(path, ["n", "m", *grid.feature_names], rows)


def grid_payload(grid: FeatureGrid) -> dict:
    return {
        "degree": grid.degree,
        "stages": grid.size,
        "features": list(grid.feature_names),
        "cells": [{"n": n, "m": m, **fs.as_dict()} for (n, m), fs in sorted(grid.cells.items())],
    }
