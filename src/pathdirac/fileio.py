"""Input parsing and deterministic result serialization.

Graph files, filtration manifests, and molecules come in as UTF-8 text;
results go out as schema-versioned JSON and row-major CSV. Floats are
rounded to 12 significant digits before serialization and files are
written atomically (temp file, then rename), so identical inputs yield
byte-identical outputs and failures never leave partial files behind.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import secrets
from pathlib import Path

from .errors import ParseError, ResourceLimitError
from .graphs import Digraph, Hypergraph
from .persistence import FeatureGrid, Filtration, missing_element, threshold_problem

SCHEMA_VERSION = "1"


def _data_lines(text: str):
    """Yield (lineno, stripped) for non-empty, non-comment lines."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _directive(text: str, name: str) -> tuple[int | None, str | None]:
    """(line number, value) of a `# name: ...` comment directive, or (None, None)."""
    prefix = f"# {name}:"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.lower().startswith(prefix):
            return lineno, line[len(prefix):].strip()
    return None, None


def _declared_vertices(text: str, path: str | None) -> list[int]:
    """Vertex ids listed by a `# vertices: ...` directive (empty without one)."""
    _, decl = _directive(text, "vertices")
    try:
        return [int(tok) for tok in (decl or "").split()]
    except ValueError:
        raise ParseError("vertex declaration must list integers", path) from None


def parse_digraph(text: str, path: str | None = None) -> Digraph:
    """One `u v` pair per line; `# vertices: ...` declares isolated vertices."""
    vertices = _declared_vertices(text, path)
    edges = []
    for lineno, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected `u v`, got {line!r}", path, lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"edge endpoints must be integers, got {line!r}", path, lineno) from None
        edges.append((u, v))
    try:
        return Digraph.of(vertices, edges)
    except ParseError as exc:
        raise ParseError(str(exc), path) from None


def parse_hypergraph(text: str, path: str | None = None) -> Hypergraph:
    """One hyperedge per line as space-separated vertex ids."""
    vertices = _declared_vertices(text, path)
    hyperedges = []
    for lineno, line in _data_lines(text):
        try:
            members = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"hyperedge must list integers, got {line!r}", path, lineno) from None
        hyperedges.append(members)
    try:
        return Hypergraph.of(vertices, hyperedges)
    except ParseError as exc:
        raise ParseError(str(exc), path) from None


def read_input(path) -> str:
    """Text of an input file; an unreadable or non-UTF-8 file is a ParseError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read file: {exc.strerror or exc}", str(path)) from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text (byte {exc.start})", str(path)) from None


def load_graph(path, kind: str):
    text = read_input(path)
    if kind == "digraph":
        return parse_digraph(text, str(path))
    if kind == "hypergraph":
        return parse_hypergraph(text, str(path))
    raise ParseError(f"unknown graph kind {kind!r}", str(path))


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
    base_dir = Path(base_dir)
    thresholds_line, thresholds_decl = _directive(text, "thresholds")
    if thresholds_decl is not None:
        try:
            thresholds = [float(tok) for tok in thresholds_decl.split()]
        except ValueError:
            raise ParseError("thresholds must be numbers", path) from None
        if not thresholds:
            raise ParseError("threshold list is empty", path)
        if problem := threshold_problem(thresholds):
            raise ParseError(problem, path, thresholds_line)
        vertices = _declared_vertices(text, path)
        weighted = []
        for lineno, line in _data_lines(text):
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(f"expected `u v w`, got {line!r}", path, lineno)
            try:
                u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ParseError(f"bad weighted edge {line!r}", path, lineno) from None
            if not math.isfinite(w):
                raise ParseError(f"edge weight must be finite, got {line!r}", path, lineno)
            try:
                Digraph.of((), [(u, v)])  # a loop or a negative id, named at its line
            except ParseError as exc:
                raise ParseError(str(exc), path, lineno) from None
            weighted.append((u, v, w))
        all_vertices = set(vertices) | {u for u, _, _ in weighted} | {v for _, v, _ in weighted}
        try:
            stages = [Digraph.of(all_vertices, [(u, v) for u, v, w in weighted if w <= t])
                      for t in thresholds]
        except ParseError as exc:  # a negative id in the `# vertices:` directive
            raise ParseError(str(exc), path) from None
        return Filtration.of(stages)

    kind = _directive(text, "kind")[1] or "digraph"
    if kind not in ("digraph", "hypergraph"):
        raise ParseError(f"manifest kind must be digraph or hypergraph, got {kind!r}", path)
    stages = []
    for lineno, line in _data_lines(text):
        stage_path = base_dir / line
        try:
            found = stage_path.exists()
        except OSError as exc:  # e.g. a name too long to stat
            raise ParseError(f"cannot look up stage file: {exc.strerror or exc}",
                             path, lineno) from None
        if not found:
            raise ParseError(f"stage file not found: {line}", path, lineno)
        stage = load_graph(stage_path, kind)
        if stages and (missing := missing_element(stages[-1], stage)):
            raise ParseError(f"stages do not nest: stage {len(stages) + 1} ({line}) lacks "
                             f"{missing} of stage {len(stages)}", path, lineno)
        stages.append(stage)
    if not stages:
        raise ParseError("manifest lists no stages", path)
    return Filtration.of(stages)


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


def round_floats(obj):
    if isinstance(obj, float):
        return sig12(obj)
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


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
        **round_floats(payload),
    }


def write_json(path, document: dict) -> None:
    atomic_write_text(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


def format_cell(value) -> str:
    """A float at 12 significant digits (`sig12`); anything else as `str` writes it."""
    return f"{sig12(value):.12g}" if isinstance(value, float) else str(value)


def write_csv(path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
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
