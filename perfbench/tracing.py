"""Outside-in tracing of pathdirac's layers for the benchmark's traced run.

The program is not changed: ``Tracer.install`` rebinds every copy of each
target function (module globals that were imported by name, class
attributes, the package's re-exports) to a wrapper that records a span, and
``Tracer.uninstall`` puts the originals back. The current span lives in a
context variable, so each thread has its own stack; the persistence layer's
thread pool is swapped for one that runs each task in a copy of the
submitting context, so spans in pool threads keep their parent.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    counts: dict


class ContextThreadPoolExecutor(ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


# ---------------------------------------------------------------------------
# Counters: computed from a call's arguments and return value.


def _cells(args, kwargs, result) -> dict:
    m = args[0]
    return {"cells": m.rows * m.cols}


def _walks(args, kwargs, result) -> dict:
    return {"walks": sum(len(paths) for paths in result)}


def _disallowed_rows(args, kwargs, result) -> dict:
    return {"disallowed_rows": result[1].rows}


def _dense_dim(args, kwargs, result) -> dict:
    return {"dense_dim": max(args[0].shape, default=0)}


def _make_slide_counter(default_tol: float) -> Callable:
    def count(args, kwargs, result) -> dict:
        """Whether eigen_spectrum moved the zero threshold off zero_tol * scale."""
        matrix = args[0]
        zero_tol = args[2] if len(args) > 2 else kwargs.get("zero_tol", default_tol)
        n = matrix.shape[0]
        slid = 0
        if n:
            scale = max(1.0, max(abs(float(v)) for v in result.values))
            slid = int(result.zero_threshold != zero_tol * scale)
        return {"dense_dim": n, "slides": slid}

    return count


@dataclass(frozen=True)
class Target:
    """One traced function: span name, defining module and attribute path."""

    span: str
    module: str
    attr: str
    counter: Callable | None = None


def targets() -> list[Target]:
    """Every traced function. Some feed no metric of their own; they are
    wrapped so that their time is not counted as their caller's self time."""
    operators = importlib.import_module("pathdirac.operators")
    default_tol = inspect.signature(operators.eigen_spectrum).parameters["zero_tol"].default
    t = Target
    return [
        t("rational.rref", "pathdirac.rational", "rref", _cells),
        t("rational.rank", "pathdirac.rational", "rank"),
        t("rational.kernel_basis", "pathdirac.rational", "kernel_basis"),
        t("rational.solve", "pathdirac.rational", "solve"),
        t("rational.column_space_basis", "pathdirac.rational", "column_space_basis"),
        t("rational.preimage_basis", "pathdirac.rational", "preimage_basis"),
        t("rational.intersection_basis", "pathdirac.rational", "intersection_basis"),
        t("rational.QMatrix.matmul", "pathdirac.rational", "QMatrix.__matmul__"),
        t("rational.QMatrix.to_float", "pathdirac.rational", "QMatrix.to_float", _cells),
        t("graphs.anchor_path_table", "pathdirac.graphs", "anchor_path_table", _walks),
        t("chain.split_boundary", "pathdirac.chain", "split_boundary", _disallowed_rows),
        t("chain.build_complex", "pathdirac.chain", "build_complex"),
        t("chain.orthonormal_basis", "pathdirac.chain", "orthonormal_basis"),
        t("chain.build_digraph_complex", "pathdirac.chain", "build_digraph_complex"),
        t("chain.build_hypergraph_complex", "pathdirac.chain", "build_hypergraph_complex"),
        t("operators.laplacian", "pathdirac.operators", "laplacian"),
        t("operators.down_laplacian", "pathdirac.operators", "down_laplacian"),
        t("operators.dirac", "pathdirac.operators", "dirac"),
        t("operators.eigen_spectrum", "pathdirac.operators", "eigen_spectrum",
          _make_slide_counter(default_tol)),
        t("operators.float_rank", "pathdirac.operators", "float_rank", _dense_dim),
        t("persistence.stage_build", "pathdirac.persistence", "StageComplexes.__init__"),
        t("persistence.auxiliary_complex", "pathdirac.persistence", "auxiliary_complex"),
        t("persistence.persistent_dirac", "pathdirac.persistence", "persistent_dirac"),
        t("persistence.persistent_laplacian", "pathdirac.persistence", "persistent_laplacian"),
        t("persistence.feature_grid", "pathdirac.persistence", "feature_grid"),
        t("checks.graph_check_suite", "pathdirac.checks", "graph_check_suite"),
        t("checks.filtration_check_suite", "pathdirac.checks", "filtration_check_suite"),
        t("molecules.parse_xyz", "pathdirac.molecules", "parse_xyz"),
        t("molecules.bond_digraph", "pathdirac.molecules", "bond_digraph"),
        t("molecules.distance_filtration", "pathdirac.molecules", "distance_filtration"),
        t("fileio.load_graph", "pathdirac.fileio", "load_graph"),
        t("fileio.load_manifest", "pathdirac.fileio", "load_manifest"),
        t("fileio.write_json", "pathdirac.fileio", "write_json"),
        t("fileio.write_csv", "pathdirac.fileio", "write_csv"),
        t("fileio.atomic_write_text", "pathdirac.fileio", "atomic_write_text"),
        t("heatmap.grid_heatmap_svg", "pathdirac.heatmap", "grid_heatmap_svg"),
        t("cli.main", "pathdirac.cli", "main"),
    ]


class Tracer:
    """Records spans in memory while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ranked: dict[int, object] = {}  # id -> matrix, held so ids stay unique in an op
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        spans, ids, clock = self.spans, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(next(ids), name, 0.0, 0.0, _CURRENT.get(), self.op,
                        threading.get_ident(), {})
            token = _CURRENT.set(span.id)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                _CURRENT.reset(token)
                spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    def _rank_counter(self, args, kwargs, result) -> dict:
        m = args[0]
        with self._lock:
            repeat = id(m) in self._ranked
            self._ranked[id(m)] = m
        return {"repeat": int(repeat)}

    def begin_op(self, op: int) -> None:
        self.op = op
        with self._lock:
            self._ranked.clear()

    def end_op(self) -> None:
        self.op = None
        with self._lock:
            self._ranked.clear()

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; on failure, leave the program as it was."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        try:
            for target in targets():
                # Repeat detection needs per-op state, so rank's counter is a method.
                counter = self._rank_counter if target.span == "rational.rank" else target.counter
                owner = importlib.import_module(target.module)
                *path, attr = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                    self._rebind(owner, attr, original, self.wrap(target.span, original, counter))
                else:
                    original = getattr(owner, attr)
                    self._rebind_everywhere(original, self.wrap(target.span, original, counter))
            persistence = importlib.import_module("pathdirac.persistence")
            self._rebind_everywhere(persistence.ThreadPoolExecutor, ContextThreadPoolExecutor)
        except BaseException:
            self.uninstall()
            raise

    def _rebind(self, owner, attr: str, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _rebind_everywhere(self, original, replacement) -> None:
        """Rebind every pathdirac module global that refers to `original`."""
        found = False
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "pathdirac" and not mod_name.startswith("pathdirac."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, attr, original, replacement)
                    found = True
        if not found:
            raise RuntimeError(f"no pathdirac module refers to {original!r}")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "thread": s.thread, **s.counts,
                }) + "\n")


def read_jsonl(path) -> list[Span]:
    """Spans as written by Tracer.write_jsonl."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            fields = {k: d.pop(k) for k in ("id", "name", "start", "end", "parent", "op", "thread")}
            spans.append(Span(**fields, counts=d))
    return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Children may overlap (pool threads), so the covered part is the measure
    of the union of the children's intervals clipped to the parent's.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c_start, c_end in sorted((max(c.start, s.start), min(c.end, s.end))
                                     for c in children[s.id]):
            if c_end <= reach:
                continue
            covered += c_end - max(c_start, reach)
            reach = c_end
        out[s.id] = (s.end - s.start) - covered
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics: per traced op, except ratios and maxima.

SELF_TIMES = {
    "rational.rref.self_s": ("rational.rref",),
    "rational.kernel_basis.self_s": ("rational.kernel_basis",),
    "rational.solve.self_s": ("rational.solve",),
    "rational.preimage_basis.self_s": ("rational.preimage_basis",),
    "rational.intersection_basis.self_s": ("rational.intersection_basis",),
    "rational.QMatrix.matmul.self_s": ("rational.QMatrix.matmul",),
    "rational.QMatrix.to_float.self_s": ("rational.QMatrix.to_float",),
    "graphs.anchor_path_table.self_s": ("graphs.anchor_path_table",),
    "chain.split_boundary.self_s": ("chain.split_boundary",),
    "chain.build_complex.self_s": ("chain.build_complex",),
    "chain.orthonormal_basis.self_s": ("chain.orthonormal_basis",),
    "operators.laplacian.self_s": ("operators.laplacian",),
    "operators.dirac.self_s": ("operators.dirac",),
    "operators.eigen_spectrum.self_s": ("operators.eigen_spectrum",),
    "operators.float_rank.self_s": ("operators.float_rank",),
    "persistence.auxiliary_complex.self_s": ("persistence.auxiliary_complex",),
    "persistence.persistent_dirac.self_s": ("persistence.persistent_dirac",),
    "checks.graph_check_suite.self_s": ("checks.graph_check_suite",),
    "checks.filtration_check_suite.self_s": ("checks.filtration_check_suite",),
    "molecules.parse_xyz.self_s": ("molecules.parse_xyz",),
    "molecules.distance_filtration.self_s": ("molecules.distance_filtration",),
    "fileio.load.self_s": ("fileio.load_graph", "fileio.load_manifest"),
    "fileio.write.self_s": ("fileio.write_json", "fileio.write_csv", "fileio.atomic_write_text"),
    "heatmap.grid_heatmap_svg.self_s": ("heatmap.grid_heatmap_svg",),
    "cli.main.self_s": ("cli.main",),
}

CALLS = {
    "rational.rref.calls": "rational.rref",
    "rational.rank.calls": "rational.rank",
    "operators.eigen_spectrum.calls": "operators.eigen_spectrum",
    "persistence.auxiliary_complex.calls": "persistence.auxiliary_complex",
}

COUNTS = {
    "rational.rref.cells": ("rational.rref", "cells"),
    "rational.QMatrix.to_float.entries": ("rational.QMatrix.to_float", "cells"),
    "graphs.walks": ("graphs.anchor_path_table", "walks"),
    "chain.disallowed_rows": ("chain.split_boundary", "disallowed_rows"),
    "operators.eigen_spectrum.slides": ("operators.eigen_spectrum", "slides"),
}


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) over the spans of n_ops traced ops."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name: str) -> float:
        return sum(s.end - s.start for s in by_name[name])

    out: dict[str, tuple[float, str]] = {}
    for metric, names in SELF_TIMES.items():
        out[metric] = (sum(own[s.id] for n in names for s in by_name[n]) / n_ops, "s")
    for metric, name in CALLS.items():
        out[metric] = (len(by_name[name]) / n_ops, "count")
    for metric, (name, key) in COUNTS.items():
        out[metric] = (sum(s.counts[key] for s in by_name[name]) / n_ops, "count")
    ranks = by_name["rational.rank"]
    out["rational.rank.repeat_ratio"] = (
        sum(s.counts["repeat"] for s in ranks) / len(ranks) if ranks else 0.0, "ratio")
    dense = [s.counts["dense_dim"] for n in ("operators.eigen_spectrum", "operators.float_rank")
             for s in by_name[n]]
    out["operators.dense_dim_max"] = (float(max(dense, default=0)), "count")
    out["persistence.stage_build.total_s"] = (total("persistence.stage_build") / n_ops, "s")
    stage = total("persistence.stage_build")
    out["persistence.grid_to_stage_ratio"] = (
        total("persistence.feature_grid") / stage if stage else 0.0, "ratio")
    return out
