"""Argument guards of the library entry points: each refuses a bad argument with
its own exception type and message."""

import pytest

from pathdirac import (
    Digraph,
    Filtration,
    Hypergraph,
    StageComplexes,
    auxiliary_complex,
    build_digraph_complex,
    dirac,
    down_laplacian,
    laplacian,
    persistent_betti,
    persistent_laplacian,
)
from pathdirac import rational as qa
from pathdirac.errors import ParseError, StructuralError
from pathdirac.fileio import load_graph
from pathdirac.graphs import anchor_path_table
from pathdirac.rational import QMatrix

EDGE = Digraph.of([0, 1], [(0, 1)])


def two_stages() -> StageComplexes:
    return StageComplexes(Filtration.of([Digraph.of([0, 1], []), EDGE]), 2)


def degree_outside(k: int, top: int) -> str:
    """The one message for a degree whose next degree is not built (top: the last
    degree that has it)."""
    return f"degree {k} is outside 0..{top}, the degrees built with the next one"


def edge_complex():
    return build_digraph_complex(EDGE, 1)


def triangle_stages() -> StageComplexes:
    # an edge, then the transitive triangle on the same vertices
    return StageComplexes(Filtration.of([Digraph.of([0, 1, 2], [(0, 1)]),
                                         Digraph.of([0, 1, 2], [(0, 1), (1, 2), (0, 2)])]), 2)


def unknown_kind(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n")
    load_graph(path, "weighted")


def laplacian_past_the_top():
    stages = two_stages()
    persistent_laplacian(stages.stage(1), auxiliary_complex(stages, 1, 2), 2)


def laplacian_of_a_later_stage():
    # stage 3 adds vertex 2, which the pair complex of stages 1 and 2 lacks
    stages = StageComplexes(Filtration.of([Digraph.of([0, 1], []), EDGE,
                                           Digraph.of([0, 1, 2], [(0, 1)])]), 2)
    persistent_laplacian(stages.stage(3), auxiliary_complex(stages, 1, 2), 0)


GUARDS = {
    "betti-out-of-range": (lambda tmp: edge_complex().betti(1), ValueError,
                           degree_outside(1, 0)),
    "laplacian-below-zero": (lambda tmp: laplacian(edge_complex(), -1), ValueError,
                             degree_outside(-1, 0)),
    "laplacian-past-the-top": (lambda tmp: laplacian(edge_complex(), 1), ValueError,
                               degree_outside(1, 0)),
    "dirac-below-zero": (lambda tmp: dirac(edge_complex(), -1), ValueError,
                         degree_outside(-1, 0)),
    "dirac-past-the-top": (lambda tmp: dirac(edge_complex(), 1), ValueError,
                           degree_outside(1, 0)),
    "empty-hyperedge": (lambda tmp: Hypergraph.of([0], [()]), ParseError,
                        "empty hyperedge is not permitted"),
    "negative-degree": (lambda tmp: anchor_path_table(EDGE, -1), ValueError,
                        "degree must be non-negative"),
    "unknown-graph-kind": (unknown_kind, ParseError, "{tmp}/g.txt: unknown graph kind 'weighted'"),
    "down-laplacian-out-of-range": (lambda tmp: down_laplacian(edge_complex(), 2),
                                    ValueError, "down laplacian degree 2 out of built range"),
    "empty-filtration": (lambda tmp: Filtration.of([]), StructuralError,
                         "a filtration needs at least one stage"),
    "by-threshold-empty": (lambda tmp: Filtration.by_threshold([0], [], []), StructuralError,
                           "at least one threshold is required"),
    "by-threshold-unsorted": (lambda tmp: Filtration.by_threshold([0], [], [1, 1]),
                              StructuralError, "thresholds must be strictly increasing"),
    "by-threshold-non-finite": (lambda tmp: Filtration.by_threshold([0], [], [1, float("inf")]),
                                StructuralError, "thresholds must be finite"),
    "stage-index": (lambda tmp: two_stages().stage(3), ValueError,
                    "stage index 3 out of range 1..2"),
    "auxiliary-pair": (lambda tmp: auxiliary_complex(two_stages(), 2, 1), ValueError,
                       "invalid stage pair (2, 1)"),
    "persistent-laplacian-degree": (lambda tmp: laplacian_past_the_top(), ValueError,
                                    degree_outside(2, 1)),
    "persistent-laplacian-stage": (lambda tmp: laplacian_of_a_later_stage(), ValueError,
                                   "stage a's degree-0 path (2,) is not a path of the pair complex"),
    "persistent-betti-pair": (lambda tmp: persistent_betti(two_stages(), 1, 3, 0), ValueError,
                              "invalid stage pair (1, 3)"),
    "persistent-betti-degree": (lambda tmp: persistent_betti(two_stages(), 1, 2, 2), ValueError,
                                degree_outside(2, 1)),
    "persistent-betti-negative-degree": (lambda tmp: persistent_betti(triangle_stages(), 1, 2, -2),
                                         ValueError, degree_outside(-2, 1)),
    "ragged-rows": (lambda tmp: QMatrix.from_rows([[1, 2], [3]]), ValueError,
                    "data shape does not match declared dimensions"),
    "matmul-shape": (lambda tmp: QMatrix(2, 3) @ QMatrix(2, 3), ValueError,
                     "shape mismatch: 2x3 @ 2x3"),
    "hstack-rows": (lambda tmp: qa.hstack(QMatrix(2, 1), QMatrix(3, 1)), ValueError,
                    "row count mismatch in hstack"),
    "solve-rows": (lambda tmp: qa.solve(QMatrix(2, 1), QMatrix(3, 1)), ValueError,
                   "row count mismatch in solve"),
    "preimage-codomain": (lambda tmp: qa.preimage_basis(QMatrix(2, 1), QMatrix(3, 1)), ValueError,
                          "codomain dimension mismatch in preimage_basis"),
    "intersection-ambient": (lambda tmp: qa.intersection_basis(QMatrix(2, 1), QMatrix(3, 1)),
                             ValueError, "ambient dimension mismatch in intersection_basis"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_argument_guard(name, tmp_path):
    call, error, message = GUARDS[name]
    with pytest.raises(error) as got:
        call(tmp_path)
    assert type(got.value) is error
    assert str(got.value) == message.format(tmp=tmp_path)
