"""Graph structures, anchor-path enumeration, and the degree-1 rank formula."""

import pytest

from oracles import (
    brute_anchor_paths_digraph,
    brute_anchor_paths_hypergraph,
    oracle_betti_digraph,
    oracle_betti_hypergraph,
)
from pathdirac import Digraph, Hypergraph, h1_rank, walk_digraph
from pathdirac.chain import build_digraph_complex, build_hypergraph_complex
from pathdirac.errors import ParseError, ResourceLimitError, StructuralError
from pathdirac.graphs import DEFAULT_PATH_CAP, anchor_path_table, anchor_paths

CYCLIC = Digraph.of([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
TRANSITIVE = Digraph.of([0, 1, 2], [(0, 1), (1, 2), (0, 2)])


def walks(g, p, cap=DEFAULT_PATH_CAP):
    return anchor_path_table(g, p, cap)[p]


def closure(h):
    return walk_digraph(h)


def test_digraph_rejects_loops():
    with pytest.raises(ParseError):
        Digraph.of([0, 1], [(0, 0)])


def test_negative_vertex_ids_rejected():
    with pytest.raises(ParseError, match="non-negative"):
        Digraph.of([-1, 0], [])
    with pytest.raises(ParseError, match="non-negative"):
        Hypergraph.of([-3, 0, 1], [(0, 1)])
    with pytest.raises(ParseError, match="non-negative"):
        Hypergraph.of([0, 1], [(-1, 0)])


def test_isolated_vertices_kept_in_degree_zero():
    g = Digraph.of([0, 1, 2, 5], [(0, 1)])
    assert walks(g, 0) == [(0,), (1,), (2,), (5,)]


def test_anchor_paths_cyclic_triangle():
    assert walks(CYCLIC, 2) == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]


def test_anchor_paths_transitive_triangle():
    assert walks(TRANSITIVE, 2) == [(0, 1, 2)]


def test_anchor_paths_no_edges():
    g = Digraph.of([0, 1, 2], [])
    assert walks(g, 1) == []


def test_anchor_paths_sorted_and_distinct_consecutive():
    g = Digraph.of(range(5), [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1), (0, 4)])
    for p in range(4):
        paths = walks(g, p)
        assert paths == anchor_paths(g, p)
        assert paths == sorted(paths)
        assert paths == brute_anchor_paths_digraph(g, p)
        for path in paths:
            assert all(a != b for a, b in zip(path, path[1:]))


def test_anchor_path_cap():
    g = walk_digraph(Hypergraph.of(range(6), [tuple(range(6))]))
    with pytest.raises(ResourceLimitError):
        walks(g, 6, cap=100)


def test_hypergraph_anchor_paths_single_hyperedge():
    h = Hypergraph.of([0, 1, 2], [(0, 1, 2)])
    assert walks(closure(h), 1) == [
        (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1),
    ]


def test_hypergraph_anchor_paths_singletons():
    h = Hypergraph.of([0, 1], [(0,), (1,)])
    assert walks(closure(h), 1) == []


def test_hypergraph_anchor_paths_two_edges_degree_two():
    h = Hypergraph.of([0, 1, 2], [(0, 1), (1, 2)])
    assert walks(closure(h), 2) == [
        (0, 1, 0), (0, 1, 2), (1, 0, 1), (1, 2, 1), (2, 1, 0), (2, 1, 2),
    ]


def test_anchor_path_consistency_on_corpus(hypergraph_corpus):
    for h in hypergraph_corpus[:60]:
        table = anchor_path_table(closure(h), 2)
        for p in range(3):
            assert table[p] == brute_anchor_paths_hypergraph(h, p)


def test_essential_graph_triangle():
    """The walk digraph is the symmetric closure of the essential graph."""
    h = Hypergraph.of([0, 1, 2], [(0, 1, 2)])
    assert walk_digraph(h).edges == ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))


def test_essential_graph_absorbs_contained_edge():
    h1 = Hypergraph.of([0, 1, 2], [(0, 1), (0, 1, 2)])
    h2 = Hypergraph.of([0, 1, 2], [(0, 1, 2)])
    assert walk_digraph(h1) == walk_digraph(h2)


def test_essential_graph_two_components():
    h = Hypergraph.of(range(6), [(0, 1, 2), (3, 4, 5)])
    g = walk_digraph(h)
    assert len(g.vertices) == 6
    assert len(g.edges) == 12
    assert len(g.components()) == 2


def test_symmetric_closure():
    assert walk_digraph(Hypergraph.of([0, 1], [(0, 1)])).edges == ((0, 1), (1, 0))
    assert walk_digraph(Hypergraph.of([], [])).edges == ()
    assert walk_digraph(CYCLIC) is CYCLIC


def test_reciprocal_pairs():
    # a reciprocal pair is two edges of the walk digraph, so it adds one to the count
    assert h1_rank(CYCLIC, 0) == 1
    assert h1_rank(Digraph.of([0, 1, 2], [(0, 1), (1, 2)]), 0) == 0
    assert h1_rank(Digraph.of([0, 1, 2], [(0, 1), (1, 0), (1, 2)]), 0) == 1


def test_h1_formula_cyclic_triangle():
    assert h1_rank(CYCLIC, rank_d2=0) == 1


def test_h1_formula_transitive_triangle():
    assert h1_rank(TRANSITIVE, rank_d2=1) == 0


def test_h1_formula_reciprocal_pair():
    g = Digraph.of([0, 1], [(0, 1), (1, 0)])
    c = build_digraph_complex(g, 2)
    assert h1_rank(g, c.boundary_rank(2)) == 1
    assert oracle_betti_digraph(g, 2)[1] == 1


def test_h1_formula_negative_is_structural_error():
    with pytest.raises(StructuralError):
        h1_rank(CYCLIC, rank_d2=100)


def test_h1_hypergraph_two_triangles():
    h = Hypergraph.of(range(6), [(0, 1, 2), (3, 4, 5)])
    assert h1_rank(closure(h), 0) == 8
    assert h1_rank(closure(h), 8) == 0


def test_h1_hypergraph_single_pair():
    h = Hypergraph.of([0, 1], [(0, 1)])
    c = build_hypergraph_complex(h, 2)
    got = h1_rank(closure(h), c.boundary_rank(2))
    assert got == oracle_betti_hypergraph(h, 2)[1] == 1


def test_h1_formulas_match_oracle_on_corpora(digraph_complexes, hypergraph_complexes):
    for g, c in digraph_complexes[:50]:
        assert h1_rank(g, c.boundary_rank(2)) == oracle_betti_digraph(g, 2)[1]
    for h, c in hypergraph_complexes[:50]:
        assert h1_rank(closure(h), c.boundary_rank(2)) == oracle_betti_hypergraph(h, 2)[1]


def test_underlying_graph_component_count():
    """Weak components: edge direction is ignored."""
    assert len(CYCLIC.components()) == 1
    g = Digraph.of([0, 1, 2, 3], [(0, 1)])
    assert len(g.components()) == 3
