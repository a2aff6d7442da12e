"""Invariant-subspace construction, boundaries, and subcomplex machinery."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    oracle_betti,
    oracle_betti_digraph,
    oracle_betti_hypergraph,
    oracle_omega_dims_digraph,
)
from pathdirac import Digraph, Hypergraph, boundary_of_path, dirac, laplacian
from pathdirac import rational as qa
from pathdirac.chain import (
    ChainComplex,
    DegreeData,
    build_complex,
    build_digraph_complex,
    build_hypergraph_complex,
    deletion_closure_complex,
    embed_paths,
    infimum_complex,
    omega2_generators_fast,
    orthonormal_basis,
    split_boundary,
    supremum_complex,
)
from pathdirac.errors import StructuralError
from pathdirac.graphs import anchor_path_table, essential_graph, symmetric_closure
from pathdirac.rational import QMatrix

CYCLIC = Digraph.of([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
TRANSITIVE = Digraph.of([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
SQUARE = Digraph.of([0, 1, 2, 3], [(0, 1), (0, 3), (1, 2), (3, 2)])


def test_boundary_of_edge():
    assert boundary_of_path((0, 1)) == {(1,): 1, (0,): -1}


def test_boundary_of_triangle_path():
    assert boundary_of_path((0, 1, 2)) == {(1, 2): 1, (0, 2): -1, (0, 1): 1}


def test_boundary_squared_is_zero():
    chain = boundary_of_path((0, 1, 2))
    acc = {}
    for sub, c in chain.items():
        for sub2, c2 in boundary_of_path(sub).items():
            acc[sub2] = acc.get(sub2, 0) + c * c2
    assert all(v == 0 for v in acc.values())


def test_split_boundary_cyclic_degree1_no_disallowed():
    table = anchor_path_table(CYCLIC, 1)
    _, disallowed, labels = split_boundary(table[1], table[0])
    assert disallowed.rows == 0 and labels == []


def test_split_boundary_transitive_degree2_all_allowed():
    table = anchor_path_table(TRANSITIVE, 2)
    _, disallowed, labels = split_boundary(table[2], table[1])
    assert labels == [] and disallowed.rows == 0


def test_split_boundary_cyclic_degree2_disallowed_rows():
    table = anchor_path_table(CYCLIC, 2)
    _, disallowed, labels = split_boundary(table[2], table[1])
    assert (0, 2) in labels
    assert disallowed.rows == 3  # (0,2), (1,0), (2,1) all fall outside the edge set


def test_omega_cyclic_triangle():
    c = build_digraph_complex(CYCLIC, 3)
    assert [c.dim(k) for k in range(4)] == [3, 3, 0, 0]


def test_omega_transitive_triangle():
    c = build_digraph_complex(TRANSITIVE, 3)
    assert [c.dim(k) for k in range(4)] == [3, 3, 1, 0]
    assert c.degrees[2].paths == [(0, 1, 2)]


def test_omega_square_digraph():
    c = build_digraph_complex(SQUARE, 2)
    assert c.dim(2) == 1
    basis = c.degrees[2].omega
    # the generator is the difference of the two directed 2-paths around the square
    assert sorted(x for row in basis.to_rows() for x in row) == [Fraction(-1), Fraction(1)]


def test_boundary_composes_to_zero_on_corpus(digraph_complexes):
    for _, c in digraph_complexes[:50]:
        for k in range(2, c.p_top + 1):
            assert (c.degrees[k - 1].boundary @ c.degrees[k].boundary).is_zero()


def test_chain_complex_rejects_nonzero_composition():
    # one vertex, one edge, one 2-chain, each boundary the 1x1 identity: ∂1 ∂2 = 1
    def degree(rows):
        return DegreeData([], QMatrix.identity(1), QMatrix.identity(1) if rows else QMatrix(0, 1),
                          np.zeros((rows, 1)), np.eye(1), np.zeros((rows, 1)))

    with pytest.raises(StructuralError, match="boundary composition at degree 2 is nonzero"):
        ChainComplex([degree(0), degree(1), degree(1)])


def test_each_boundary_is_ranked_once(digraph_corpus, monkeypatch):
    calls = []
    real_rank = qa.rank

    def counting_rank(m):
        calls.append(m)
        return real_rank(m)

    monkeypatch.setattr(qa, "rank", counting_rank)
    for g in digraph_corpus[:20]:
        calls.clear()
        c = build_digraph_complex(g, 2)  # fresh: the shared corpus fixtures hold stored ranks
        first = c.betti_vector()
        assert c.betti_vector() == first
        dirac(c, c.p_top - 1)
        laplacian(c, c.p_top - 1)
        assert len(calls) == c.p_top, g


def test_degree_zero_dimension_is_vertex_count(digraph_complexes):
    for g, c in digraph_complexes[:50]:
        assert c.dim(0) == len(g.vertices)


def test_betti_cyclic_and_transitive():
    assert build_digraph_complex(CYCLIC, 2).betti_vector() == [1, 1]
    assert build_digraph_complex(TRANSITIVE, 2).betti_vector() == [1, 0]


def test_betti_isolated_vertices():
    g = Digraph.of(range(4), [])
    assert build_digraph_complex(g, 2).betti_vector() == [4, 0]


def test_betti_matches_oracle_on_corpora(digraph_complexes, hypergraph_complexes):
    for g, c in digraph_complexes[:40]:
        assert c.betti_vector() == oracle_betti_digraph(g, 2)
        assert [c.dim(k) for k in range(3)] == oracle_omega_dims_digraph(g, 2)
    for h, c in hypergraph_complexes[:40]:
        assert c.betti_vector() == oracle_betti_hypergraph(h, 2)


def test_orthonormal_basis_identity_passthrough():
    q = orthonormal_basis(QMatrix.identity(4))
    np.testing.assert_array_equal(q, np.eye(4))


def test_orthonormal_basis_two_term_difference():
    basis = QMatrix.from_rows([[1], [-1]])
    q = orthonormal_basis(basis)
    np.testing.assert_allclose(np.abs(q[:, 0]), [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_orthonormal_basis_properties():
    basis = QMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]])
    q = orthonormal_basis(basis)
    np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-12)
    w = basis.to_float()
    np.testing.assert_allclose(q @ (q.T @ w), w, atol=1e-10)  # same span


def test_orthonormal_basis_passes_distinct_unit_columns_only(monkeypatch):
    real_qr = np.linalg.qr
    calls = []
    monkeypatch.setattr(np.linalg, "qr", lambda w: calls.append(w.shape) or real_qr(w))
    swap = QMatrix.from_rows([[0, 1], [0, 0], [1, 0]])
    np.testing.assert_array_equal(orthonormal_basis(swap), swap.to_float())
    assert calls == []
    # exactly orthonormal, but not unit columns with entry 1: QR, same span
    rational = QMatrix.from_rows([[Fraction(3, 5), 0], [Fraction(4, 5), 0], [0, -1]])
    q = orthonormal_basis(rational)
    assert calls == [(3, 2)]
    w = rational.to_float()
    np.testing.assert_allclose(q.T @ q, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(q @ (q.T @ w), w, atol=1e-10)
    with pytest.raises(StructuralError):  # a repeated unit column
        orthonormal_basis(QMatrix.from_rows([[1, 1], [0, 0]]))


def test_orthonormal_basis_rejects_rank_deficiency():
    with pytest.raises(StructuralError):
        orthonormal_basis(QMatrix.from_rows([[1, 1], [1, 1]]))


def test_deletion_closure_minimal():
    table = anchor_path_table(CYCLIC, 2)
    ambient = deletion_closure_complex(table)
    assert ambient.labels[0] == [(0,), (1,), (2,)]
    assert (0, 2) in ambient.labels[1]  # deletion of (0,1,2) adds the missing pair
    for k in range(1, ambient.p_top + 1):
        prod = ambient.boundaries[k - 1] @ ambient.boundaries[k] if k >= 2 else None
        if prod is not None:
            assert prod.is_zero()


def test_infimum_of_full_ambient_is_ambient():
    table = anchor_path_table(TRANSITIVE, 2)
    ambient = deletion_closure_complex(table)
    full = [QMatrix.identity(ambient.dim(k)) for k in range(ambient.p_top + 1)]
    inf = infimum_complex(ambient, full)
    sup = supremum_complex(ambient, full)
    for k in range(ambient.p_top + 1):
        assert inf.dim(k) == ambient.dim(k)
        assert sup.dim(k) == ambient.dim(k)


def test_infimum_of_zero_is_zero():
    table = anchor_path_table(TRANSITIVE, 2)
    ambient = deletion_closure_complex(table)
    zero = [QMatrix(ambient.dim(k), 0) for k in range(ambient.p_top + 1)]
    assert all(d == 0 for d in (infimum_complex(ambient, zero).dim(k) for k in range(3)))
    assert all(d == 0 for d in (supremum_complex(ambient, zero).dim(k) for k in range(3)))


def _anchor_submodules(table):
    ambient = deletion_closure_complex(table)
    return ambient, [embed_paths(p, ambient.labels[k]) for k, p in enumerate(table)]


def test_omega_equals_infimum_of_anchor_spans(digraph_complexes):
    for g, c in digraph_complexes[:30]:
        table = [c.degrees[k].paths for k in range(c.p_top + 1)]
        ambient, submods = _anchor_submodules(table)
        inf = infimum_complex(ambient, submods)
        for k in range(c.p_top + 1):
            emb = embed_paths(table[k], ambient.labels[k]) @ c.degrees[k].omega
            assert qa.spans_equal(emb, inf.bases[k]), (g, k)


def test_infimum_supremum_same_homology(digraph_complexes, hypergraph_complexes):
    for _, c in digraph_complexes[:30]:
        table = [c.degrees[k].paths for k in range(c.p_top + 1)]
        ambient, submods = _anchor_submodules(table)
        assert infimum_complex(ambient, submods).betti_vector() == \
            supremum_complex(ambient, submods).betti_vector()
    for _, c in hypergraph_complexes[:20]:
        table = [c.degrees[k].paths for k in range(c.p_top + 1)]
        ambient, submods = _anchor_submodules(table)
        assert infimum_complex(ambient, submods).betti_vector() == \
            supremum_complex(ambient, submods).betti_vector()


def test_infimum_betti_matches_oracle():
    table = anchor_path_table(CYCLIC, 2)
    ambient, submods = _anchor_submodules(table)
    assert infimum_complex(ambient, submods).betti_vector() == oracle_betti(table)


def test_fast_degree2_generators_span_kernel(digraph_complexes):
    for g, c in digraph_complexes[:60]:
        fast = omega2_generators_fast(g, c.degrees[2].paths)
        assert qa.spans_equal(fast, c.degrees[2].omega), g


def test_fast_degree2_generators_hypergraph(hypergraph_complexes):
    for h, c in hypergraph_complexes[:40]:
        fast = omega2_generators_fast(symmetric_closure(essential_graph(h)), c.degrees[2].paths)
        assert qa.spans_equal(fast, c.degrees[2].omega), h


def test_build_complex_rejects_inconsistent_lists():
    # degree-1 list references a vertex missing from degree 0
    with pytest.raises(StructuralError):
        build_complex([[(0,)], [(0, 1)]])


def test_hypergraph_complex_two_triangles():
    h = Hypergraph.of(range(6), [(0, 1, 2), (3, 4, 5)])
    c = build_hypergraph_complex(h, 2)
    assert c.betti_vector() == [2, 0]
    assert c.boundary_rank(2) == 8
