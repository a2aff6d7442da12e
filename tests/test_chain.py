"""Invariant-subspace construction, boundaries, and subcomplex machinery."""

from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    boundary_singular_values,
    exact_boundary_square_sum,
    oracle_betti,
    oracle_betti_digraph,
    oracle_betti_hypergraph,
    oracle_omega_dims_digraph,
)
from pathdirac import (Digraph, Hypergraph, auxiliary_complex, boundary_of_path, dirac,
                       laplacian)
from pathdirac import rational as qa
from pathdirac import chain
from pathdirac.chain import (
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
from pathdirac.graphs import anchor_path_table, walk_digraph
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
    allowed, disallowed = split_boundary(table[1], table[0])
    assert disallowed.rows == 0 and allowed.rows == len(table[0])


def test_split_boundary_transitive_degree2_all_allowed():
    table = anchor_path_table(TRANSITIVE, 2)
    allowed, disallowed = split_boundary(table[2], table[1])
    assert disallowed.rows == 0
    assert allowed.to_rows() == [[1], [-1], [1]]  # (0,1) - (0,2) + (1,2), all edges


def test_split_boundary_cyclic_degree2_disallowed_rows():
    table = anchor_path_table(CYCLIC, 2)
    assert table[2] == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    _, disallowed = split_boundary(table[2], table[1])
    # rows (0,2), (1,0), (2,1) in sorted order: the middle deletion of each path,
    # which falls outside the edge set
    assert disallowed.to_rows() == [[-1, 0, 0], [0, -1, 0], [0, 0, -1]]


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


def test_build_complex_rejects_nonzero_composition():
    # the 2-path (0, 1, 0) is given the boundary (0, 1), whose own boundary is 1 - 0
    def boundary_of(path):
        return {(0, 1): 1} if path == (0, 1, 0) else boundary_of_path(path)

    paths = [[(0,), (1,)], [(0, 1), (1, 0)], [(0, 1, 0)]]
    with pytest.raises(StructuralError, match="boundary composition at degree 2 is nonzero"):
        build_complex(paths, boundary_of)


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


def test_boundary_over_an_identity_basis_is_its_image(digraph_corpus, hypergraph_corpus,
                                                     monkeypatch):
    """Degree 1 of a digraph or hypergraph closure has the identity basis, so degree 2's
    boundary is its image with no solve; degree 3 solves only over a non-identity basis."""
    solved = []
    real_solve = qa.solve
    monkeypatch.setattr(qa, "solve", lambda a, b: solved.append(a) or real_solve(a, b))
    graphs = [(g, build_digraph_complex) for g in digraph_corpus[:40]]
    graphs += [(h, build_hypergraph_complex) for h in hypergraph_corpus[:20]]
    for g, build in graphs:
        c = build(g, 2)
        assert solved == [] and c.degrees[2].boundary is c.degrees[2].image, g
        c = build(g, 3)
        omega2 = c.degrees[2].omega
        identity = omega2 == QMatrix.identity(len(c.degrees[2].paths))
        assert (c.degrees[3].boundary is c.degrees[3].image) == identity, g
        assert solved == ([] if identity else [omega2]), g
        solved.clear()


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


@pytest.fixture(scope="module")
def judged_degrees(digraph_complexes, molecule_stage_complexes):
    """Each degree k >= 1, with its complex, of the digraph corpus, of the complete
    digraph on 7 vertices, and of the 28 pair complexes of the 7-stage molecule grid."""
    k7 = Digraph.of(range(7), [(u, v) for u in range(7) for v in range(7) if u != v])
    stages = molecule_stage_complexes
    complexes = [c for _, c in digraph_complexes] + [build_digraph_complex(k7, 2)]
    complexes += [auxiliary_complex(stages, a, b)
                  for a in range(1, len(stages) + 1) for b in range(a, len(stages) + 1)]
    return [(c, k) for c in complexes for k in range(1, c.p_top + 1)]


def test_boundary_block_square_sum_is_exact(judged_degrees):
    """Σσ² of each float boundary block is the exact trace tr(G_k⁻¹ ∂ᵀ G_{k-1} ∂)."""
    for c, k in judged_degrees:
        d = c.degrees[k]
        exact = exact_boundary_square_sum(d)
        assert float(np.sum(d.boundary_ortho ** 2)) == pytest.approx(float(exact), rel=1e-9), k


def test_boundary_block_singular_values_match_the_cholesky_route(judged_degrees):
    """The float boundary block has the singular values of the Cholesky route, and
    exactly its degree's exact rank of them are nonzero."""
    for c, k in judged_degrees:
        d = c.degrees[k]
        judge = boundary_singular_values(d)
        got = np.linalg.svd(d.boundary_ortho, compute_uv=False)
        scale = max(1.0, judge.max(initial=0.0))
        np.testing.assert_allclose(got, judge, rtol=0, atol=1e-12 * scale)
        assert np.sum(judge > 1e-8 * scale) == c.boundary_rank(k)


def test_deletion_closure_minimal():
    table = anchor_path_table(CYCLIC, 2)
    ambient = deletion_closure_complex(table)
    assert ambient.degrees[0].paths == [(0,), (1,), (2,)]
    assert (0, 2) in ambient.degrees[1].paths  # deletion of (0,1,2) adds the missing pair
    for k in range(1, ambient.p_top + 1):
        prod = ambient.degrees[k - 1].boundary @ ambient.degrees[k].boundary if k >= 2 else None
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
    return ambient, [embed_paths(p, ambient.degrees[k].paths) for k, p in enumerate(table)]


def test_omega_equals_infimum_of_anchor_spans(digraph_complexes):
    for g, c in digraph_complexes[:30]:
        table = [c.degrees[k].paths for k in range(c.p_top + 1)]
        ambient, submods = _anchor_submodules(table)
        inf = infimum_complex(ambient, submods)
        for k in range(c.p_top + 1):
            emb = embed_paths(table[k], ambient.degrees[k].paths) @ c.degrees[k].omega
            assert qa.spans_equal(emb, inf.degrees[k].omega), (g, k)


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
        fast = omega2_generators_fast(walk_digraph(h), c.degrees[2].paths)
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


def test_subcomplex_boundary_must_land_in_the_subcomplex():
    """A degree-1 basis whose boundary leaves the degree-0 basis is refused as it is built."""
    ambient = build_digraph_complex(Digraph.of([0, 1], [(0, 1)]), 1)
    bases = [QMatrix.from_rows([[1], [0]]), QMatrix.identity(1)]
    with pytest.raises(StructuralError,
                       match=r"^linear system is inconsistent: target not in column span$"):
        chain._subcomplex(ambient, bases)
