"""Filtrations, auxiliary complexes, and persistent operators."""

import copy
import random

import numpy as np
import pytest

from oracles import (
    _gauss_jordan_solve,
    is_subspace,
    oracle_a_in_b,
    oracle_auxiliary_route,
    oracle_persistent_betti,
    sympy_rank,
)
from pathdirac import (
    ChainComplex,
    Digraph,
    Filtration,
    Hypergraph,
    StageComplexes,
    auxiliary_complex,
    dirac,
    eigen_spectrum,
    feature_grid,
    laplacian,
    persistent_betti,
    persistent_dirac,
    persistent_laplacian,
    verify_dirac_square,
)
from pathdirac import rational as qa
from pathdirac.checks import pair_beta0
from pathdirac.errors import StructuralError

CYCLIC = Digraph.of([0, 1, 2], [(0, 1), (1, 2), (2, 0)])


def two_stage(edges_a, edges_b, vertices):
    f = Filtration.of([Digraph.of(vertices, edges_a), Digraph.of(vertices, edges_b)])
    return StageComplexes(f, 2)


def test_filtration_rejects_broken_nesting():
    a = Digraph.of([0, 1], [(0, 1)])
    b = Digraph.of([0, 1], [(1, 0)])
    with pytest.raises(StructuralError):
        Filtration.of([a, b])


def test_filtration_rejects_bad_thresholds():
    a = Digraph.of([0, 1], [])
    b = Digraph.of([0, 1], [(0, 1)])
    with pytest.raises(StructuralError):
        Filtration.of([a, b], thresholds=[1.0, 1.0])
    with pytest.raises(StructuralError):
        Filtration.of([a, b], thresholds=[1.0])
    for bad in ([0.0, float("nan")], [0.0, float("inf")], [float("-inf"), 0.0]):
        with pytest.raises(StructuralError):
            Filtration.of([a, b], thresholds=bad)


def test_filtration_rejects_mixed_kinds():
    from pathdirac import Hypergraph

    with pytest.raises(StructuralError):
        Filtration.of([Digraph.of([0], []), Hypergraph.of([0], [(0,)])])


def test_auxiliary_equal_pair_is_whole_stage():
    stages = two_stage([(0, 1), (1, 2), (2, 0)], [(0, 1), (1, 2), (2, 0)], [0, 1, 2])
    aux = auxiliary_complex(stages, 1, 1)
    for k in range(3):
        assert aux.dim(k) == stages.stage(1).dim(k)
        assert aux.degrees[k].boundary == stages.stage(1).degrees[k].boundary


def test_auxiliary_vertices_only_smaller_stage():
    # same vertex set, so the degree-0 spaces agree and C_1 is everything
    stages = two_stage([], [(0, 1), (2, 3)], [0, 1, 2, 3])
    aux = auxiliary_complex(stages, 1, 2)
    assert aux.dim(1) == stages.stage(2).dim(1)


def test_auxiliary_chain_with_growing_vertices():
    a = Digraph.of([0, 1], [(0, 1)])
    b = Digraph.of([0, 1, 2], [(0, 1), (1, 2)])
    stages = StageComplexes(Filtration.of([a, b]), 2)
    aux = auxiliary_complex(stages, 1, 2)
    # only the first edge has boundary inside span{(0), (1)}
    assert aux.dim(1) == 1
    assert aux.dim(0) == 3


def test_sandwich_containment_on_corpus(filtration_stage_complexes):
    for stages in filtration_stage_complexes[:60]:
        n = len(stages)
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                aux = auxiliary_complex(stages, a, b)
                a_in_b = oracle_a_in_b(stages, a, b)
                for k in range(aux.p_top + 1):
                    assert is_subspace(a_in_b[k], aux.c_bases[k])


def test_auxiliary_boundary_lands_in_stage_a(filtration_stage_complexes):
    """The auxiliary boundary is a map into the stage-a space, and its rank there
    (the rank the persistent Laplacian's nullity uses) is the exact boundary rank."""
    for stages in filtration_stage_complexes[:60]:
        n = len(stages)
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                aux = auxiliary_complex(stages, a, b)
                assert isinstance(aux, ChainComplex)
                cb = stages.stage(b)
                a_in_b = oracle_a_in_b(stages, a, b)
                for k in range(1, aux.p_top + 1):
                    into_a = _gauss_jordan_solve(a_in_b[k - 1],
                                                 cb.degrees[k].boundary @ aux.c_bases[k])
                    assert sympy_rank(into_a) == aux.boundary_rank(k)


def growing_filtration(rng: random.Random, hyper: bool) -> Filtration:
    """Nested stages over vertex sets range(s_1) <= range(s_2) <= ...; each
    candidate edge enters at a random stage once all its vertices exist."""
    sizes = sorted(rng.randint(1, 5) for _ in range(rng.randint(2, 3)))
    n = sizes[-1]
    if hyper:
        candidates = [tuple(rng.sample(range(n), rng.randint(1, min(3, n)))) for _ in range(4)]
    else:
        candidates = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.4]
    birth = {}
    for e in candidates:
        first = next(i for i, s in enumerate(sizes) if max(e) < s)
        birth[e] = rng.randint(first, len(sizes))  # len(sizes): never enters
    make = Hypergraph.of if hyper else Digraph.of
    return Filtration.of(
        [make(range(s), [e for e in candidates if birth[e] <= i]) for i, s in enumerate(sizes)]
    )


def assert_matches_preimage_route(stages: StageComplexes) -> int:
    """Every pair's bases and exact boundaries equal the preimage route's, each
    closed-form boundary rank equals the sympy rank of that route's boundary, and
    stage a's space lies in the auxiliary space at every degree."""
    n = len(stages)
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            aux = auxiliary_complex(stages, a, b)
            bases, boundaries = oracle_auxiliary_route(stages, a, b)
            assert aux.c_bases == bases
            assert aux.boundaries == boundaries
            for k in range(1, aux.p_top + 1):
                assert aux.boundary_rank(k) == sympy_rank(boundaries[k])
            for k, stage_a in enumerate(oracle_a_in_b(stages, a, b)):
                assert is_subspace(stage_a, aux.c_bases[k])
    return n * (n + 1) // 2


def test_auxiliary_complex_matches_preimage_route_on_corpus(filtration_stage_complexes):
    assert sum(map(assert_matches_preimage_route, filtration_stage_complexes)) >= 600


@pytest.mark.parametrize("hyper", [False, True], ids=["digraph", "hypergraph"])
def test_auxiliary_complex_matches_preimage_route_growing(hyper):
    rng = random.Random(5005 + hyper)
    pairs = sum(assert_matches_preimage_route(StageComplexes(growing_filtration(rng, hyper), 2))
                for _ in range(60))
    assert pairs >= 180


def test_auxiliary_complex_matches_preimage_route_on_molecule(molecule_stage_complexes):
    assert assert_matches_preimage_route(molecule_stage_complexes) == 28


def closed_form_beta0(g_a, g_b) -> int:
    """|V(b) \\ V(a)| plus the components of stage b that meet V(a)."""
    links = g_b.edges if isinstance(g_b, Digraph) else g_b.hyperedges
    adj = {v: set() for v in g_b.vertices}
    for e in links:
        for u in e:
            adj[u].update(e)
    seen, meeting = set(), 0
    for start in g_b.vertices:
        if start in seen:
            continue
        comp, todo = {start}, [start]
        while todo:
            for w in adj[todo.pop()] - comp:
                comp.add(w)
                todo.append(w)
        seen |= comp
        meeting += bool(comp & set(g_a.vertices))
    return len(set(g_b.vertices) - set(g_a.vertices)) + meeting


@pytest.mark.parametrize("hyper", [False, True], ids=["digraph", "hypergraph"])
def test_auxiliary_beta0_with_growing_vertex_sets(hyper):
    rng = random.Random(4004 + hyper)
    grew = 0
    for _ in range(60):
        f = growing_filtration(rng, hyper)
        stages = StageComplexes(f, 1)
        for a in range(1, len(f) + 1):
            for b in range(a, len(f) + 1):
                g_a, g_b = f.stages[a - 1], f.stages[b - 1]
                expected = closed_form_beta0(g_a, g_b)
                assert auxiliary_complex(stages, a, b).betti(0) == expected
                assert pair_beta0(g_a, g_b) == expected
                grew += len(g_b.vertices) > len(g_a.vertices)
    assert grew >= 30


def test_persistent_laplacian_equal_pair_matches_ordinary():
    stages = two_stage([(0, 1), (1, 2), (2, 0)], [(0, 1), (1, 2), (2, 0)], [0, 1, 2])
    aux = auxiliary_complex(stages, 1, 1)
    for n in range(2):
        pers = persistent_laplacian(aux, n)
        ordinary = laplacian(stages.stage(1), n)
        np.testing.assert_allclose(pers.matrix, ordinary.matrix, atol=1e-12)
        assert pers.exact_nullity == ordinary.exact_nullity


def test_persistent_laplacian_vertices_only_stage_a():
    stages = two_stage([], [(0, 1), (2, 3)], [0, 1, 2, 3])
    aux = auxiliary_complex(stages, 1, 2)
    pers = persistent_laplacian(aux, 0)
    assert not pers.down.any()
    assert np.linalg.matrix_rank(pers.up) == 2  # rank of the boundary into stage a


def test_persistent_dirac_example_stage_values():
    stages = two_stage([], [(0, 1), (2, 3)], [0, 1, 2, 3])
    d11 = persistent_dirac(auxiliary_complex(stages, 1, 1), 1)
    assert d11.exact_nullity == 4
    assert d11.matrix.shape == (4, 4)
    d12 = persistent_dirac(auxiliary_complex(stages, 1, 2), 1)
    assert d12.exact_nullity == 2


def test_persistent_dirac_equal_pair_spectra(filtration_stage_complexes):
    for stages in filtration_stage_complexes[:40]:
        for m in range(1, len(stages) + 1):
            aux = auxiliary_complex(stages, m, m)
            d_pers = persistent_dirac(aux, 1)
            d_ord = dirac(stages.stage(m), 1)
            s1 = eigen_spectrum(d_pers.matrix, d_pers.exact_nullity).values
            s2 = eigen_spectrum(d_ord.matrix, d_ord.exact_nullity).values
            assert s1.shape == s2.shape
            if len(s1):
                np.testing.assert_allclose(s1, s2, atol=1e-8)
            assert d_pers.exact_nullity == d_ord.exact_nullity


def _persistent_nullity(aux) -> int:
    """Exact D_1 nullity of the auxiliary complex, checked against both numeric routes."""
    report = verify_dirac_square(aux, 1)
    assert report.float_nullity == report.exact_nullity
    assert report.zero_count == report.exact_nullity
    assert report.exact_nullity == sum(aux.betti(i) for i in range(2)) + aux.down_nullity(2)
    return report.exact_nullity


def test_persistent_nullity_identity_cyclic_equal_pair():
    stages = StageComplexes(Filtration.of([CYCLIC, CYCLIC]), 2)
    # both routes computed the identity; no hand value is asserted here
    _persistent_nullity(auxiliary_complex(stages, 1, 2))


def test_persistent_nullity_identity_vertices_only():
    stages = two_stage([], [], [0, 1, 2, 3, 4])
    assert _persistent_nullity(auxiliary_complex(stages, 1, 2)) == 5


def test_monotone_nullities_on_corpus(filtration_stage_complexes):
    for stages in filtration_stage_complexes[:60]:
        n = len(stages)
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                aux = auxiliary_complex(stages, a, b)
                for deg in range(2):
                    eta_pers = persistent_laplacian(aux, deg).exact_nullity
                    assert stages.stage(a).betti(deg) >= eta_pers
                    assert aux.betti(deg) >= eta_pers


def test_beta0_pair_equals_stage_m_on_corpus(filtration_stage_complexes):
    for stages in filtration_stage_complexes[:80]:
        n = len(stages)
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                aux = auxiliary_complex(stages, a, b)
                assert aux.betti(0) == stages.stage(b).betti(0)


def test_persistent_betti_equal_pair_is_betti():
    stages = StageComplexes(Filtration.of([CYCLIC, CYCLIC]), 2)
    assert persistent_betti(stages, 1, 1, 0) == 1
    assert persistent_betti(stages, 1, 1, 1) == 1


def test_persistent_betti_component_merge():
    stages = two_stage([], [(0, 1)], [0, 1])
    assert persistent_betti(stages, 1, 2, 0) == 1


def test_persistent_betti_chord_added():
    chord = Digraph.of([0, 1, 2], [(0, 1), (1, 2), (2, 0), (0, 2)])
    stages = StageComplexes(Filtration.of([CYCLIC, chord]), 2)
    got = persistent_betti(stages, 1, 2, 1)
    assert got == oracle_persistent_betti(CYCLIC, chord, 1) == 1


def test_persistent_betti_matches_oracle_on_corpus(filtration_stage_complexes, filtration_corpus):
    for filtration, stages in list(zip(filtration_corpus, filtration_stage_complexes))[:25]:
        n = len(stages)
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                for deg in range(2):
                    got = persistent_betti(stages, a, b, deg)
                    want = oracle_persistent_betti(
                        filtration.stages[a - 1], filtration.stages[b - 1], deg
                    )
                    assert got == want


def test_feature_grid_single_stage():
    stages = StageComplexes(Filtration.of([CYCLIC]), 2)
    grid = feature_grid(stages, 1)
    assert set(grid.cells) == {(1, 1)}
    d = dirac(stages.stage(1), 1)
    fs = grid.cells[(1, 1)]
    assert fs.nullity == d.exact_nullity


def test_feature_grid_example_stage_cells():
    stages = two_stage([], [(0, 1), (2, 3)], [0, 1, 2, 3])
    grid = feature_grid(stages, 1)
    assert {pair: fs.nullity for pair, fs in grid.cells.items()} == {
        (1, 1): 4, (1, 2): 2, (2, 2): 2,
    }


def test_feature_grid_diagonal_matches_ordinary(filtration_stage_complexes):
    for stages in filtration_stage_complexes[:15]:
        grid = feature_grid(stages, 1)
        for m in range(1, len(stages) + 1):
            d = dirac(stages.stage(m), 1)
            fs = grid.cells[(m, m)]
            ref = eigen_spectrum(d.matrix, d.exact_nullity)
            from pathdirac.operators import features as spectral_features

            want = spectral_features(ref)
            assert fs.nullity == want.nullity
            np.testing.assert_allclose(
                [fs.mean_pos, fs.gen_mean], [want.mean_pos, want.gen_mean], atol=1e-10
            )


def test_feature_grid_jobs_deterministic():
    stages = two_stage([], [(0, 1), (1, 2), (2, 0)], [0, 1, 2])
    g1 = feature_grid(stages, 1, jobs=1)
    g2 = feature_grid(stages, 1, jobs=4)
    assert g1.rows() == g2.rows()


def test_grid_leaves_shared_stage_data_unchanged(molecule_stage_complexes):
    """Every pair, in pool threads too, reads the same stage matrices, so
    neither auxiliary_complex nor the grid may write into their row dicts."""
    stages = molecule_stage_complexes
    shared = [m for c in stages.complexes for d in c.degrees for m in (d.omega, d.boundary)]
    before = copy.deepcopy(shared)
    auxiliary_complex(stages, 1, len(stages))
    feature_grid(stages, 1, jobs=3)
    assert shared == before
    assert [m.to_rows() for m in shared] == [m.to_rows() for m in before]


def test_feature_grid_ranks_only_stage_boundaries(monkeypatch):
    """Each stage boundary is ranked once, no auxiliary boundary is ranked, and
    no solve (stage or auxiliary boundary) runs Gauss-Jordan."""
    rng = random.Random(7007)
    edges = [(u, v) for u in range(7) for v in range(7) if u != v and rng.random() < 0.35]
    rng.shuffle(edges)
    f = Filtration.of([Digraph.of(range(7), edges[: round(i * len(edges) / 7)])
                       for i in range(1, 8)])
    calls = {"rank": 0, "rref": 0, "rref_in_solve": 0}
    in_solve = [False]
    real_rank, real_rref, real_solve = qa.rank, qa.rref, qa.solve

    def rank(m):
        calls["rank"] += 1
        return real_rank(m)

    def rref(m):
        calls["rref"] += 1
        calls["rref_in_solve"] += in_solve[0]
        return real_rref(m)

    def solve(a, b):
        in_solve[0] = True
        try:
            return real_solve(a, b)
        finally:
            in_solve[0] = False

    monkeypatch.setattr(qa, "rank", rank)
    monkeypatch.setattr(qa, "rref", rref)
    monkeypatch.setattr(qa, "solve", solve)
    grid = feature_grid(StageComplexes(f, 2), 1)
    assert len(grid.cells) == 28
    assert calls["rank"] == 7 * 2
    assert calls["rref"] > 0 and calls["rref_in_solve"] == 0


def test_feature_grid_rejects_unknown_feature():
    stages = StageComplexes(Filtration.of([CYCLIC]), 2)
    with pytest.raises(ValueError):
        feature_grid(stages, 1, ("volume",))


def test_persistent_dirac_needs_degree():
    stages = StageComplexes(Filtration.of([CYCLIC]), 1)
    aux = auxiliary_complex(stages, 1, 1)
    with pytest.raises(ValueError):
        persistent_dirac(aux, 1)


def test_hypergraph_filtration_grid():
    from pathdirac import Hypergraph

    h1 = Hypergraph.of(range(4), [(0,), (1,), (2,), (3,)])
    h2 = Hypergraph.of(range(4), [(0,), (1,), (2,), (3,), (0, 1), (2, 3)])
    h3 = Hypergraph.of(range(4), [(0,), (1,), (2,), (3,), (0, 1), (2, 3), (0, 1, 2)])
    stages = StageComplexes(Filtration.of([h1, h2, h3]), 2)
    grid = feature_grid(stages, 1)
    assert grid.cells[(1, 1)].nullity == 4
    # each pair hyperedge is a reciprocal 2-cycle: beta0 = 2, beta1 = 2 at stage 2
    assert stages.stage(2).betti_vector() == [2, 2]
    for m in range(1, 4):
        d = dirac(stages.stage(m), 1)
        assert grid.cells[(m, m)].nullity == d.exact_nullity
    for (n, m), fs in grid.cells.items():
        aux = auxiliary_complex(stages, n, m)
        assert aux.betti(0) == stages.stage(m).betti(0)


def test_hypergraph_filtration_rejects_broken_nesting():
    from pathdirac import Hypergraph

    h1 = Hypergraph.of(range(3), [(0, 1)])
    h2 = Hypergraph.of(range(3), [(1, 2)])
    with pytest.raises(StructuralError):
        Filtration.of([h1, h2])


def test_feature_grid_edge_added_between_stages():
    f = Filtration.of([Digraph.of([0, 1], []), Digraph.of([0, 1], [(0, 1)])])
    grid = feature_grid(StageComplexes(f, 2), 1)
    assert grid.cells[(1, 1)].nullity == 2
    assert grid.cells[(2, 2)].nullity == 1
