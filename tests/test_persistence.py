"""Filtrations, auxiliary complexes, and persistent operators."""

import collections
import contextlib
import copy
import io
import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import molecule_filtration
from oracles import (
    _gauss_jordan_solve,
    auxiliary_bases,
    is_subspace,
    oracle_a_in_b,
    oracle_auxiliary_route,
    oracle_persistent_betti,
    persistent_laplacian_by_embedding,
    sympy_rank,
)
from pathdirac import (
    ChainComplex,
    Digraph,
    Filtration,
    Hypergraph,
    StageComplexes,
    WeightedDigraph,
    auxiliary_complex,
    dirac,
    distance_filtration,
    eigen_spectrum,
    feature_grid,
    laplacian,
    persistent_betti,
    persistent_dirac,
    persistent_laplacian,
)
from pathdirac import persistence
from pathdirac import rational as qa
from pathdirac.chain import build_digraph_complex, build_hypergraph_complex, split_boundary
from pathdirac.checks import check_dirac_identities, filtration_check_suite, pair_beta0
from pathdirac.cli import main
from pathdirac.errors import StructuralError
from pathdirac.rational import QMatrix

CYCLIC = Digraph.of([0, 1, 2], [(0, 1), (1, 2), (2, 0)])


def two_stage(edges_a, edges_b, vertices):
    f = Filtration.of([Digraph.of(vertices, edges_a), Digraph.of(vertices, edges_b)])
    return StageComplexes(f, 2)


def test_filtration_rejects_broken_nesting():
    a = Digraph.of([0, 1], [(0, 1)])
    b = Digraph.of([0, 1], [(1, 0)])
    with pytest.raises(StructuralError,
                       match="^filtration nesting violated: stage 2 lacks edge `0 1` of stage 1$"):
        Filtration.of([a, b])


def test_filtration_rejects_bad_thresholds():
    """`distance_filtration` is the library entry that takes thresholds."""
    wd = WeightedDigraph(Digraph.of([0, 1], [(0, 1)]), {(0, 1): 0.5})
    with pytest.raises(StructuralError, match="^thresholds must be strictly increasing$"):
        distance_filtration(wd, [1.0, 1.0])
    for bad in ([0.0, float("nan")], [0.0, float("inf")], [float("-inf"), 0.0]):
        with pytest.raises(StructuralError, match="^thresholds must be finite$"):
            distance_filtration(wd, bad)


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
                c_bases = auxiliary_bases(stages, aux, b)
                for k in range(aux.p_top + 1):
                    assert is_subspace(a_in_b[k], c_bases[k])


def test_auxiliary_boundary_lands_in_stage_a(filtration_stage_complexes):
    """The auxiliary boundary is a map into the stage-a space, and its rank there
    (the rank the persistent Laplacian's nullity uses) is the exact boundary rank.
    A rebuilt degree's own boundary, formed by `rational.solve`, lands in C_{k-1}
    and has the closed-form rank."""
    rebuilt = 0
    for stages in filtration_stage_complexes[:60]:
        n = len(stages)
        for a in range(1, n + 1):
            for b in range(a, n + 1):
                aux = auxiliary_complex(stages, a, b)
                assert isinstance(aux, ChainComplex)
                cb = stages.stage(b)
                a_in_b = oracle_a_in_b(stages, a, b)
                c_bases = auxiliary_bases(stages, aux, b)
                for k in range(1, aux.p_top + 1):
                    into_a = _gauss_jordan_solve(a_in_b[k - 1],
                                                 cb.degrees[k].boundary @ c_bases[k])
                    assert sympy_rank(into_a) == aux.boundary_rank(k)
                    if aux.degrees[k].stage is not None:
                        rebuilt += 1
                        assert qa.rank(aux.degrees[k].boundary) == aux.boundary_rank(k)
    assert rebuilt > 0


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


def assert_stage_images(stages: StageComplexes) -> None:
    """Each stage degree k >= 1 stores its image, the exact boundary in path
    coordinates: the allowed block times omega, and omega_{k-1} times the boundary."""
    for c in stages.complexes:
        for prev, d in zip(c.degrees, c.degrees[1:]):
            allowed, _ = split_boundary(d.paths, prev.paths)
            assert d.image == allowed @ d.omega
            assert d.image == prev.omega @ d.boundary


def assert_matches_preimage_route(stages: StageComplexes) -> int:
    """Every pair's bases equal the preimage route's, each closed-form boundary
    rank equals the sympy rank of that route's boundary (which its Gauss-Jordan
    re-expression forms only if ∂C_k lies in C_{k-1}), every composition of the
    route's boundaries is zero (the auxiliary complex neither forms nor checks
    one), and stage a's space lies in the auxiliary space at every degree."""
    assert_stage_images(stages)
    n = len(stages)
    for a in range(1, n + 1):
        for b in range(a, n + 1):
            aux = auxiliary_complex(stages, a, b)
            bases, boundaries = oracle_auxiliary_route(stages, a, b)
            c_bases = auxiliary_bases(stages, aux, b)
            assert c_bases == bases
            for k in range(1, aux.p_top + 1):
                assert aux.boundary_rank(k) == sympy_rank(boundaries[k])
            for k in range(2, aux.p_top + 1):
                assert (boundaries[k - 1] @ boundaries[k]).is_zero()
            for k, stage_a in enumerate(oracle_a_in_b(stages, a, b)):
                assert is_subspace(stage_a, c_bases[k])
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


def write_stage_list(directory, f: Filtration) -> Path:
    """A stage-list manifest of f: one file per stage, every vertex declared."""
    hyper = isinstance(f.stages[0], Hypergraph)
    names = []
    for i, stage in enumerate(f.stages, start=1):
        links = stage.hyperedges if hyper else stage.edges
        lines = ["# vertices: " + " ".join(map(str, stage.vertices))]
        lines += [" ".join(map(str, link)) for link in links]
        (directory / f"s{i}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        names.append(f"s{i}.txt")
    manifest = directory / "m.txt"
    kind = "hypergraph" if hyper else "digraph"
    manifest.write_text(f"# kind: {kind}\n" + "\n".join(names) + "\n", encoding="utf-8")
    return manifest


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(["0", "1"]))
def test_growing_manifests_pass_every_filtration_check(tmp_path_factory, seed, hyper, p):
    """Valid manifests, growing vertex sets included, pass every check line and exit 0."""
    f = growing_filtration(random.Random(seed), hyper)
    manifest = write_stage_list(tmp_path_factory.mktemp("growing"), f)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["check", str(manifest), "--kind", "filtration", "--p", p]) == 0
    lines = out.getvalue().splitlines()
    assert lines and all(line.startswith("PASS ") for line in lines[:-1]), lines


def test_molecule_pairs_share_stage_b_degrees(molecule_stage_complexes):
    """Every stage holds all atoms, so degree 1 of each pair is stage b's own
    degree, and on a = b every degree is."""
    stages = molecule_stage_complexes
    for a in range(1, len(stages) + 1):
        for b in range(a, len(stages) + 1):
            aux, cb = auxiliary_complex(stages, a, b), stages.stage(b)
            assert aux.degrees[1] is cb.degrees[1]
            if a == b:
                assert all(d is e for d, e in zip(aux.degrees, cb.degrees, strict=True))


def incident_vertex_enters(stages: StageComplexes, a: int, b: int) -> bool:
    """Some edge of stage b touches a vertex that stage a lacks."""
    new = {v for (v,) in stages.stage(b).degrees[0].paths} - {
        v for (v,) in stages.stage(a).degrees[0].paths}
    return any(new.intersection(edge) for edge in stages.stage(b).degrees[1].paths)


@pytest.mark.parametrize("hyper", [False, True], ids=["digraph", "hypergraph"])
def test_degree1_rebuilt_where_an_incident_vertex_enters(hyper):
    rng = random.Random(6006 + hyper)
    rebuilt = 0
    for _ in range(60):
        stages = StageComplexes(growing_filtration(rng, hyper), 2)
        pairs = [(a, b) for b in range(1, len(stages) + 1) for a in range(1, b + 1)]
        entering = [pair for pair in pairs if incident_vertex_enters(stages, *pair)]
        for a, b in pairs:
            shared = auxiliary_complex(stages, a, b).degrees[1] is stages.stage(b).degrees[1]
            assert shared == ((a, b) not in entering)
        if entering:
            assert_matches_preimage_route(stages)
            rebuilt += len(entering)
    assert rebuilt >= 60


def test_molecule_grid_builds_each_off_diagonal_degree2_once(molecule_stage_complexes, monkeypatch):
    """Degree 1 and every diagonal pair are reused, so only the 21 off-diagonal
    degree-2 bases are built."""
    calls = []

    class CountingDegreeData(persistence.DegreeData):
        def __init__(self, paths, *args, **kwargs):
            calls.append(paths)
            super().__init__(paths, *args, **kwargs)

    monkeypatch.setattr(persistence, "DegreeData", CountingDegreeData)
    feature_grid(molecule_stage_complexes, 1)
    assert len(calls) == 21
    assert all(any(paths is c.degrees[2].paths for c in molecule_stage_complexes.complexes)
               for paths in calls)


# Stage 2 adds 1->2, so its 2-path 0->1->2 leaves stage 1 and pair (1, 2) rebuilds
# degree 2 (dim 0) on stage 2's 3x1 allowed block; degrees 0 and 1 are stage 2's own.
SHARED_BLOCK_STAGES = [Digraph.of(range(3), [(0, 1), (0, 2)]),
                       Digraph.of(range(3), [(0, 1), (1, 2), (0, 2)])]


def test_auxiliary_complex_converts_no_float_block(monkeypatch):
    stages = StageComplexes(Filtration.of(SHARED_BLOCK_STAGES), 2)

    def refuse(self):
        raise AssertionError("a float block was formed")

    monkeypatch.setattr(qa.QMatrix, "to_float", refuse)
    aux = auxiliary_complex(stages, 1, 2)
    monkeypatch.undo()
    stage_2 = stages.stage(2).degrees[2]
    assert aux.degrees[2] is not stage_2 and aux.degrees[2].stage is stage_2
    assert aux.degrees[2].allowed_block.shape == (3, 1)
    assert aux.degrees[2].allowed_block is stage_2.allowed_block


def assert_auxiliary_blocks_are_stage_blocks(stages: StageComplexes) -> int:
    """Every auxiliary degree reads stage b's allowed block: the same array, so
    bit-identical and converted once per stage degree. Returns the rebuilt count."""
    rebuilt = 0
    for b in range(1, len(stages) + 1):
        for a in range(1, b + 1):
            aux = auxiliary_complex(stages, a, b)
            for d, e in zip(aux.degrees, stages.stage(b).degrees, strict=True):
                rebuilt += d is not e
                assert d.paths is e.paths and d.allowed is e.allowed
                assert d.allowed_block is e.allowed_block
                assert same_bits(d.allowed_block, e.allowed.to_float())
    return rebuilt


def test_auxiliary_blocks_are_stage_blocks(filtration_corpus):
    rebuilt = sum(assert_auxiliary_blocks_are_stage_blocks(StageComplexes(f, 2))
                  for f in filtration_corpus)
    rebuilt += assert_auxiliary_blocks_are_stage_blocks(StageComplexes(molecule_filtration(), 2))
    assert rebuilt >= 100


# (rows, cols) -> QMatrix.to_float calls in one molecule op (7 stages, p = 1), recorded
# while auxiliary_complex converted stage b's block itself: reading it lazily must keep
# converting each stage block exactly once
MOLECULE_OP_TO_FLOAT = {
    (9, 8): 1, (9, 9): 1, (17, 17): 1, (17, 19): 1, (19, 1): 1, (19, 2): 1, (24, 9): 1,
    (24, 17): 1, (24, 24): 9, (24, 29): 1, (24, 34): 1, (24, 43): 1, (24, 52): 1, (24, 60): 1,
    (29, 1): 1, (29, 2): 1, (29, 4): 1, (34, 34): 1, (34, 48): 1, (43, 43): 1, (43, 83): 1,
    (48, 1): 1, (48, 3): 1, (48, 5): 1, (48, 8): 1, (52, 52): 1, (52, 115): 1, (60, 60): 1,
    (60, 144): 1, (83, 7): 1, (83, 10): 1, (83, 12): 1, (83, 15): 1, (83, 20): 1, (115, 9): 1,
    (115, 12): 1, (115, 14): 1, (115, 18): 1, (115, 23): 1, (115, 28): 1, (144, 14): 1,
    (144, 17): 1, (144, 19): 1, (144, 23): 1, (144, 28): 1, (144, 33): 1, (144, 40): 1,
}


def test_molecule_op_converts_each_block_once(monkeypatch):
    shapes = collections.Counter()
    real = qa.QMatrix.to_float

    def counting(self):
        shapes[(self.rows, self.cols)] += 1
        return real(self)

    stages = StageComplexes(molecule_filtration(), 2)
    monkeypatch.setattr(qa.QMatrix, "to_float", counting)
    feature_grid(stages, 1)
    assert shapes == MOLECULE_OP_TO_FLOAT


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


def test_persistent_laplacian_equal_pair_matches_ordinary(filtration_stage_complexes,
                                                         molecule_stage_complexes):
    """The pair (m, m) gives stage m's own Laplacian, bit for bit: both take the down
    part from `down_laplacian` and form the up part by the same product."""
    cyclic = two_stage([(0, 1), (1, 2), (2, 0)], [(0, 1), (1, 2), (2, 0)], [0, 1, 2])
    for stages in [cyclic, *filtration_stage_complexes, molecule_stage_complexes]:
        for m in range(1, len(stages) + 1):
            aux = auxiliary_complex(stages, m, m)
            for n in range(2):
                pers = persistent_laplacian(stages.stage(m), aux, n)
                ordinary = laplacian(stages.stage(m), n)
                np.testing.assert_array_equal(pers.matrix, ordinary.matrix)
                assert pers.exact_nullity == ordinary.exact_nullity


def test_persistent_laplacian_vertices_only_stage_a():
    stages = two_stage([], [(0, 1), (2, 3)], [0, 1, 2, 3])
    aux = auxiliary_complex(stages, 1, 2)
    pers = persistent_laplacian(stages.stage(1), aux, 0)
    b_a = stages.stage(1).degrees[0].boundary_ortho
    assert not (b_a.T @ b_a).any()  # the down part, from stage a's boundary
    assert np.linalg.matrix_rank(pers.matrix) == 2  # rank of the boundary into stage a


def test_persistent_laplacian_matches_the_embedding_route(filtration_stage_complexes):
    """Stage a's rows of the auxiliary up block against stage a carried into stage b
    by a float 0/1 embedding, on every pair and n in {0, 1}."""
    for stages in filtration_stage_complexes:
        n_stages = len(stages)
        for a in range(1, n_stages + 1):
            for b in range(a, n_stages + 1):
                aux = auxiliary_complex(stages, a, b)
                for n in range(2):
                    pers = persistent_laplacian(stages.stage(a), aux, n)
                    judge = persistent_laplacian_by_embedding(stages.stage(a), aux, n)
                    np.testing.assert_allclose(pers.matrix, judge.matrix, rtol=0, atol=1e-12)
                    assert pers.exact_nullity == judge.exact_nullity


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
    results = check_dirac_identities(aux, [laplacian(aux, i) for i in range(aux.p_top)])
    assert all(r.passed for r in results), [r for r in results if not r.passed]
    line = next(r.detail for r in results if r.name == "dirac-nullity-identity-p1")
    exact, betti_sum, float_nullity = map(int, re.findall(r"\d+", line))
    assert float_nullity == exact == betti_sum
    d = dirac(aux, 1)
    assert eigen_spectrum(d.matrix, d.exact_nullity).zero_count() == exact == d.exact_nullity
    assert exact == sum(aux.betti(i) for i in range(2)) + aux.down_nullity(2)
    return exact


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
                    eta_pers = persistent_laplacian(stages.stage(a), aux, deg).exact_nullity
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
    """Pool threads give the grid that one thread does. Each molecule run builds
    its stages afresh to degree p + 1, so at p = 0 every stage's degree-1 rank is
    first formed inside the pool."""
    stages = two_stage([], [(0, 1), (1, 2), (2, 0)], [0, 1, 2])
    g1 = feature_grid(stages, 1, jobs=1)
    g2 = feature_grid(stages, 1, jobs=4)
    assert g1.cells == g2.cells
    for p in (0, 1):
        cells = [feature_grid(StageComplexes(molecule_filtration(), p + 1), p, jobs=jobs).cells
                 for jobs in (1, 3)]
        assert cells[0] == cells[1], p


def test_grid_leaves_shared_stage_data_unchanged(molecule_stage_complexes):
    """Every pair, in pool threads too, reads the same stage matrices, so
    neither auxiliary_complex nor the grid may write into their row dicts.
    The leave rows of a pair are stage b's own image rows."""
    rng = random.Random(8008)
    corpus = [molecule_stage_complexes] + [StageComplexes(growing_filtration(rng, hyper), 2)
                                           for hyper in (False, True) for _ in range(20)]
    for stages in corpus:
        shared = [m for c in stages.complexes for d in c.degrees
                  for m in (d.omega, d.boundary, d.image)]
        before = copy.deepcopy(shared)
        auxiliary_complex(stages, 1, len(stages))
        feature_grid(stages, 1, jobs=3)
        assert shared == before
        assert [m.to_rows() for m in shared] == [m.to_rows() for m in before]


def test_feature_grid_ranks_only_stage_boundaries(monkeypatch):
    """Each stage boundary is ranked once, no auxiliary boundary is ranked, and
    neither the grid nor the filtration checks solve for any boundary."""
    rng = random.Random(7007)
    edges = [(u, v) for u in range(7) for v in range(7) if u != v and rng.random() < 0.35]
    rng.shuffle(edges)
    random_growth = Filtration.of([Digraph.of(range(7), edges[: round(i * len(edges) / 7)])
                                   for i in range(1, 8)])
    # stage 2 adds vertex 2, so the pair (1, 2) rebuilds C_1 rather than reuse stage 2's
    growing_vertices = Filtration.of([Digraph.of([0, 1], [(0, 1)]), CYCLIC])
    calls = collections.Counter()
    for name in ("rank", "rref", "solve"):
        real = getattr(qa, name)
        monkeypatch.setattr(qa, name, lambda *args, real=real, name=name, **kwargs:
                            calls.update([name]) or real(*args, **kwargs))
    for f in (random_growth, growing_vertices):
        stages = StageComplexes(f, 2)
        calls.clear()
        grid = feature_grid(stages, 1)
        n = len(f)
        assert len(grid.cells) == n * (n + 1) // 2
        assert calls["rank"] == n * 2
        assert calls["rref"] > 0 and calls["solve"] == 0
        filtration_check_suite(stages, 1)
        assert calls["solve"] == 0


def by_threshold_reference(vertices, weighted_edges, thresholds):
    """Stage i, defined directly: every declared vertex and edge end, and the edges
    with some weight at most thresholds[i]."""
    ends = {x for u, v, _ in weighted_edges for x in (u, v)}
    return [Digraph(tuple(sorted({*vertices, *ends})),
                    tuple(sorted({(u, v) for u, v, w in weighted_edges if w <= t})))
            for t in thresholds]


@settings(max_examples=60, deadline=None)
@given(
    vertices=st.lists(st.integers(0, 7), max_size=4),
    weighted_edges=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.5]))
        .filter(lambda e: e[0] != e[1]), max_size=12),
    thresholds=st.lists(st.sampled_from([-1.0, 0.0, 0.25, 1.0, 2.0, 3.0]), min_size=1, max_size=4,
                        unique=True).map(sorted),
)
def test_filtration_by_threshold_matches_the_stage_definition(vertices, weighted_edges, thresholds):
    """Repeated edges, weights <= 0, undeclared edge ends and isolated declared vertices."""
    f = Filtration.by_threshold(vertices, weighted_edges, thresholds)
    assert list(f.stages) == by_threshold_reference(vertices, weighted_edges, thresholds)


def test_filtration_by_threshold_cases():
    # (0, 1) is listed twice and enters at its smaller weight; 2 is an undeclared end
    # of an edge that enters last; 9 is declared and isolated
    weighted = [(0, 1, 2.0), (1, 0, 0.0), (0, 1, -1.0), (1, 2, 3.0)]
    f = Filtration.by_threshold([9], weighted, [-1.0, 0.0, 3.0])
    assert [s.vertices for s in f.stages] == [(0, 1, 2, 9)] * 3
    assert [s.edges for s in f.stages] == [((0, 1),), ((0, 1), (1, 0)),
                                           ((0, 1), (1, 0), (1, 2))]


def test_feature_grid_rejects_unknown_feature():
    stages = StageComplexes(Filtration.of([CYCLIC]), 2)
    with pytest.raises(ValueError):
        feature_grid(stages, 1, ("volume",))


def test_feature_grid_rejects_repeated_feature():
    stages = StageComplexes(Filtration.of([CYCLIC]), 2)
    with pytest.raises(ValueError, match="repeated nullity"):
        feature_grid(stages, 1, ("nullity", "mean_pos", "nullity"))


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
    with pytest.raises(StructuralError, match="stage 2 lacks hyperedge `0 1` of stage 1"):
        Filtration.of([h1, h2])


def test_feature_grid_edge_added_between_stages():
    f = Filtration.of([Digraph.of([0, 1], []), Digraph.of([0, 1], [(0, 1)])])
    grid = feature_grid(StageComplexes(f, 2), 1)
    assert grid.cells[(1, 1)].nullity == 2
    assert grid.cells[(2, 2)].nullity == 1


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def assert_stages_equal_alone_built(stages: StageComplexes) -> None:
    """Stages built inside StageComplexes, which share path boundaries, equal
    each stage built on its own: exact data exactly, float data bit for bit."""
    for g, shared in zip(stages.filtration.stages, stages.complexes, strict=True):
        build = build_digraph_complex if isinstance(g, Digraph) else build_hypergraph_complex
        alone = build(g, stages.p_top)
        for k, (d, e) in enumerate(zip(shared.degrees, alone.degrees, strict=True)):
            assert (d.paths, d.omega, d.boundary, d.image) == (e.paths, e.omega, e.boundary, e.image)
            assert shared.boundary_rank(k) == alone.boundary_rank(k)
            assert same_bits(d.allowed_block, e.allowed_block)
            assert same_bits(d.ortho, e.ortho)
            assert same_bits(d.boundary_ortho, e.boundary_ortho)


@pytest.mark.parametrize("hyper", [False, True], ids=["digraph", "hypergraph"])
def test_shared_boundary_columns_change_no_stage_growing(hyper):
    rng = random.Random(9009 + hyper)
    for _ in range(40):
        assert_stages_equal_alone_built(StageComplexes(growing_filtration(rng, hyper), 2))


def test_shared_boundary_columns_change_no_stage_molecule(molecule_stage_complexes):
    assert_stages_equal_alone_built(molecule_stage_complexes)


def test_stages_form_each_path_boundary_once(monkeypatch):
    """Each walk's boundary is formed once per filtration, not once per stage
    that holds it, and degree 1 (no disallowed rows) takes no kernel."""
    formed, kernels = [], []
    real_boundary, real_kernel = persistence.boundary_of_path, qa.kernel_basis
    monkeypatch.setattr(persistence, "boundary_of_path",
                        lambda p: formed.append(p) or real_boundary(p))
    monkeypatch.setattr(qa, "kernel_basis", lambda m: kernels.append(m) or real_kernel(m))
    stages = StageComplexes(molecule_filtration(), 2)
    walks = {p for c in stages.complexes for d in c.degrees[1:] for p in d.paths}
    assert sorted(formed) == sorted(walks)
    assert len(kernels) == len(stages)  # one per stage, at degree 2
    for c in stages.complexes:
        assert c.degrees[1].omega == QMatrix.identity(c.dim(1))
        assert c.degrees[1].image is c.degrees[1].boundary


def test_molecule_grid_op_skips_unread_exact_work(monkeypatch):
    """One molecule-grid op makes at most 42 RREFs and 35 exact products."""
    counts = {"rref": 0, "matmul": 0}
    real_rref, real_matmul = qa.rref, QMatrix.__matmul__

    def rref(*args, **kwargs):
        counts["rref"] += 1
        return real_rref(*args, **kwargs)

    def matmul(x, y):
        counts["matmul"] += 1
        return real_matmul(x, y)

    monkeypatch.setattr(qa, "rref", rref)
    monkeypatch.setattr(QMatrix, "__matmul__", matmul)
    grid = feature_grid(StageComplexes(molecule_filtration(), 2), 1)
    assert len(grid.cells) == 28
    assert counts["rref"] <= 42 and counts["matmul"] <= 35
