"""Acceptance suite: worked reference values plus the randomized property gates.

Each test prints one `[acceptance] <name>: PASS` line on success; a failure
surfaces through the assertion itself. Randomized gates run over the shared
200-instance corpora and their combined runtime is asserted at the end.
"""

import inspect
import itertools
import time

import numpy as np
import pytest

from oracles import (
    auxiliary_bases,
    brute_anchor_paths_digraph,
    is_subspace,
    oracle_a_in_b,
    oracle_betti_digraph,
    oracle_omega_dims_digraph,
)
from test_molecules import ETHANOLIC_XYZ, THRESHOLDS, WATER_XYZ

from pathdirac import (
    Digraph,
    Filtration,
    Hypergraph,
    StageComplexes,
    auxiliary_complex,
    bond_digraph,
    build_digraph_complex,
    build_hypergraph_complex,
    dirac,
    distance_filtration,
    down_laplacian,
    eigen_spectrum,
    feature_grid,
    h1_rank,
    laplacian,
    parse_xyz,
    persistent_dirac,
    persistent_laplacian,
    walk_digraph,
)
from pathdirac import rational as qa
from pathdirac.chain import deletion_closure_complex, embed_paths, infimum_complex, supremum_complex
from pathdirac.checks import spectrum_symmetry_defect
from pathdirac.operators import features, float_rank

SQRT3 = np.sqrt(3.0)
ELAPSED: dict[str, float] = {}

CYCLIC = Digraph.of([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
TRANSITIVE = Digraph.of([0, 1, 2], [(0, 1), (1, 2), (0, 2)])

# 6x6 degree-0 Dirac of the directed 3-cycle under lexicographic path order:
# rows/cols (0), (1), (2), (0,1), (1,2), (2,0).
D0_REFERENCE = np.array(
    [
        [0, 0, 0, -1, 0, 1],
        [0, 0, 0, 1, -1, 0],
        [0, 0, 0, 0, 1, -1],
        [-1, 1, 0, 0, 0, 0],
        [0, -1, 1, 0, 0, 0],
        [1, 0, -1, 0, 0, 0],
    ],
    dtype=float,
)


def _record(name: str, started: float) -> None:
    ELAPSED[name] = time.monotonic() - started
    print(f"[acceptance] {name}: PASS ({ELAPSED[name]:.2f}s)")


def test_cyclic_triangle_reference_values():
    started = time.monotonic()
    c = build_digraph_complex(CYCLIC, 2)
    assert c.betti_vector() == [1, 1]
    for n in (0, 1):
        lap = laplacian(c, n)
        spec = eigen_spectrum(lap.matrix, lap.exact_nullity)
        np.testing.assert_allclose(spec.values, [0.0, 3.0, 3.0], atol=1e-9)
    d0 = dirac(c, 0)
    assert d0.exact_nullity == 2
    spec0 = eigen_spectrum(d0.matrix, d0.exact_nullity)
    np.testing.assert_allclose(
        spec0.values, sorted([0.0, 0.0, SQRT3, -SQRT3, SQRT3, -SQRT3]), atol=1e-9
    )
    assert time.monotonic() - started < 1.0
    _record("cyclic-triangle-reference-values", started)


def test_cyclic_triangle_degree1_dirac_stated_values():
    # An earlier target here was nullity 3 with the 7-value spectrum
    # {0,0,0,±√3,±√3}. It cannot hold: each 2-walk of the directed 3-cycle
    # has its own disallowed boundary term, so Ω2 = 0 and the degree-1
    # operator is the 6x6 degree-0 matrix. A 6-dimensional symmetric operator
    # has six eigenvalues, and the kernel identity gives nullity
    # β0 + β1 + dim ker ∂2 = 1 + 1 + 0 = 2. D1² = L0 ⊕ L1 with both spectra
    # {0, 3, 3}, so the spectrum is {-√3, -√3, 0, 0, √3, √3}.
    assert brute_anchor_paths_digraph(CYCLIC, 2) == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    omega_dims = oracle_omega_dims_digraph(CYCLIC, 2)
    assert omega_dims == [3, 3, 0]
    top_kernel = 0  # ker ∂2 lies inside Ω2 = 0
    expected_nullity = sum(oracle_betti_digraph(CYCLIC, 2)) + top_kernel
    expected_dim = sum(omega_dims)
    started = time.monotonic()
    c = build_digraph_complex(CYCLIC, 2)
    d1 = dirac(c, 1)
    # The degree-2 block is empty: the last two offsets coincide.
    assert d1.block_offsets == list(itertools.accumulate(omega_dims, initial=0))
    assert d1.matrix.shape == (expected_dim, expected_dim) == (6, 6)
    np.testing.assert_array_equal(d1.matrix, D0_REFERENCE)
    assert d1.exact_nullity == expected_nullity == 2
    spec1 = eigen_spectrum(d1.matrix, d1.exact_nullity)
    np.testing.assert_allclose(
        spec1.values, sorted([0.0, 0.0, SQRT3, -SQRT3, SQRT3, -SQRT3]), atol=1e-9
    )
    assert int(np.sum(np.abs(spec1.values) <= spec1.zero_threshold)) == 2
    assert time.monotonic() - started < 1.0
    _record("cyclic-triangle-degree1-dirac-stated-values", started)


def test_transitive_triangle_reference_values():
    started = time.monotonic()
    c = build_digraph_complex(TRANSITIVE, 2)
    assert c.betti_vector() == [1, 0]
    lap = laplacian(c, 1)
    np.testing.assert_allclose(
        eigen_spectrum(lap.matrix, lap.exact_nullity).values, [3.0, 3.0, 3.0], atol=1e-9
    )
    d1 = dirac(c, 1)
    assert d1.exact_nullity == 1
    spec = eigen_spectrum(d1.matrix, d1.exact_nullity)
    expected = sorted([0.0] + [SQRT3, -SQRT3] * 3)
    np.testing.assert_allclose(spec.values, expected, atol=1e-9)
    assert time.monotonic() - started < 1.0
    _record("transitive-triangle-reference-values", started)


def _equal_up_to_block_permutation(m: np.ndarray, ref: np.ndarray, sizes: list[int]) -> bool:
    """Equality after some simultaneous row/column permutation within blocks."""
    offsets = np.cumsum([0] + sizes)
    index_groups = [range(offsets[i], offsets[i + 1]) for i in range(len(sizes))]
    for perms in itertools.product(*(itertools.permutations(g) for g in index_groups)):
        order = [i for group in perms for i in group]
        if np.array_equal(m[np.ix_(order, order)], ref):
            return True
    return False


def test_degree0_dirac_matrix_and_square():
    started = time.monotonic()
    c = build_digraph_complex(CYCLIC, 2)
    d0 = dirac(c, 0)
    np.testing.assert_array_equal(d0.matrix, D0_REFERENCE)
    assert _equal_up_to_block_permutation(d0.matrix, D0_REFERENCE, [3, 3])
    square = d0.matrix @ d0.matrix
    l0 = laplacian(c, 0).matrix
    l1 = laplacian(c, 1).matrix
    expected = np.block([[l0, np.zeros((3, 3))], [np.zeros((3, 3)), l1]])
    np.testing.assert_allclose(square, expected, atol=1e-10)
    _record("degree0-dirac-matrix-and-square", started)


def test_forced_stage_pair_nullities():
    started = time.monotonic()
    stage1 = Digraph.of([0, 1, 2, 3], [])
    stage2 = Digraph.of([0, 1, 2, 3], [(0, 1), (2, 3)])
    stages = StageComplexes(Filtration.of([stage1, stage2]), 2)
    d11 = persistent_dirac(auxiliary_complex(stages, 1, 1), 1)
    d12 = persistent_dirac(auxiliary_complex(stages, 1, 2), 1)
    assert d11.exact_nullity == 4
    assert d12.exact_nullity == 2
    zero11 = eigen_spectrum(d11.matrix, d11.exact_nullity)
    assert int(np.sum(np.abs(zero11.values) <= zero11.zero_threshold)) == 4
    _record("forced-stage-pair-nullities", started)


def test_two_triangle_hypergraph_rank_arithmetic():
    started = time.monotonic()
    h = Hypergraph.of(range(6), [(0, 1, 2), (3, 4, 5)])
    closure = walk_digraph(h)
    assert (len(closure.vertices), len(closure.edges), len(closure.components())) == (6, 12, 2)
    assert h1_rank(closure, 0) == 8
    c = build_hypergraph_complex(h, 2)
    assert c.boundary_rank(2) == 8
    assert h1_rank(closure, c.boundary_rank(2)) == 0
    assert c.betti(1) == 0
    _record("two-triangle-hypergraph-rank-arithmetic", started)


def test_property_dirac_spectrum_symmetry(digraph_complexes, hypergraph_complexes):
    started = time.monotonic()
    for _, c in digraph_complexes + hypergraph_complexes:
        for p in range(c.p_top):
            d = dirac(c, p)
            spec = eigen_spectrum(d.matrix, d.exact_nullity)
            assert spectrum_symmetry_defect(spec) <= 1e-8
    _record("property-dirac-spectrum-symmetry", started)


def test_property_nullity_identity_exact(digraph_complexes, hypergraph_complexes):
    started = time.monotonic()
    for _, c in digraph_complexes + hypergraph_complexes:
        for p in range(c.p_top):
            d = dirac(c, p)
            betti_sum = sum(c.betti(i) for i in range(p + 1)) + c.down_nullity(p + 1)
            assert d.exact_nullity == betti_sum
            assert d.matrix.shape[0] - float_rank(d.matrix) == betti_sum
    _record("property-nullity-identity-exact", started)


def test_property_degree1_rank_formulas(digraph_complexes, hypergraph_complexes):
    started = time.monotonic()
    for g, c in digraph_complexes:
        assert h1_rank(g, c.boundary_rank(2)) == c.betti(1)
    for h, c in hypergraph_complexes:
        assert h1_rank(walk_digraph(h), c.boundary_rank(2)) == c.betti(1)
    _record("property-degree1-rank-formulas", started)


def test_property_embedded_homology_identity(digraph_complexes, hypergraph_complexes):
    started = time.monotonic()
    for _, c in digraph_complexes[:120] + hypergraph_complexes[:80]:
        table = [c.degrees[k].paths for k in range(c.p_top + 1)]
        ambient = deletion_closure_complex(table)
        submods = [embed_paths(p, ambient.degrees[k].paths) for k, p in enumerate(table)]
        inf = infimum_complex(ambient, submods)
        sup = supremum_complex(ambient, submods)
        assert inf.betti_vector() == sup.betti_vector()
    _record("property-embedded-homology-identity", started)


def test_property_persistence_identities(filtration_stage_complexes):
    started = time.monotonic()
    for stages in filtration_stage_complexes:
        n_stages = len(stages)
        for a in range(1, n_stages + 1):
            for b in range(a, n_stages + 1):
                aux = auxiliary_complex(stages, a, b)
                c_bases = auxiliary_bases(stages, aux, b)
                for k, stage_a in enumerate(oracle_a_in_b(stages, a, b)):
                    assert is_subspace(stage_a, c_bases[k])
                assert aux.betti(0) == stages.stage(b).betti(0)
                for deg in (0, 1):
                    eta_pers = persistent_laplacian(stages.stage(a), aux, deg).exact_nullity
                    assert stages.stage(a).betti(deg) >= eta_pers
                    assert aux.betti(deg) >= eta_pers
                if a == b:
                    d_pers = persistent_dirac(aux, 1)
                    d_ord = dirac(stages.stage(b), 1)
                    assert d_pers.exact_nullity == d_ord.exact_nullity
                    s1 = eigen_spectrum(d_pers.matrix, d_pers.exact_nullity).values
                    s2 = eigen_spectrum(d_ord.matrix, d_ord.exact_nullity).values
                    if len(s1):
                        np.testing.assert_allclose(s1, s2, atol=1e-8)
    _record("property-persistence-identities", started)


def test_property_exact_float_nullity_agreement(digraph_complexes, hypergraph_complexes):
    started = time.monotonic()
    for _, c in digraph_complexes + hypergraph_complexes:
        operators = [laplacian(c, n) for n in range(c.p_top)]
        operators.append(down_laplacian(c, c.p_top))
        operators.extend(dirac(c, p) for p in range(c.p_top))
        for op in operators:
            spec = eigen_spectrum(op.matrix, op.exact_nullity)
            zero_count = int(np.sum(np.abs(spec.values) <= spec.zero_threshold))
            assert zero_count == op.exact_nullity
            assert op.matrix.shape[0] - float_rank(op.matrix) == op.exact_nullity
    _record("property-exact-float-nullity-agreement", started)


PROPERTY_GATES = {
    "property-dirac-spectrum-symmetry": test_property_dirac_spectrum_symmetry,
    "property-nullity-identity-exact": test_property_nullity_identity_exact,
    "property-degree1-rank-formulas": test_property_degree1_rank_formulas,
    "property-embedded-homology-identity": test_property_embedded_homology_identity,
    "property-persistence-identities": test_property_persistence_identities,
    "property-exact-float-nullity-agreement": test_property_exact_float_nullity_agreement,
}


def test_property_runtime_budget(request):
    # Gates that did not run earlier in this session (the budget test run
    # alone or under a selection) are run here, with their own fixtures.
    for name, gate in PROPERTY_GATES.items():
        if name not in ELAPSED:
            gate(*(request.getfixturevalue(arg) for arg in inspect.signature(gate).parameters))
    missing = [name for name in PROPERTY_GATES if name not in ELAPSED]
    assert not missing, f"property gates not recorded: {missing}"
    total = sum(ELAPSED[name] for name in PROPERTY_GATES)
    assert total < 60.0, f"property suite took {total:.1f}s"
    gates = len(PROPERTY_GATES)
    print(f"[acceptance] property-suite-runtime: PASS ({total:.2f}s over {gates} gates)")


def test_persistent_laplacian_dirac_non_redundancy():
    # Search the seeded corpus for a persistent Laplacian eigenvalue whose
    # square roots are absent from the matching persistent Dirac spectrum.
    import random

    started = time.monotonic()
    rng = random.Random(20240901)
    found = False
    for _ in range(200):
        n = rng.randint(2, 5)
        all_edges = [(u, v) for u in range(n) for v in range(n) if u != v]
        rng.shuffle(all_edges)
        k = rng.randint(1, len(all_edges))
        cut = rng.randint(0, k - 1)
        stages = StageComplexes(
            Filtration.of(
                [Digraph.of(range(n), all_edges[:cut]), Digraph.of(range(n), all_edges[:k])]
            ),
            2,
        )
        aux = auxiliary_complex(stages, 1, 2)
        lap = persistent_laplacian(stages.stage(1), aux, 1)
        d = persistent_dirac(aux, 1)
        spec_l = eigen_spectrum(lap.matrix, lap.exact_nullity)
        spec_d = eigen_spectrum(d.matrix, d.exact_nullity)
        for mu in spec_l.positives():
            root = np.sqrt(mu)
            gap = (
                np.min(np.abs(np.abs(spec_d.values) - root))
                if len(spec_d.values)
                else np.inf
            )
            if gap > 1e-6 * max(1.0, root):
                found = True
                break
        if found:
            break
    assert found, "no corpus pair separates persistent Laplacian and Dirac spectra"
    _record("persistent-laplacian-dirac-non-redundancy", started)


def test_molecular_pipeline_water_and_fragment():
    started = time.monotonic()
    water = parse_xyz(WATER_XYZ)
    wd = bond_digraph(water)
    filtration = distance_filtration(wd, [0.5, 0.97])
    stages = StageComplexes(filtration, 2)
    assert stages.stage(2).betti_vector() == [1, 0]
    grid = feature_grid(stages, 1)
    diagonal = [grid.cells[(m, m)].nullity for m in range(1, 3)]
    assert diagonal == sorted(diagonal, reverse=True)

    fragment = parse_xyz(ETHANOLIC_XYZ)
    wd2 = bond_digraph(fragment)
    filtration2 = distance_filtration(wd2, THRESHOLDS)
    assert len(filtration2) == 5
    elements = [a.element for a in fragment.atoms]
    stage2 = filtration2.stages[1]
    assert stage2.edges and all(
        {elements[u], elements[v]} == {"H", "O"} for u, v in stage2.edges
    )
    stages2 = StageComplexes(filtration2, 2)
    grid2 = feature_grid(stages2, 1)
    assert grid2.cells[(1, 1)].nullity == len(fragment.atoms)
    diag2 = [grid2.cells[(m, m)].nullity for m in range(1, 6)]
    assert diag2 == sorted(diag2, reverse=True)
    _record("molecular-pipeline-water-and-fragment", started)
