"""Oracle-free metamorphic tests of ordinary complexes and the persistent grid.

Reversing every edge sends each path to its reverse, which maps the boundary
to ±∂ degree by degree, and relabelling vertices permutes the path bases.
Neither changes a complex, or any auxiliary complex, up to isomorphism, so
Betti numbers and exact nullities must agree exactly and spectra and spectral
features to rounding. A hypergraph has no edge direction to reverse, so it is
only relabelled. These tests reach graphs beyond the size the sympy oracles
can judge.
"""

import random

import numpy as np
import pytest

from conftest import molecule_filtration
from pathdirac import (
    Digraph,
    Filtration,
    FeatureSet,
    Hypergraph,
    StageComplexes,
    build_digraph_complex,
    build_hypergraph_complex,
    dirac,
    eigen_spectrum,
    feature_grid,
)


def relabelling(vertices, rng: random.Random) -> dict[int, int]:
    return dict(zip(vertices, rng.sample(range(100, 100 + 2 * len(vertices)), len(vertices))))


def reversed_digraph(g: Digraph, relabel: dict[int, int]) -> Digraph:
    return Digraph.of([relabel[v] for v in g.vertices], [(relabel[v], relabel[u]) for u, v in g.edges])


def reversed_and_relabelled(f: Filtration, rng: random.Random) -> Filtration:
    relabel = relabelling(f.stages[-1].vertices, rng)
    return Filtration.of([reversed_digraph(g, relabel) for g in f.stages])


def assert_same_grid(f: Filtration, rng: random.Random) -> None:
    names = FeatureSet.FIELDS
    want = feature_grid(StageComplexes(f, 2), 1, names)
    got = feature_grid(StageComplexes(reversed_and_relabelled(f, rng), 2), 1, names)
    assert got.cells.keys() == want.cells.keys()
    for pair, fs in want.cells.items():
        assert got.cells[pair].nullity == fs.nullity, pair
        np.testing.assert_allclose(
            [getattr(got.cells[pair], n) for n in names[1:]],
            [getattr(fs, n) for n in names[1:]], rtol=0, atol=1e-9, err_msg=str(pair),
        )


def test_molecule_grid_is_invariant_under_reversal_and_relabelling():
    assert_same_grid(molecule_filtration(), random.Random(8008))


def random_edges(rng: random.Random, n: int, chance: float) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < chance]


def random_large_filtration(rng: random.Random) -> Filtration:
    """10-14 vertices, each ordered pair an edge with chance 0.25, entering over 3-4 stages."""
    n = rng.randint(10, 14)
    edges = random_edges(rng, n, 0.25)
    rng.shuffle(edges)
    cuts = sorted(rng.randint(0, len(edges)) for _ in range(rng.randint(2, 3))) + [len(edges)]
    return Filtration.of([Digraph.of(range(n), edges[:c]) for c in cuts])


@pytest.mark.parametrize("seed", range(6))
def test_random_grid_is_invariant_under_reversal_and_relabelling(seed):
    rng = random.Random(9009 + seed)
    assert_same_grid(random_large_filtration(rng), rng)


def assert_same_complex(want, got) -> None:
    """Equal Betti numbers, and equal Dirac nullities and spectra, at p = 0..2."""
    assert got.betti_vector() == want.betti_vector()
    for p in range(3):
        d_want, d_got = dirac(want, p), dirac(got, p)
        assert d_got.exact_nullity == d_want.exact_nullity, p
        np.testing.assert_allclose(
            eigen_spectrum(d_got.matrix, d_got.exact_nullity).values,
            eigen_spectrum(d_want.matrix, d_want.exact_nullity).values,
            rtol=0, atol=1e-9, err_msg=f"p={p}",
        )


@pytest.mark.parametrize("seed", range(4))
def test_digraph_complex_is_invariant_under_reversal_and_relabelling(seed):
    rng = random.Random(7007 + seed)
    n = rng.randint(10, 14)
    g = Digraph.of(range(n), random_edges(rng, n, 0.25))
    assert_same_complex(build_digraph_complex(g, 3),
                        build_digraph_complex(reversed_digraph(g, relabelling(g.vertices, rng)), 3))


@pytest.mark.parametrize("seed", range(4))
def test_hypergraph_complex_is_invariant_under_relabelling(seed):
    rng = random.Random(6006 + seed)
    n = rng.randint(10, 14)
    h = Hypergraph.of(range(n), [rng.sample(range(n), rng.randint(1, 3)) for _ in range(n)])
    relabel = relabelling(h.vertices, rng)
    moved = Hypergraph.of([relabel[v] for v in h.vertices],
                          [[relabel[v] for v in e] for e in h.hyperedges])
    assert_same_complex(build_hypergraph_complex(h, 3), build_hypergraph_complex(moved, 3))
