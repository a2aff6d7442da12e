"""Oracle-free metamorphic tests of the persistent Dirac feature grid.

Reversing every edge sends each path to its reverse, which maps the boundary
to ±∂ degree by degree, and relabelling vertices permutes the path bases.
Neither changes any auxiliary complex up to isomorphism, so the grid's exact
nullities must agree exactly and its spectral features to rounding. These
tests reach filtrations beyond the size the sympy oracles can judge.
"""

import random

import numpy as np
import pytest

from conftest import molecule_filtration
from pathdirac import Digraph, Filtration, FeatureSet, feature_grid


def reversed_and_relabelled(f: Filtration, rng: random.Random) -> Filtration:
    vertices = f.stages[-1].vertices
    relabel = dict(zip(vertices, rng.sample(range(100, 100 + 2 * len(vertices)), len(vertices))))
    return Filtration.of(
        [Digraph.of([relabel[v] for v in g.vertices], [(relabel[v], relabel[u]) for u, v in g.edges])
         for g in f.stages],
        f.thresholds,
    )


def assert_same_grid(f: Filtration, rng: random.Random) -> None:
    names = FeatureSet.FIELDS
    want = feature_grid(f, 1, names)
    got = feature_grid(reversed_and_relabelled(f, rng), 1, names)
    assert got.cells.keys() == want.cells.keys()
    for pair, fs in want.cells.items():
        assert got.cells[pair].nullity == fs.nullity, pair
        np.testing.assert_allclose(
            [getattr(got.cells[pair], n) for n in names[1:]],
            [getattr(fs, n) for n in names[1:]], rtol=0, atol=1e-9, err_msg=str(pair),
        )


def test_molecule_grid_is_invariant_under_reversal_and_relabelling():
    assert_same_grid(molecule_filtration(), random.Random(8008))


def random_large_filtration(rng: random.Random) -> Filtration:
    """10-14 vertices, each ordered pair an edge with chance 0.25, entering over 3-4 stages."""
    n = rng.randint(10, 14)
    edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.25]
    rng.shuffle(edges)
    cuts = sorted(rng.randint(0, len(edges)) for _ in range(rng.randint(2, 3))) + [len(edges)]
    return Filtration.of([Digraph.of(range(n), edges[:c]) for c in cuts])


@pytest.mark.parametrize("seed", range(6))
def test_random_grid_is_invariant_under_reversal_and_relabelling(seed):
    rng = random.Random(9009 + seed)
    assert_same_grid(random_large_filtration(rng), rng)
