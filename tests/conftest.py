"""Shared randomized corpora; seeded so every run sees the same instances."""

import dataclasses
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from pathdirac import Digraph, Filtration, Hypergraph, StageComplexes, build_digraph_complex
from pathdirac import checks, operators
from pathdirac.chain import build_hypergraph_complex
from pathdirac.molecules import bond_digraph, distance_filtration, load_molecule

CORPUS_SIZE = 200
MOLECULE = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "molecule.xyz"


def random_digraph(rng: random.Random, max_vertices: int = 6, p_edge: float = 0.3) -> Digraph:
    n = rng.randint(1, max_vertices)
    edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p_edge]
    return Digraph.of(range(n), edges)


def random_hypergraph(rng: random.Random, max_vertices: int = 5, max_edges: int = 4) -> Hypergraph:
    n = rng.randint(1, max_vertices)
    hyperedges = []
    for _ in range(rng.randint(1, max_edges)):
        size = rng.randint(1, min(4, n))
        hyperedges.append(rng.sample(range(n), size))
    return Hypergraph.of(range(n), hyperedges)


def random_filtration(rng: random.Random, max_vertices: int = 5, max_stages: int = 3) -> Filtration:
    n = rng.randint(2, max_vertices)
    all_edges = [(u, v) for u in range(n) for v in range(n) if u != v]
    rng.shuffle(all_edges)
    total = rng.randint(1, len(all_edges))
    chosen = all_edges[:total]
    n_stages = rng.randint(2, max_stages)
    cuts = sorted(rng.randint(0, total) for _ in range(n_stages - 1)) + [total]
    stages = [Digraph.of(range(n), chosen[:c]) for c in cuts]
    return Filtration.of(stages)


def molecule_thresholds(stages: int = 7) -> list[float]:
    """Thresholds that admit the committed 24-atom cage's bonds in `stages` equal
    shares: each falls midway between consecutive sorted bond lengths."""
    mol = load_molecule(MOLECULE)
    lengths = sorted(mol.distance(i, j) for i, j in mol.bonds)
    cuts = [(lengths[r - 1] + lengths[r]) / 2
            for r in (round(s * len(lengths) / stages) for s in range(1, stages))]
    return cuts + [lengths[-1] + 0.1]


def molecule_filtration(stages: int = 7) -> Filtration:
    """The committed 24-atom cage, its bonds admitted at `molecule_thresholds(stages)`."""
    return distance_filtration(bond_digraph(load_molecule(MOLECULE)), molecule_thresholds(stages))


@pytest.fixture(scope="session")
def molecule_stage_complexes():
    return StageComplexes(molecule_filtration(), 2)


@pytest.fixture(scope="session")
def digraph_corpus():
    rng = random.Random(1001)
    return [random_digraph(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def digraph_complexes(digraph_corpus):
    return [(g, build_digraph_complex(g, 2)) for g in digraph_corpus]


@pytest.fixture(scope="session")
def hypergraph_corpus():
    rng = random.Random(2002)
    return [random_hypergraph(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def hypergraph_complexes(hypergraph_corpus):
    return [(h, build_hypergraph_complex(h, 2)) for h in hypergraph_corpus]


@pytest.fixture(scope="session")
def filtration_corpus():
    rng = random.Random(3003)
    return [random_filtration(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture(scope="session")
def filtration_stage_complexes(filtration_corpus):
    return [StageComplexes(f, 2) for f in filtration_corpus]


@pytest.fixture
def shifted_laplacian(monkeypatch):
    """Negative control: the expected block diagonal of every D_p^2 is off by 0.5
    in its first entry, so the Dirac-square identity must fail."""
    real = operators.laplacian

    def shifted(c, n, *args, **kwargs):
        lap = real(c, n, *args, **kwargs)
        matrix = lap.matrix.copy()
        matrix[0, 0] += 0.5
        return dataclasses.replace(lap, matrix=matrix)

    monkeypatch.setattr(operators, "laplacian", shifted)
    monkeypatch.setattr(checks, "laplacian", shifted)
