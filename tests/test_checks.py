"""The identity check suites over deterministic and randomized inputs."""

from pathdirac import Digraph, Filtration, Hypergraph, StageComplexes
from pathdirac import rational as qa
from pathdirac.chain import build_digraph_complex, build_hypergraph_complex, omega2_generators_fast
from pathdirac.checks import filtration_check_suite, graph_check_suite

CYCLIC = Digraph.of([0, 1, 2], [(0, 1), (1, 2), (2, 0)])

GRAPH_SUITE_NAMES_P2 = [
    "boundary-composition-zero",
    "dirac-square-p0",
    "dirac-square-p1",
    "dirac-spectrum-symmetry-p0",
    "dirac-spectrum-symmetry-p1",
    "dirac-nullity-identity-p0",
    "dirac-nullity-identity-p1",
    "exact-vs-float-rank",
    "h1-closed-form",
    "omega-vs-infimum",
    "degree2-fast-path",
    "embedded-homology",
]


def test_graph_suite_passes_on_cyclic_triangle():
    results = graph_check_suite(CYCLIC, build_digraph_complex(CYCLIC, 2))
    assert results and all(r.passed for r in results)
    names = {r.name for r in results}
    assert "dirac-square-p0" in names
    assert "embedded-homology" in names


def test_graph_suite_negative_control(shifted_laplacian):
    results = graph_check_suite(CYCLIC, build_digraph_complex(CYCLIC, 2))
    failed = [r for r in results if not r.passed]
    assert failed and failed[0].name == "dirac-square-p0"
    assert "square defect 5.000e-01" in failed[0].detail


def test_graph_suite_names_in_order():
    results = graph_check_suite(CYCLIC, build_digraph_complex(CYCLIC, 2))
    assert [r.name for r in results] == GRAPH_SUITE_NAMES_P2
    h = Hypergraph.of(range(4), [(0, 1, 2), (2, 3)])
    results = graph_check_suite(h, build_hypergraph_complex(h, 2))
    assert [r.name for r in results] == GRAPH_SUITE_NAMES_P2
    assert all(r.passed for r in results)


def test_graph_suite_on_random_corpus(digraph_corpus, hypergraph_corpus):
    for g in digraph_corpus[:15]:
        results = graph_check_suite(g, build_digraph_complex(g, 2))
        assert all(r.passed for r in results), [r for r in results if not r.passed]
    for h in hypergraph_corpus[:10]:
        results = graph_check_suite(h, build_hypergraph_complex(h, 2))
        assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_filtration_suite_passes(filtration_stage_complexes):
    for stages in filtration_stage_complexes[:10]:
        results = filtration_check_suite(stages, 1)
        assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_filtration_suite_example_pairs():
    s1 = Digraph.of([0, 1, 2, 3], [])
    s2 = Digraph.of([0, 1, 2, 3], [(0, 1), (2, 3)])
    stages = StageComplexes(Filtration.of([s1, s2]), 2)
    results = filtration_check_suite(stages, 1)
    by_name = {r.name: r for r in results}
    assert by_name["persistent-nullity(1,1)"].passed
    assert by_name["persistent-nullity(1,2)"].passed
    assert by_name["a-eq-b-reduction(2,2)"].passed
    assert all(r.passed for r in results)


def test_fast_degree2_constructor_agrees():
    # The triangle/square generators are an independent basis of the kernel-method Omega_2.
    for g in (CYCLIC, Digraph.of([0, 1, 2, 3], [(0, 1), (0, 3), (1, 2), (3, 2), (0, 2)])):
        c = build_digraph_complex(g, 2)
        fast = omega2_generators_fast(g, c.degrees[2].paths)
        assert qa.spans_equal(fast, c.degrees[2].omega)
        assert qa.rank(fast) == fast.cols == c.dim(2)
