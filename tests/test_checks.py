"""The identity check suites over deterministic and randomized inputs."""

import dataclasses
import re

import numpy as np
import pytest

from pathdirac import Digraph, Filtration, Hypergraph, StageComplexes, checks, dirac, laplacian
from pathdirac import rational as qa
from pathdirac.chain import (build_digraph_complex, build_hypergraph_complex, embed_paths,
                             omega2_generators_fast)
from pathdirac.checks import check_dirac_identities, filtration_check_suite, graph_check_suite
from pathdirac.cli import main

CYCLIC = Digraph.of([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
CIRCULANT = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])


def dirac_lines(c) -> list:
    """check_dirac_identities on c, with its own Laplacians, as `check` prints them."""
    results = check_dirac_identities(c, [laplacian(c, i) for i in range(c.p_top)])
    return [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]


def test_check_dirac_identities_cyclic():
    c = build_digraph_complex(CYCLIC, 2)
    results = check_dirac_identities(c, [laplacian(c, i) for i in range(c.p_top)])
    square = next(r for r in results if r.name == "dirac-square-p0")
    assert square.passed
    assert float(square.detail.split(",")[0].removeprefix("square defect ")) <= 1e-10
    d = dirac(c, 0)
    expected = np.block([[CIRCULANT, np.zeros((3, 3))], [np.zeros((3, 3)), CIRCULANT]])
    np.testing.assert_allclose(d.matrix @ d.matrix, expected, atol=1e-12)


def test_check_dirac_identities_vacuous_on_zero_complex():
    c = build_digraph_complex(Digraph.of([], []), 1)
    results = check_dirac_identities(c, [laplacian(c, i) for i in range(c.p_top)])
    assert [r.name for r in results] == [
        "dirac-square-p0", "dirac-spectrum-symmetry-p0", "dirac-nullity-identity-p0"]
    assert all(r.passed for r in results)


@pytest.mark.parametrize(
    "graph, p_top, lines",
    [
        (CYCLIC, 2, [
            "PASS dirac-square-p0: square defect 0.000e+00, nullity 2 vs 2, spectrum symmetry 2.220e-16",
            "PASS dirac-square-p1: square defect 0.000e+00, nullity 2 vs 2, spectrum symmetry 2.220e-16",
            "PASS dirac-spectrum-symmetry-p0: defect 2.220e-16",
            "PASS dirac-spectrum-symmetry-p1: defect 2.220e-16",
            "PASS dirac-nullity-identity-p0: exact 2, betti-sum form 2, float-rank form 2",
            "PASS dirac-nullity-identity-p1: exact 2, betti-sum form 2, float-rank form 2",
        ]),
        (Digraph.of([], []), 1, [
            "PASS dirac-square-p0: square defect 0.000e+00, nullity 0 vs 0, spectrum symmetry 0.000e+00",
            "PASS dirac-spectrum-symmetry-p0: defect 0.000e+00",
            "PASS dirac-nullity-identity-p0: exact 0, betti-sum form 0, float-rank form 0",
        ]),
    ],
    ids=["cyclic-triangle", "empty"],
)
def test_check_dirac_identities_line_text(graph, p_top, lines):
    assert dirac_lines(build_digraph_complex(graph, p_top)) == lines


def test_dirac_square_negative_control(monkeypatch):
    """A down Laplacian off by 1e-6 in one diagonal entry fails the square line
    alone: the symmetry and nullity lines never read it."""
    real = checks.down_laplacian

    def perturbed(c, n, *args, **kwargs):
        lap = real(c, n, *args, **kwargs)
        matrix = lap.matrix.copy()
        if matrix.size:
            matrix[0, 0] += 1e-6
        return dataclasses.replace(lap, matrix=matrix)

    monkeypatch.setattr(checks, "down_laplacian", perturbed)
    lines = dirac_lines(build_digraph_complex(CYCLIC, 2))
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL dirac-square-p0: square defect 1.000e-06, nullity 2 vs 2, spectrum symmetry 2.220e-16"]
    assert "PASS dirac-spectrum-symmetry-p0: defect 2.220e-16" in lines
    assert "PASS dirac-nullity-identity-p0: exact 2, betti-sum form 2, float-rank form 2" in lines


def test_dirac_nullity_negative_control(monkeypatch):
    """A float rank one short fails every nullity line and no other line."""
    real = checks.float_rank
    monkeypatch.setattr(checks, "float_rank", lambda matrix: real(matrix) - 1)
    lines = dirac_lines(build_digraph_complex(CYCLIC, 2))
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL dirac-nullity-identity-p0: exact 2, betti-sum form 2, float-rank form 3",
        "FAIL dirac-nullity-identity-p1: exact 2, betti-sum form 2, float-rank form 3",
    ]

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


def test_omega_vs_infimum_negative_control(tmp_path, monkeypatch, capsys):
    """An infimum whose degree-1 basis spans other closure labels fails omega-vs-infimum
    and no other check, so `check` exits 4."""
    real = checks.infimum_complex

    def moved(ambient, submods):
        inf = real(ambient, submods)
        paths = ambient.degrees[1].paths
        spanned = {p for p, row in zip(paths, submods[1].data) if row}
        other = [p for p in paths if p not in spanned][: inf.dim(1)]
        assert len(other) == inf.dim(1)
        inf.degrees[1] = dataclasses.replace(inf.degrees[1], omega=embed_paths(other, paths))
        return inf

    monkeypatch.setattr(checks, "infimum_complex", moved)
    graph = tmp_path / "cyc.txt"
    graph.write_text("0 1\n1 2\n2 0\n", encoding="utf-8")
    assert main(["check", str(graph)]) == 4
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL omega-vs-infimum: span mismatch at degree 1"]
    assert lines[-1] == "11/12 checks passed"


def _top_value_shifted(real):
    def shifted(matrix, nullity):
        spec = real(matrix, nullity)
        values = spec.values.copy()
        values[-1:] += 1e-6
        return dataclasses.replace(spec, values=values)
    return shifted


def _stage_b(real):
    return lambda stages, a, b: stages.stage(b)


GROWING = {"s1.txt": "# vertices: 0 1\n0 1\n",
           "s2.txt": "# vertices: 0 1 2 3\n0 1\n1 2\n2 0\n2 3\n", "g.txt": "s1.txt\ns2.txt\n"}
CLOSING = {"s1.txt": "# vertices: 0 1 2\n0 1\n",
           "s2.txt": "# vertices: 0 1 2\n0 1\n1 2\n2 0\n", "g.txt": "s1.txt\ns2.txt\n"}
TWO_SQUARES = {"g.txt": "0 1\n1 2\n2 0\n0 2\n2 3\n3 0\n"}
# a fixed vertex set, where every auxiliary beta0 matches stage b's
FIXED_VERTICES = {"s1.txt": "# vertices: 0 1 2 3\n0 1\n1 2\n",
                  "s2.txt": "# vertices: 0 1 2 3\n0 1\n1 2\n2 0\n0 2\n2 3\n3 0\n",
                  "g.txt": "s1.txt\ns2.txt\n"}
FILTRATION_P2 = ["--kind", "filtration", "--p", "2"]

# family: (input files, check options, `checks` name to patch, fault from the real one,
# the families that FAIL under the fault)
NEGATIVE_CONTROLS = {
    "beta0-pair-p0": (GROWING, ["--kind", "filtration", "--p", "0"], "auxiliary_complex",
                      _stage_b, {"beta0-pair", "monotone-nullity"}),
    "beta0-pair-p1": (GROWING, ["--kind", "filtration", "--p", "1"], "auxiliary_complex",
                      _stage_b, {"beta0-pair", "monotone-nullity"}),
    "monotone-nullity-float": (FIXED_VERTICES, ["--kind", "filtration", "--p", "1"],
                               "auxiliary_complex", _stage_b, {"monotone-nullity"}),
    "monotone-nullity": (
        CLOSING, FILTRATION_P2, "persistent_laplacian",
        lambda real: lambda *args: dataclasses.replace(real(*args), exact_nullity=99),
        {"monotone-nullity"}),
    "persistent-nullity": (CLOSING, FILTRATION_P2, "float_rank", lambda real: lambda m: real(m) + 1,
                           {"persistent-nullity", "monotone-nullity"}),
    "exact-vs-float-rank": (TWO_SQUARES, ["--p", "2"], "float_rank",
                            lambda real: lambda m: real(m) + (m.shape[0] != m.shape[1]),
                            {"exact-vs-float-rank"}),
    "degree2-fast-path": (
        TWO_SQUARES, ["--p", "2"], "omega2_generators_fast",
        lambda real: lambda g, paths: qa.QMatrix.from_rows(
            [row[:-1] for row in real(g, paths).to_rows()]),
        {"degree2-fast-path"}),
    "embedded-homology": (TWO_SQUARES, ["--p", "2"], "supremum_complex",
                          lambda real: lambda ambient, submods: ambient, {"embedded-homology"}),
    "dirac-spectrum-symmetry": (TWO_SQUARES, ["--p", "2"], "eigen_spectrum", _top_value_shifted,
                                {"dirac-square", "dirac-spectrum-symmetry"}),
}


@pytest.mark.parametrize("family", NEGATIVE_CONTROLS)
def test_check_family_negative_control(family, tmp_path, monkeypatch, capsys):
    """The same input passes every check line; under the family's fault `check`
    exits 4, and the lines that FAIL are exactly those of the listed families
    (a name less its `-p<k>`/`-n<k>` degree and `(a,b)` pair tag)."""
    files, options, name, fault, failing = NEGATIVE_CONTROLS[family]
    for file, text in files.items():
        (tmp_path / file).write_text(text, encoding="utf-8")
    argv = ["check", str(tmp_path / "g.txt"), *options]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(checks, name, fault(getattr(checks, name)))
    assert main(argv) == 4
    fails = [line.split(":")[0].removeprefix("FAIL ")
             for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert {re.sub(r"(-[pn]\d+)?(\(\d+,\d+\))?$", "", line) for line in fails} == failing


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
