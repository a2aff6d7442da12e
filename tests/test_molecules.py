"""Molecule parsing, electronegativity digraphs, and distance filtrations."""

import math
import re

import pytest

from pathdirac import (Digraph, StageComplexes, WeightedDigraph, bond_digraph,
                       distance_filtration, parse_xyz)
from pathdirac.errors import ParseError, StructuralError
from pathdirac.molecules import ELEMENTS, infer_bonds
from pathdirac.persistence import feature_grid

WATER_XYZ = """3
right-angle water, O-H bonds of exactly 0.97
O 0.0 0.0 0.0
H 0.97 0.0 0.0
H 0.0 0.97 0.0
BOND 0 1
BOND 0 2
"""

# Ethanol-like C/H/O fragment with every bond at its tabulated length:
# H-O 0.97, C-H 1.1, C-O 1.43, C-C 1.53. Each bond is axis-aligned from a
# zero coordinate so the measured float distance is exactly the tabulated
# value and the inclusive thresholds behave as intended.
ETHANOLIC_XYZ = """9
synthetic C2 H6 O fragment with exact bond lengths
C 0.0 0.0 0.0
C 1.53 0.0 0.0
O 1.53 1.43 0.0
H 1.53 1.43 0.97
H -1.1 0.0 0.0
H 0.0 1.1 0.0
H 0.0 -1.1 0.0
H 1.53 -1.1 0.0
H 1.53 0.0 1.1
BOND 0 1
BOND 1 2
BOND 2 3
BOND 0 4
BOND 0 5
BOND 0 6
BOND 1 7
BOND 1 8
"""

THRESHOLDS = (0.0, 0.97, 1.1, 1.43, 1.53)


def test_parse_water():
    mol = parse_xyz(WATER_XYZ)
    assert len(mol.atoms) == 3
    assert mol.bonds == ((0, 1), (0, 2))
    assert mol.atoms[0].element == "O"


def test_parse_unknown_element():
    with pytest.raises(ParseError):
        parse_xyz("1\nbad\nXx 0 0 0\n")


def test_parse_bond_index_out_of_range():
    with pytest.raises(ParseError):
        parse_xyz("1\none atom\nH 0 0 0\nBOND 0 3\n")


def test_parse_self_bond_rejected():
    with pytest.raises(ParseError):
        parse_xyz("2\ntwo\nH 0 0 0\nH 1 0 0\nBOND 0 0\n")


@pytest.mark.parametrize("trailer", ["", "BOND 2 1\n"], ids=["inferred", "declared"])
def test_parse_zero_length_bond_names_file_and_rows(trailer):
    """A bond's length is its edge weight, so coincident bonded atoms are bad input."""
    text = "3\ndup\nO 0 0 5\nC 0 0 0\nC 0 0 0\n" + trailer
    with pytest.raises(ParseError, match=r"^dup\.xyz: atoms on rows 4 and 5 are bonded at distance 0$"):
        parse_xyz(text, "dup.xyz")


def test_parse_malformed_lines():
    with pytest.raises(ParseError):
        parse_xyz("")
    with pytest.raises(ParseError):
        parse_xyz("x\ncomment\n")
    with pytest.raises(ParseError):
        parse_xyz("1\ncomment\nH 0 zero 0\n")


def test_parse_errors_without_a_path_name_the_line():
    text = "2\nc\nH 0 0 0\nH 1 0\n"
    with pytest.raises(ParseError, match=r"^line 4: atom row needs `Element x y z`$"):
        parse_xyz(text)
    with pytest.raises(ParseError, match=r"^w\.xyz:4: atom row needs `Element x y z`$"):
        parse_xyz(text, "w.xyz")


def test_bond_inference_water():
    mol = parse_xyz(WATER_XYZ.split("BOND")[0])
    assert mol.bonds == ((0, 1), (0, 2))  # H-H stays unbonded
    assert infer_bonds(mol.atoms) == {(0, 1), (0, 2)}


def test_water_bond_digraph_directions():
    wd = bond_digraph(parse_xyz(WATER_XYZ))
    # chi(H) < chi(O): both edges point into the oxygen
    assert wd.digraph.edges == ((1, 0), (2, 0))
    for e in wd.digraph.edges:
        assert math.isclose(wd.weights[e], 0.97)


def test_same_element_bond_is_reciprocal():
    text = "2\nethane-ish carbon pair\nC 0 0 0\nC 1.53 0 0\nBOND 0 1\n"
    wd = bond_digraph(parse_xyz(text))
    assert wd.digraph.edges == ((0, 1), (1, 0))
    assert wd.weights[(0, 1)] == wd.weights[(1, 0)]


def test_boron_hydrogen_carbon_ordering():
    assert ELEMENTS["B"][0] < ELEMENTS["H"][0] < ELEMENTS["C"][0]
    text = "2\nborane fragment\nB 0 0 0\nH 1.19 0 0\nBOND 0 1\n"
    wd = bond_digraph(parse_xyz(text))
    assert wd.digraph.edges == ((0, 1),)  # B -> H only


def test_pinned_electronegativities():
    assert ELEMENTS["H"][0] == 2.20
    assert ELEMENTS["C"][0] == 2.55
    assert ELEMENTS["O"][0] == 3.44


def test_synthetic_fragment_distances_match_table():
    mol = parse_xyz(ETHANOLIC_XYZ)
    by_pair = {}
    for i, j in mol.bonds:
        key = tuple(sorted((mol.atoms[i].element, mol.atoms[j].element)))
        by_pair.setdefault(key, set()).add(round(mol.distance(i, j), 6))
    assert by_pair[("H", "O")] == {0.97}
    assert by_pair[("C", "H")] == {1.1}
    assert by_pair[("C", "O")] == {1.43}
    assert by_pair[("C", "C")] == {1.53}


def test_distance_filtration_five_stages():
    wd = bond_digraph(parse_xyz(ETHANOLIC_XYZ))
    filtration = distance_filtration(wd, THRESHOLDS)
    assert len(filtration) == 5
    stage1, stage2, stage5 = filtration.stages[0], filtration.stages[1], filtration.stages[4]
    assert stage1.edges == ()
    mol = parse_xyz(ETHANOLIC_XYZ)
    elements = [a.element for a in mol.atoms]
    assert stage2.edges != ()
    for u, v in stage2.edges:
        assert {elements[u], elements[v]} == {"H", "O"}
    # final stage is fully bonded and weakly connected
    assert len(stage5.edges) == 9  # 7 directed bonds + the reciprocal C-C pair
    assert len(stage5.components()) == 1


def test_distance_filtration_single_threshold():
    wd = bond_digraph(parse_xyz(WATER_XYZ))
    filtration = distance_filtration(wd, [5.0])
    assert len(filtration) == 1
    assert filtration.stages[0] == wd.digraph


def test_distance_filtration_rejects_unsorted_thresholds():
    wd = bond_digraph(parse_xyz(WATER_XYZ))
    with pytest.raises(StructuralError):
        distance_filtration(wd, [1.0, 0.5])


def test_distance_filtration_needs_a_threshold():
    wd = bond_digraph(parse_xyz(WATER_XYZ))
    with pytest.raises(StructuralError, match="at least one threshold is required"):
        distance_filtration(wd, [])


@pytest.mark.parametrize(
    "weights, message",
    [
        ({(0, 1): 0.0}, "edge weight for 0->1 must be positive, got 0.0"),
        ({(0, 1): 1.0, (1, 0): 2.0}, "reciprocal edges 0<->1 carry unequal weights"),
    ],
    ids=["zero-weight", "unequal-reciprocal"],
)
def test_weighted_digraph_rejects_bad_weights(weights, message):
    with pytest.raises(StructuralError, match=re.escape(message)):
        WeightedDigraph(Digraph.of([0, 1], list(weights)), weights)


def test_water_pipeline_end_to_end():
    wd = bond_digraph(parse_xyz(WATER_XYZ))
    filtration = distance_filtration(wd, [0.5, 0.97])
    stages = StageComplexes(filtration, 2)
    final = stages.stage(2)
    assert final.betti_vector() == [1, 0]  # one component, acyclic
    grid = feature_grid(stages, 1)
    diag = [grid.cells[(m, m)].nullity for m in (1, 2)]
    assert diag == [3, 1]
    assert diag == sorted(diag, reverse=True)


def test_single_zero_threshold_nullity_is_atom_count():
    mol = parse_xyz(ETHANOLIC_XYZ)
    wd = bond_digraph(mol)
    filtration = distance_filtration(wd, [0.5])
    stages = StageComplexes(filtration, 2)
    grid = feature_grid(stages, 1)
    assert grid.cells[(1, 1)].nullity == len(mol.atoms)


def test_carbon_pair_reciprocal_enters_h1():
    text = "2\ncarbon pair\nC 0 0 0\nC 1.53 0 0\nBOND 0 1\n"
    wd = bond_digraph(parse_xyz(text))
    from pathdirac.chain import build_digraph_complex
    from pathdirac.graphs import h1_rank

    c = build_digraph_complex(wd.digraph, 2)
    assert h1_rank(wd.digraph, c.boundary_rank(2)) == c.betti(1) == 1
