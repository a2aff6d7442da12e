"""Molecules as electronegativity-ordered bond digraphs with distance filtrations.

Bond direction runs from the less to the more electronegative atom on the
Pauling scale; atoms of the same element are joined both ways. Edge weights
are interatomic distances, so increasing distance thresholds produce nested
digraph stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParseError, StructuralError
from .fileio import read_input
from .graphs import Digraph
from .persistence import Filtration

# Pauling-scale electronegativities for the elements that have one.
PAULING_ELECTRONEGATIVITY: dict[str, float] = {
    "H": 2.20, "Li": 0.98, "Be": 1.57, "B": 2.04, "C": 2.55, "N": 3.04,
    "O": 3.44, "F": 3.98, "Na": 0.93, "Mg": 1.31, "Al": 1.61, "Si": 1.90,
    "P": 2.19, "S": 2.58, "Cl": 3.16, "K": 0.82, "Ca": 1.00, "Sc": 1.36,
    "Ti": 1.54, "V": 1.63, "Cr": 1.66, "Mn": 1.55, "Fe": 1.83, "Co": 1.88,
    "Ni": 1.91, "Cu": 1.90, "Zn": 1.65, "Ga": 1.81, "Ge": 2.01, "As": 2.18,
    "Se": 2.55, "Br": 2.96, "Rb": 0.82, "Sr": 0.95, "Y": 1.22, "Zr": 1.33,
    "Nb": 1.60, "Mo": 2.16, "Tc": 1.90, "Ru": 2.20, "Rh": 2.28, "Pd": 2.20,
    "Ag": 1.93, "Cd": 1.69, "In": 1.78, "Sn": 1.96, "Sb": 2.05, "Te": 2.10,
    "I": 2.66, "Cs": 0.79, "Ba": 0.89, "La": 1.10, "Hf": 1.30, "Ta": 1.50,
    "W": 2.36, "Re": 1.90, "Os": 2.20, "Ir": 2.20, "Pt": 2.28, "Au": 2.54,
    "Hg": 2.00, "Tl": 1.62, "Pb": 2.33, "Bi": 2.02,
}

# Single-bond covalent radii in Angstrom, used only for bond inference.
COVALENT_RADIUS: dict[str, float] = {
    "H": 0.31, "Li": 1.28, "Be": 0.96, "B": 0.84, "C": 0.76, "N": 0.71,
    "O": 0.66, "F": 0.57, "Na": 1.66, "Mg": 1.41, "Al": 1.21, "Si": 1.11,
    "P": 1.07, "S": 1.05, "Cl": 1.02, "K": 2.03, "Ca": 1.76, "Sc": 1.70,
    "Ti": 1.60, "V": 1.53, "Cr": 1.39, "Mn": 1.39, "Fe": 1.32, "Co": 1.26,
    "Ni": 1.24, "Cu": 1.32, "Zn": 1.22, "Ga": 1.22, "Ge": 1.20, "As": 1.19,
    "Se": 1.20, "Br": 1.20, "Rb": 2.20, "Sr": 1.95, "Y": 1.90, "Zr": 1.75,
    "Nb": 1.64, "Mo": 1.54, "Tc": 1.47, "Ru": 1.46, "Rh": 1.42, "Pd": 1.39,
    "Ag": 1.45, "Cd": 1.44, "In": 1.42, "Sn": 1.39, "Sb": 1.39, "Te": 1.38,
    "I": 1.39, "Cs": 2.44, "Ba": 2.15, "La": 2.07, "Hf": 1.75, "Ta": 1.70,
    "W": 1.62, "Re": 1.51, "Os": 1.44, "Ir": 1.41, "Pt": 1.36, "Au": 1.36,
    "Hg": 1.32, "Tl": 1.45, "Pb": 1.46, "Bi": 1.48,
}

BOND_INFERENCE_SCALE = 1.2


@dataclass(frozen=True)
class Atom:
    element: str
    position: tuple[float, float, float]


@dataclass(frozen=True)
class Molecule:
    atoms: tuple[Atom, ...]
    bonds: tuple[tuple[int, int], ...]  # sorted unordered index pairs

    def distance(self, i: int, j: int) -> float:
        a, b = self.atoms[i].position, self.atoms[j].position
        return math.dist(a, b)


def parse_xyz(text: str, path: str | None = None) -> Molecule:
    """XYZ file with an optional `BOND i j` trailer (0-based atom indices).

    Without BOND lines, bonds are inferred from covalent radii: a pair is
    bonded when its distance is at most 1.2x the radius sum.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty molecule file", path)
    try:
        count = int(lines[0].split()[0])
    except (ValueError, IndexError):
        raise ParseError("first line must be the atom count", path, 1) from None
    if count <= 0:
        raise ParseError("atom count must be positive", path, 1)
    if len(lines) < count + 2:
        raise ParseError(f"expected {count} atom rows after the comment line", path)
    atoms = []
    for k in range(count):
        lineno = k + 3
        parts = lines[k + 2].split()
        if len(parts) < 4:
            raise ParseError("atom row needs `Element x y z`", path, lineno)
        element = parts[0]
        if element not in PAULING_ELECTRONEGATIVITY:
            raise ParseError(f"unknown element {element!r}", path, lineno)
        try:
            x, y, z = (float(v) for v in parts[1:4])
        except ValueError:
            raise ParseError("coordinates must be numeric", path, lineno) from None
        if not all(math.isfinite(v) for v in (x, y, z)):
            raise ParseError("coordinates must be finite", path, lineno)
        atoms.append(Atom(element, (x, y, z)))
    bonds = set()
    saw_bond_line = False
    for k, line in enumerate(lines[count + 2 :], start=count + 3):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if parts[0].upper() != "BOND" or len(parts) != 3:
            raise ParseError("trailer lines must be `BOND i j`", path, k)
        saw_bond_line = True
        try:
            i, j = int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError("bond indices must be integers", path, k) from None
        if not (0 <= i < count and 0 <= j < count):
            raise ParseError(f"bond index out of range in `BOND {i} {j}`", path, k)
        if i == j:
            raise ParseError("an atom cannot bond to itself", path, k)
        bonds.add((min(i, j), max(i, j)))
    atoms = tuple(atoms)
    if not saw_bond_line:
        bonds = infer_bonds(atoms)
    return Molecule(atoms, tuple(sorted(bonds)))


def infer_bonds(atoms: tuple[Atom, ...]) -> set[tuple[int, int]]:
    bonds = set()
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            ri = COVALENT_RADIUS.get(atoms[i].element)
            rj = COVALENT_RADIUS.get(atoms[j].element)
            if ri is None or rj is None:
                continue
            if math.dist(atoms[i].position, atoms[j].position) <= BOND_INFERENCE_SCALE * (ri + rj):
                bonds.add((i, j))
    return bonds


def load_molecule(path) -> Molecule:
    return parse_xyz(read_input(path), str(path))


@dataclass(frozen=True)
class WeightedDigraph:
    digraph: Digraph
    weights: dict[tuple[int, int], float]

    def __post_init__(self):
        for (u, v), w in self.weights.items():
            if w <= 0:
                raise StructuralError(f"edge weight for {u}->{v} must be positive, got {w}")
            if (v, u) in self.weights and self.weights[(v, u)] != w:
                raise StructuralError(f"reciprocal edges {u}<->{v} carry unequal weights")


def bond_digraph(mol: Molecule) -> WeightedDigraph:
    """Directed edges along increasing electronegativity over the bond set.

    Equal electronegativity yields a reciprocal pair; the weight of every
    edge is the interatomic distance, so reciprocal edges weigh the same.
    """
    edges = []
    weights: dict[tuple[int, int], float] = {}
    for i, j in mol.bonds:
        chi_i = PAULING_ELECTRONEGATIVITY[mol.atoms[i].element]
        chi_j = PAULING_ELECTRONEGATIVITY[mol.atoms[j].element]
        d = mol.distance(i, j)
        if chi_i < chi_j:
            pairs = [(i, j)]
        elif chi_j < chi_i:
            pairs = [(j, i)]
        else:
            pairs = [(i, j), (j, i)]
        for e in pairs:
            edges.append(e)
            weights[e] = d
    g = Digraph.of(range(len(mol.atoms)), edges)
    return WeightedDigraph(g, weights)


def distance_filtration(wd: WeightedDigraph, thresholds) -> Filtration:
    """Stage i keeps all vertices and the edges of weight at most thresholds[i]."""
    thresholds = [float(t) for t in thresholds]
    if not thresholds:
        raise StructuralError("at least one threshold is required")
    stages = []
    for t in thresholds:
        edges = [e for e in wd.digraph.edges if wd.weights[e] <= t]
        stages.append(Digraph(wd.digraph.vertices, tuple(sorted(edges))))
    return Filtration.of(stages, thresholds)
