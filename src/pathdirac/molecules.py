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
from .fileio import Lines, numbers, read_input
from .graphs import Digraph
from .persistence import Filtration

# Each element with a Pauling-scale electronegativity: (electronegativity, single-bond
# covalent radius in Angstrom). The radius is read only for bond inference.
ELEMENTS: dict[str, tuple[float, float]] = {
    "H": (2.20, 0.31), "Li": (0.98, 1.28), "Be": (1.57, 0.96), "B": (2.04, 0.84),
    "C": (2.55, 0.76), "N": (3.04, 0.71), "O": (3.44, 0.66), "F": (3.98, 0.57),
    "Na": (0.93, 1.66), "Mg": (1.31, 1.41), "Al": (1.61, 1.21), "Si": (1.90, 1.11),
    "P": (2.19, 1.07), "S": (2.58, 1.05), "Cl": (3.16, 1.02), "K": (0.82, 2.03),
    "Ca": (1.00, 1.76), "Sc": (1.36, 1.70), "Ti": (1.54, 1.60), "V": (1.63, 1.53),
    "Cr": (1.66, 1.39), "Mn": (1.55, 1.39), "Fe": (1.83, 1.32), "Co": (1.88, 1.26),
    "Ni": (1.91, 1.24), "Cu": (1.90, 1.32), "Zn": (1.65, 1.22), "Ga": (1.81, 1.22),
    "Ge": (2.01, 1.20), "As": (2.18, 1.19), "Se": (2.55, 1.20), "Br": (2.96, 1.20),
    "Rb": (0.82, 2.20), "Sr": (0.95, 1.95), "Y": (1.22, 1.90), "Zr": (1.33, 1.75),
    "Nb": (1.60, 1.64), "Mo": (2.16, 1.54), "Tc": (1.90, 1.47), "Ru": (2.20, 1.46),
    "Rh": (2.28, 1.42), "Pd": (2.20, 1.39), "Ag": (1.93, 1.45), "Cd": (1.69, 1.44),
    "In": (1.78, 1.42), "Sn": (1.96, 1.39), "Sb": (2.05, 1.39), "Te": (2.10, 1.38),
    "I": (2.66, 1.39), "Cs": (0.79, 2.44), "Ba": (0.89, 2.15), "La": (1.10, 2.07),
    "Hf": (1.30, 1.75), "Ta": (1.50, 1.70), "W": (2.36, 1.62), "Re": (1.90, 1.51),
    "Os": (2.20, 1.44), "Ir": (2.20, 1.41), "Pt": (2.28, 1.36), "Au": (2.54, 1.36),
    "Hg": (2.00, 1.32), "Tl": (1.62, 1.45), "Pb": (2.33, 1.46), "Bi": (2.02, 1.48),
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
    bonded when its distance is at most 1.2x the radius sum. Bonded atoms at
    one position are a parse error, declared or inferred.
    """
    rows = text.splitlines()
    if not rows:
        raise ParseError("empty molecule file", path)
    lines = Lines(text, path)
    count = lines.read(1, rows[0], _atom_count)
    if len(rows) < count + 2:
        raise ParseError(f"expected {count} atom rows after the comment line", path)
    atoms = tuple(lines.read(lineno, rows[lineno - 1], _atom) for lineno in range(3, count + 3))
    # the trailer: the data lines after the atom rows
    trailer = [(lineno, line) for lineno, line in lines.data if lineno > count + 2]
    bonds = {lines.read(lineno, line, lambda line: _bond(line, count)) for lineno, line in trailer}
    bonds = tuple(sorted(bonds if trailer else infer_bonds(atoms)))
    for i, j in bonds:  # a bond's distance is its edge weight, which must be positive
        if math.dist(atoms[i].position, atoms[j].position) == 0:
            raise ParseError(f"atoms on rows {i + 3} and {j + 3} are bonded at distance 0", path)
    return Molecule(atoms, bonds)


def _atom_count(line: str) -> int:
    [count] = numbers(line.split()[:1] or [""], int, "first line must be the atom count")
    if count <= 0:
        raise ValueError("atom count must be positive")
    return count


def _atom(line: str) -> Atom:
    parts = line.split()
    if len(parts) < 4:
        raise ValueError("atom row needs `Element x y z`")
    if parts[0] not in ELEMENTS:
        raise ValueError(f"unknown element {parts[0]!r}")
    xyz = numbers(parts[1:4], float, "coordinates must be numeric",
                  lambda v: None if all(map(math.isfinite, v)) else "coordinates must be finite")
    return Atom(parts[0], tuple(xyz))


def _bond(line: str, count: int) -> tuple[int, int]:
    parts = line.split()
    if parts[0].upper() != "BOND" or len(parts) != 3:
        raise ValueError("trailer lines must be `BOND i j`")
    i, j = numbers(parts[1:], int, "bond indices must be integers")
    if not (0 <= i < count and 0 <= j < count):
        raise ValueError(f"bond index out of range in `BOND {i} {j}`")
    if i == j:
        raise ValueError("an atom cannot bond to itself")
    return min(i, j), max(i, j)


def infer_bonds(atoms: tuple[Atom, ...]) -> set[tuple[int, int]]:
    radius = [ELEMENTS[atom.element][1] for atom in atoms]
    return {(i, j) for i in range(len(atoms)) for j in range(i + 1, len(atoms))
            if math.dist(atoms[i].position, atoms[j].position)
            <= BOND_INFERENCE_SCALE * (radius[i] + radius[j])}


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
    chi = [ELEMENTS[atom.element][0] for atom in mol.atoms]
    weights = {(u, v): mol.distance(i, j)
               for i, j in mol.bonds for u, v in ((i, j), (j, i)) if chi[u] <= chi[v]}
    return WeightedDigraph(Digraph.of(range(len(mol.atoms)), weights), weights)


def distance_filtration(wd: WeightedDigraph, thresholds) -> Filtration:
    """Stage i keeps all vertices and the edges of weight at most thresholds[i]."""
    weighted = [(u, v, wd.weights[(u, v)]) for u, v in wd.digraph.edges]
    return Filtration.by_threshold(wd.digraph.vertices, weighted, thresholds)
