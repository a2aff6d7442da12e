"""Chain-complex machinery for path and hypergraph complexes.

Builds, per degree, the boundary-invariant subspace of the span of anchor
sequences, the exact boundary matrices between those subspaces, and float
orthonormal bases for the operator layer. Also provides the generic
infimum/supremum subcomplex constructions used both as an independent
cross-check and for embedded homology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rational as qa
from .errors import StructuralError
from .graphs import (
    DEFAULT_PATH_CAP,
    Digraph,
    Hypergraph,
    anchor_path_table,
    essential_graph,
    symmetric_closure,
)
from .rational import QMatrix

Path = tuple[int, ...]


def boundary_terms(path: Path) -> list[tuple[int, Path]]:
    """Alternating single-vertex deletions: sign (-1)^i for dropping entry i."""
    p = len(path) - 1
    if p == 0:
        return []
    return [((-1) ** i, path[:i] + path[i + 1 :]) for i in range(p + 1)]


def boundary_of_path(path: Path) -> dict[Path, int]:
    """Boundary as a coefficient map, with cancellation of repeated subsequences."""
    acc: dict[Path, int] = {}
    for sign, sub in boundary_terms(path):
        acc[sub] = acc.get(sub, 0) + sign
        if acc[sub] == 0:
            del acc[sub]
    return acc


def split_boundary(
    paths_k: list[Path], paths_km1: list[Path]
) -> tuple[QMatrix, QMatrix, list[Path]]:
    """Boundary of the degree-k span, split by row membership in the allowed list.

    Returns (allowed_block, disallowed_block, disallowed_labels): stacking the
    blocks reproduces the boundary restricted to the allowed degree-k paths;
    disallowed rows are indexed by elementary sequences outside paths_km1.
    """
    index = {p: i for i, p in enumerate(paths_km1)}
    cols = [boundary_of_path(p) for p in paths_k]
    extra = sorted({sub for col in cols for sub in col if sub not in index})
    extra_index = {p: i for i, p in enumerate(extra)}
    allowed = QMatrix(len(paths_km1), len(paths_k))
    disallowed = QMatrix(len(extra), len(paths_k))
    for j, col in enumerate(cols):
        for sub, coeff in col.items():
            if sub in index:
                allowed.data[index[sub]][j] = coeff
            else:
                disallowed.data[extra_index[sub]][j] = coeff
    return allowed, disallowed, extra


@dataclass
class DegreeData:
    """Everything the operator layer needs about one degree."""

    paths: list[Path]
    omega: QMatrix  # columns: basis of the invariant subspace, path coordinates
    boundary: QMatrix  # exact map to the previous degree's omega basis (k >= 1)
    allowed_block: np.ndarray  # boundary into path coordinates of degree k-1
    ortho: np.ndarray  # orthonormal basis, path coordinates
    boundary_ortho: np.ndarray  # boundary in orthonormal bases


class ExactComplex:
    """Exact boundaries per degree and the ranks and Betti numbers they fix.

    boundaries[k] maps degree k to degree k-1; boundaries[0] has no rows, so
    every degree's dimension is its boundary's column count.
    """

    def __init__(self, boundaries: list[QMatrix]):
        self.boundaries = boundaries
        self.p_top = len(boundaries) - 1
        self._ranks: dict[int, int] = {}

    def dim(self, k: int) -> int:
        if 0 <= k <= self.p_top:
            return self.boundaries[k].cols
        return 0

    def boundary_rank(self, k: int) -> int:
        """Exact rank of the boundary map out of degree k (0 beyond the built range).

        Computed on first use and stored, so each boundary is ranked at most once
        (threads racing on one complex can only store the same value twice).
        """
        if not 1 <= k <= self.p_top:
            return 0
        if k not in self._ranks:
            self._ranks[k] = qa.rank(self.boundaries[k])
        return self._ranks[k]

    def betti(self, k: int) -> int:
        """Exact Betti number; requires degree k+1 to be built."""
        if k < 0 or k + 1 > self.p_top:
            raise ValueError(f"betti({k}) needs the complex built to degree {k + 1}")
        return self.dim(k) - self.boundary_rank(k) - self.boundary_rank(k + 1)

    def betti_vector(self) -> list[int]:
        return [self.betti(k) for k in range(self.p_top)]

    def down_nullity(self, k: int) -> int:
        """Exact kernel dimension of the boundary map out of degree k."""
        return self.dim(k) - self.boundary_rank(k)


class ChainComplex(ExactComplex):
    """Per-degree invariant subspaces with exact and orthonormal boundary data.

    The only place ∂∂ = 0 is asserted: every stage and auxiliary complex is
    built through here, so a nonzero composition never reaches an operator.
    """

    def __init__(self, degrees: list[DegreeData]):
        super().__init__([d.boundary for d in degrees])
        self.degrees = degrees
        for k in range(2, len(degrees)):
            if not (self.boundaries[k - 1] @ self.boundaries[k]).is_zero():
                raise StructuralError(f"boundary composition at degree {k} is nonzero")


def orthonormal_basis(basis: QMatrix) -> np.ndarray:
    """Float orthonormal basis with the same span as the exact one.

    A basis whose columns are distinct unit vectors with entry 1 is returned
    unchanged, so integer boundary matrices stay integer; any other basis
    goes through QR with the diagonal of R normalized positive, which makes
    the output deterministic.
    """
    if basis.cols == 0:
        return np.zeros((basis.rows, 0))
    # each column is the 1 of exactly one row {j: 1}, and there are no other nonzeros
    ones = sorted(j for row in basis.data if len(row) == 1 for j, x in row.items() if x == 1)
    if ones == list(range(basis.cols)) and sum(map(len, basis.data)) == basis.cols:
        return basis.to_float()
    w = basis.to_float()
    q, r = np.linalg.qr(w)
    diag = np.diag(r)
    if np.any(np.abs(diag) < 1e-12):
        raise StructuralError("rank-deficient basis passed to orthonormalization")
    q = q * np.sign(diag)
    return q


def build_complex(paths_per_degree: list[list[Path]]) -> ChainComplex:
    """Invariant subspaces and boundaries from per-degree anchor path lists.

    Degree k basis: exact kernel of the disallowed block of the boundary
    (vectors whose boundary stays inside the allowed degree-(k-1) span);
    degree 0 is the full vertex span. The exact boundary is re-expressed in
    the previous degree's basis, which is always solvable because a boundary
    of an invariant vector is itself invariant.
    """
    for k in range(1, len(paths_per_degree)):
        prev = set(paths_per_degree[k - 1])
        for path in paths_per_degree[k]:
            if path[1:] not in prev or path[:-1] not in prev:
                raise StructuralError(
                    f"allowed path lists are not prefix/suffix closed at degree {k}: {path}"
                )
    degrees: list[DegreeData] = []
    n0 = len(paths_per_degree[0])
    omega0 = QMatrix.identity(n0)
    degrees.append(
        DegreeData(
            paths=paths_per_degree[0],
            omega=omega0,
            boundary=QMatrix(0, n0),
            allowed_block=np.zeros((0, n0)),
            ortho=np.eye(n0),
            boundary_ortho=np.zeros((0, n0)),
        )
    )
    for k in range(1, len(paths_per_degree)):
        paths_k = paths_per_degree[k]
        paths_km1 = paths_per_degree[k - 1]
        allowed, disallowed, _ = split_boundary(paths_k, paths_km1)
        omega = qa.kernel_basis(disallowed)
        prev = degrees[k - 1]
        # boundary of each basis vector, re-expressed in the previous degree's basis
        boundary = qa.solve(prev.omega, allowed @ omega)
        degrees.append(degree_data(paths_k, omega, boundary, allowed.to_float(), prev))
    return ChainComplex(degrees)


def degree_data(paths: list[Path], omega: QMatrix, boundary: QMatrix,
                allowed: np.ndarray, prev: DegreeData) -> DegreeData:
    """One degree k >= 1 from its exact basis and boundary and the float allowed block."""
    ortho = orthonormal_basis(omega)
    return DegreeData(paths, omega, boundary, allowed, ortho, prev.ortho.T @ (allowed @ ortho))


def build_digraph_complex(g: Digraph, p_top: int, cap: int = DEFAULT_PATH_CAP) -> ChainComplex:
    return build_complex(anchor_path_table(g, p_top, cap))


def build_hypergraph_complex(h: Hypergraph, p_top: int, cap: int = DEFAULT_PATH_CAP) -> ChainComplex:
    """The digraph complex of the symmetric closure of the essential graph."""
    return build_digraph_complex(symmetric_closure(essential_graph(h)), p_top, cap)


def omega2_generators_fast(g: Digraph, paths2: list[Path]) -> QMatrix:
    """Degree-2 invariant space via the triangle/square characterization.

    Triangles (v0, v1, v2) with v0 -> v2 an edge enter singly; the remaining
    sequences contribute consecutive differences within each (v0, v2) group.
    Cross-checked against the kernel construction in the tests; the kernel
    method stays authoritative.
    """
    eset = set(g.edges)
    groups: dict[tuple[int, int], list[int]] = {}
    for j, (a, b, c) in enumerate(paths2):
        groups.setdefault((a, c), []).append(j)
    cols: list[dict[int, int]] = []
    for (a, c), members in sorted(groups.items()):
        if a != c and (a, c) in eset:
            for j in members:
                cols.append({j: 1})
        else:
            for j_prev, j_next in zip(members, members[1:]):
                cols.append({j_prev: 1, j_next: -1})
    out = QMatrix(len(paths2), len(cols))
    for k, col in enumerate(cols):
        for j, coeff in col.items():
            out.data[j][k] = coeff
    return out


# ---------------------------------------------------------------------------
# Generic ambient complexes and infimum/supremum subcomplexes


class AmbientComplex(ExactComplex):
    """Explicit basis labels and exact boundary matrices for degrees 0..p_top."""

    def __init__(self, labels: list[list[Path]], boundaries: list[QMatrix]):
        super().__init__(boundaries)
        self.labels = labels


def deletion_closure_complex(paths_per_degree: list[list[Path]]) -> AmbientComplex:
    """Smallest elementary-path complex containing the given spans.

    Working inside this closure instead of the full sequence space keeps the
    ambient dimensions proportional to the input, with identical subcomplexes.
    """
    top = len(paths_per_degree) - 1
    labels: list[set[Path]] = [set(ps) for ps in paths_per_degree]
    for k in range(top, 0, -1):
        for path in labels[k]:
            for _, sub in boundary_terms(path):
                labels[k - 1].add(sub)
    sorted_labels = [sorted(ls) for ls in labels]
    boundaries = [QMatrix(0, len(sorted_labels[0]))]
    for k in range(1, top + 1):
        rows = {p: i for i, p in enumerate(sorted_labels[k - 1])}
        b = QMatrix(len(sorted_labels[k - 1]), len(sorted_labels[k]))
        for j, path in enumerate(sorted_labels[k]):
            for sub, coeff in boundary_of_path(path).items():
                b.data[rows[sub]][j] = coeff
        boundaries.append(b)
    return AmbientComplex(sorted_labels, boundaries)


def embed_paths(sub: list[Path], ambient: list[Path]) -> QMatrix:
    """0/1 embedding matrix sending the sub path list into the ambient one."""
    index = {p: i for i, p in enumerate(ambient)}
    out = QMatrix(len(ambient), len(sub))
    for j, p in enumerate(sub):
        out.data[index[p]][j] = 1
    return out


class SubcomplexRep(ExactComplex):
    """Per-degree bases (ambient coordinates) plus restricted boundary maps."""

    def __init__(self, bases: list[QMatrix], boundaries: list[QMatrix]):
        super().__init__(boundaries)
        self.bases = bases


def _restricted_boundaries(ambient: AmbientComplex, bases: list[QMatrix]) -> list[QMatrix]:
    boundaries = [QMatrix(0, bases[0].cols)]
    for k in range(1, len(bases)):
        boundaries.append(qa.solve(bases[k - 1], ambient.boundaries[k] @ bases[k]))
    return boundaries


def infimum_complex(ambient: AmbientComplex, submodules: list[QMatrix]) -> SubcomplexRep:
    """Largest subcomplex inside the graded family: A_k ∩ boundary-preimage(A_{k-1})."""
    bases = [qa.column_space_basis(submodules[0])]
    for k in range(1, len(submodules)):
        pre = qa.preimage_basis(ambient.boundaries[k], bases[k - 1])
        bases.append(qa.intersection_basis(submodules[k], pre))
    return SubcomplexRep(bases, _restricted_boundaries(ambient, bases))


def supremum_complex(ambient: AmbientComplex, submodules: list[QMatrix]) -> SubcomplexRep:
    """Smallest subcomplex containing the graded family: A_k + boundary(A_{k+1})."""
    top = len(submodules) - 1
    bases = []
    for k in range(top + 1):
        if k < top:
            bases.append(qa.sum_space_basis(submodules[k], ambient.boundaries[k + 1] @ submodules[k + 1]))
        else:
            bases.append(qa.column_space_basis(submodules[k]))
    return SubcomplexRep(bases, _restricted_boundaries(ambient, bases))
