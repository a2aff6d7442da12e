"""Chain-complex machinery for path and hypergraph complexes.

Builds, per degree, the boundary-invariant subspace of the span of anchor
sequences, the exact boundary matrices between those subspaces, and float
orthonormal bases for the operator layer, formed on first read. Also
provides the generic infimum/supremum subcomplex constructions used both as
an independent cross-check and for embedded homology.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import rational as qa
from .errors import StructuralError
from .graphs import DEFAULT_PATH_CAP, Digraph, Hypergraph, anchor_path_table, walk_digraph
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
    paths_k: list[Path], paths_km1: list[Path], boundary_of=boundary_of_path
) -> tuple[QMatrix, QMatrix]:
    """Boundary of the degree-k span, split by row membership in the allowed list.

    Returns (allowed_block, disallowed_block): stacking the blocks reproduces the
    boundary restricted to the allowed degree-k paths; disallowed rows are indexed,
    in sorted order, by the elementary sequences outside paths_km1.
    """
    index = {p: i for i, p in enumerate(paths_km1)}
    cols = [boundary_of(p) for p in paths_k]
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
    return allowed, disallowed


@dataclass
class DegreeData:
    """One degree's exact data, and what is formed from it on first read: its
    image, boundary and rank, and its float blocks."""

    paths: list[Path]
    omega: QMatrix  # columns: basis of the degree's space, path coordinates
    allowed: QMatrix  # boundary into path coordinates of degree k-1
    prev: DegreeData | None  # degree k-1; None at degree 0
    stage: DegreeData | None = None  # auxiliary only: the stage degree whose block it shares

    @functools.cached_property
    def image(self) -> QMatrix:  # the boundary in path coordinates of degree k-1
        # a basis as wide as its degree is the identity
        return self.allowed if self.omega.cols == self.omega.rows else self.allowed @ self.omega

    @functools.cached_property
    def boundary(self) -> QMatrix:  # the image re-expressed in the previous degree's basis
        prev = self.prev
        if prev is None or prev.omega.cols == prev.omega.rows:
            return self.image
        return qa.solve(prev.omega, self.image)  # raises unless it lands in degree k-1

    @functools.cached_property
    def rank(self) -> int:
        """Exact rank of the boundary. Every stage-b cycle lies in an auxiliary
        degree, so there it is dim C_k - dim ker ∂_k(b)."""
        if self.stage is not None:
            return self.omega.cols - self.stage.omega.cols + self.stage.rank
        return qa.rank(self.boundary)

    @functools.cached_property
    def allowed_block(self) -> np.ndarray:  # converted once per stage degree
        return self.allowed.to_float() if self.stage is None else self.stage.allowed_block

    @functools.cached_property
    def ortho(self) -> np.ndarray:  # orthonormal basis, path coordinates
        return orthonormal_basis(self.omega)

    @functools.cached_property
    def boundary_ortho(self) -> np.ndarray:  # boundary in orthonormal bases
        if self.prev is None:
            return np.zeros((0, self.omega.cols))
        return self.prev.ortho.T @ (self.allowed_block @ self.ortho)


class ChainComplex:
    """Per-degree bases with exact and orthonormal boundary data, and the ranks and
    Betti numbers they fix; degree k's dimension is its basis's column count.

    Stage complexes and deletion closures come from `build_complex`, which
    asserts ∂∂ = 0.
    """

    def __init__(self, degrees: list[DegreeData]):
        self.degrees = degrees
        self.p_top = len(degrees) - 1

    def dim(self, k: int) -> int:
        return self.degrees[k].omega.cols if 0 <= k <= self.p_top else 0

    def boundary_rank(self, k: int) -> int:
        """Exact rank of the boundary map out of degree k (0 beyond the built range)."""
        return self.degrees[k].rank if 1 <= k <= self.p_top else 0

    def guard_degree(self, k: int) -> None:
        """Refuse a degree k unless degrees k and k+1 are both built: the Betti
        number, Laplacian and Dirac operator of degree k read both."""
        if not 0 <= k < self.p_top:
            raise ValueError(f"degree {k} is outside 0..{self.p_top - 1}, "
                             "the degrees built with the next one")

    def betti(self, k: int) -> int:
        """Exact Betti number."""
        self.guard_degree(k)
        return self.dim(k) - self.boundary_rank(k) - self.boundary_rank(k + 1)

    def betti_vector(self) -> list[int]:
        return [self.betti(k) for k in range(self.p_top)]

    def down_nullity(self, k: int) -> int:
        """Exact kernel dimension of the boundary map out of degree k."""
        return self.dim(k) - self.boundary_rank(k)


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
    ones = (j for row in basis.data if len(row) == 1 for j, x in row.items() if x == 1)
    if sum(map(len, basis.data)) == basis.cols and sorted(ones) == list(range(basis.cols)):
        return basis.to_float()
    w = basis.to_float()
    q, r = np.linalg.qr(w)
    diag = np.diag(r)
    if np.any(np.abs(diag) < 1e-12):
        raise StructuralError("rank-deficient basis passed to orthonormalization")
    q = q * np.sign(diag)
    return q


def build_complex(paths_per_degree: list[list[Path]], boundary_of=boundary_of_path) -> ChainComplex:
    """Invariant subspaces and boundaries from per-degree anchor path lists.

    Degree k basis: exact kernel of the disallowed block of the boundary
    (vectors whose boundary stays inside the allowed degree-(k-1) span);
    degree 0 is the full vertex span. The exact boundary is re-expressed in
    the previous degree's basis, which is always solvable because a boundary
    of an invariant vector is itself invariant. `boundary_of` may be a cache.
    The only place ∂∂ = 0 is asserted, so a nonzero composition never reaches
    an operator.
    """
    for k in range(1, len(paths_per_degree)):
        prev = set(paths_per_degree[k - 1])
        for path in paths_per_degree[k]:
            if path[1:] not in prev or path[:-1] not in prev:
                raise StructuralError(
                    f"allowed path lists are not prefix/suffix closed at degree {k}: {path}"
                )
    n0 = len(paths_per_degree[0])
    degrees = [DegreeData(paths_per_degree[0], QMatrix.identity(n0), QMatrix(0, n0), None)]
    for k in range(1, len(paths_per_degree)):
        paths_k = paths_per_degree[k]
        allowed, disallowed = split_boundary(paths_k, paths_per_degree[k - 1], boundary_of)
        # with no disallowed row (degree 1 of a digraph) omega is the identity
        omega = qa.kernel_basis(disallowed) if disallowed.rows else QMatrix.identity(len(paths_k))
        d = DegreeData(paths_k, omega, allowed, degrees[k - 1])
        if k >= 2 and not (d.prev.boundary @ d.boundary).is_zero():
            raise StructuralError(f"boundary composition at degree {k} is nonzero")
        degrees.append(d)
    return ChainComplex(degrees)


def build_digraph_complex(g: Digraph, p_top: int, cap: int = DEFAULT_PATH_CAP,
                          boundary_of=boundary_of_path) -> ChainComplex:
    return build_complex(anchor_path_table(g, p_top, cap), boundary_of)


def build_hypergraph_complex(h: Hypergraph, p_top: int,
                             cap: int = DEFAULT_PATH_CAP) -> ChainComplex:
    """The digraph complex of the walk digraph."""
    return build_digraph_complex(walk_digraph(h), p_top, cap)


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
# Deletion closures and their infimum/supremum subcomplexes


def deletion_closure_complex(paths_per_degree: list[list[Path]]) -> ChainComplex:
    """Smallest elementary-path complex containing the given spans.

    Working inside this closure instead of the full sequence space keeps the
    ambient dimensions proportional to the input, with identical subcomplexes.
    No boundary row leaves the closure, so each basis is the identity.
    """
    labels: list[set[Path]] = [set(ps) for ps in paths_per_degree]
    for k in range(len(labels) - 1, 0, -1):
        for path in labels[k]:
            for _, sub in boundary_terms(path):
                labels[k - 1].add(sub)
    return build_complex([sorted(ls) for ls in labels])


def embed_paths(sub: list[Path], ambient: list[Path]) -> QMatrix:
    """0/1 embedding matrix sending the sub path list into the ambient one."""
    index = {p: i for i, p in enumerate(ambient)}
    out = QMatrix(len(ambient), len(sub))
    for j, p in enumerate(sub):
        out.data[index[p]][j] = 1
    return out


def _subcomplex(ambient: ChainComplex, bases: list[QMatrix]) -> ChainComplex:
    """The subcomplex with these per-degree bases in ambient path coordinates.

    Each degree's boundary is formed as it is built, which raises unless the
    restricted boundary lands in the subcomplex.
    """
    degrees: list[DegreeData] = []
    for k, (a, basis) in enumerate(zip(ambient.degrees, bases)):
        d = DegreeData(a.paths, basis, a.allowed, degrees[k - 1] if k else None)
        d.boundary  # formed now, so a boundary that leaves the subcomplex raises here
        degrees.append(d)
    return ChainComplex(degrees)


def infimum_complex(ambient: ChainComplex, submodules: list[QMatrix]) -> ChainComplex:
    """Largest subcomplex inside the graded family: A_k ∩ boundary-preimage(A_{k-1})."""
    bases = [qa.column_space_basis(submodules[0])]
    for k in range(1, len(submodules)):
        pre = qa.preimage_basis(ambient.degrees[k].allowed, bases[k - 1])
        bases.append(qa.intersection_basis(submodules[k], pre))
    return _subcomplex(ambient, bases)


def supremum_complex(ambient: ChainComplex, submodules: list[QMatrix]) -> ChainComplex:
    """Smallest subcomplex containing the graded family: A_k + boundary(A_{k+1})."""
    top = len(submodules) - 1
    bases = [qa.sum_space_basis(submodules[k], ambient.degrees[k + 1].allowed @ submodules[k + 1])
             for k in range(top)]
    return _subcomplex(ambient, bases + [qa.column_space_basis(submodules[top])])
