"""Filtrations, auxiliary complexes, and persistent Laplacian/Dirac operators.

For a nested pair of stages (a, b) the auxiliary complex collects, per
degree, the vectors of the larger stage whose boundary already lies in the
smaller stage's invariant space. Persistent operators live on that complex;
their kernels are pinned by exact rational ranks exactly as in the ordinary
case.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import rational as qa
from .chain import (
    ChainComplex,
    DegreeData,
    build_digraph_complex,
    build_hypergraph_complex,
    degree_data,
    embed_paths,
)
from .errors import StructuralError
from .graphs import DEFAULT_PATH_CAP, Digraph, Hypergraph
from .operators import (
    DEFAULT_DENSE_LIMIT,
    Dirac,
    FeatureSet,
    Laplacian,
    dirac,
    eigen_spectrum,
    features,
)
from .rational import QMatrix

Stage = Digraph | Hypergraph


@dataclass(frozen=True)
class Filtration:
    """Monotone sequence of digraphs or hypergraphs, stages indexed from 1."""

    stages: tuple[Stage, ...]
    thresholds: tuple[float, ...] | None = None

    @classmethod
    def of(cls, stages, thresholds=None) -> "Filtration":
        stages = tuple(stages)
        if not stages:
            raise StructuralError("a filtration needs at least one stage")
        kinds = {type(s) for s in stages}
        if len(kinds) != 1:
            raise StructuralError("filtration stages must all be digraphs or all hypergraphs")
        if thresholds is not None:
            thresholds = tuple(float(t) for t in thresholds)
            if len(thresholds) != len(stages):
                raise StructuralError("threshold count must match stage count")
            if not all(math.isfinite(t) for t in thresholds):
                raise StructuralError("thresholds must be finite")
            if not all(a < b for a, b in zip(thresholds, thresholds[1:])):
                raise StructuralError("thresholds must be strictly increasing")
        for i in range(len(stages) - 1):
            ok = (
                stages[i].is_subgraph_of(stages[i + 1])
                if isinstance(stages[i], Digraph)
                else stages[i].is_subhypergraph_of(stages[i + 1])
            )
            if not ok:
                raise StructuralError(
                    f"filtration nesting violated between stages {i + 1} and {i + 2}"
                )
        return cls(stages, thresholds)

    def __len__(self) -> int:
        return len(self.stages)


class StageComplexes:
    """Per-stage chain complexes of a filtration, built once and shared."""

    def __init__(self, filtration: Filtration, p_top: int, cap: int = DEFAULT_PATH_CAP):
        self.filtration = filtration
        self.p_top = p_top
        build = (
            build_digraph_complex
            if isinstance(filtration.stages[0], Digraph)
            else build_hypergraph_complex
        )
        self.complexes: list[ChainComplex] = [build(s, p_top, cap) for s in filtration.stages]

    def __len__(self) -> int:
        return len(self.complexes)

    def stage(self, i: int) -> ChainComplex:
        """1-based stage access."""
        if not 1 <= i <= len(self.complexes):
            raise ValueError(f"stage index {i} out of range 1..{len(self.complexes)}")
        return self.complexes[i - 1]


class AuxiliaryComplex(ChainComplex):
    """Preimage complex of a stage pair (a <= b), in stage-b coordinates.

    Degree k holds the stage-b vectors whose boundary lies in the stage-a
    space; its Betti numbers and Dirac operator are those of any complex.
    """

    def __init__(self, a: int, b: int, stage_a: ChainComplex, stage_b: ChainComplex,
                 c_bases: list[QMatrix], degrees: list[DegreeData]):
        super().__init__(degrees)
        self.a, self.b = a, b
        self.stage_a, self.stage_b = stage_a, stage_b
        self.c_bases = c_bases  # auxiliary space bases in the stage-b basis

    def boundary_rank(self, k: int) -> int:
        """dim C_k - dim ker ∂_k(b): every stage-b cycle lies in C_k, so they share a kernel."""
        if not 1 <= k <= self.p_top:
            return 0
        return self.dim(k) - self.stage_b.down_nullity(k)


def auxiliary_complex(stages: StageComplexes, a: int, b: int) -> AuxiliaryComplex:
    """Build the auxiliary complex for the stage pair a <= b to the built degree."""
    if not 1 <= a <= b <= len(stages):
        raise ValueError(f"invalid stage pair ({a}, {b})")
    ca = stages.stage(a)
    cb = stages.stage(b)
    c_bases: list[QMatrix] = [QMatrix.identity(cb.dim(0))]
    degrees: list[DegreeData] = [cb.degrees[0]]
    for k in range(1, stages.p_top + 1):
        # ∂x of x in Ω_k(b) is a cycle, so it lies in Ω_{k-1}(a) exactly when it
        # vanishes on the (k-1)-paths of b that are not paths of a: C_k is the kernel
        # of the rows of omega_{k-1}(b) at those paths, times ∂_k(b).
        d_k, prev, kept = cb.degrees[k], cb.degrees[k - 1], set(ca.degrees[k - 1].paths)
        rows = [row for path, row in zip(prev.paths, prev.omega.data) if path not in kept]
        leave = QMatrix(len(rows), prev.omega.cols, rows)
        c_bases.append(qa.preimage_basis(leave @ d_k.boundary, QMatrix(leave.rows, 0)))
        boundary = qa.solve(c_bases[k - 1], d_k.boundary @ c_bases[k])
        degrees.append(degree_data(d_k.paths, d_k.omega @ c_bases[k], boundary,
                                   d_k.allowed_block, degrees[k - 1]))
    return AuxiliaryComplex(a, b, ca, cb, c_bases, degrees)


def persistent_dirac(aux: AuxiliaryComplex, p: int,
                     dense_limit: int = DEFAULT_DENSE_LIMIT) -> Dirac:
    """Dirac operator of the auxiliary complex over degree blocks 0..p+1."""
    return dirac(aux, p, dense_limit)


def persistent_laplacian(aux: AuxiliaryComplex, n: int) -> Laplacian:
    """Persistent Laplacian on the stage-a degree-n space.

    Down part from the stage-a boundary; up part from the boundary of the
    auxiliary degree-(n+1) space mapped into stage a.
    """
    if not 0 <= n <= aux.p_top - 1:
        raise ValueError(f"persistent laplacian degree {n} needs stages built to degree {n + 1}")
    ca, cb = aux.stage_a, aux.stage_b
    b_down = ca.degrees[n].boundary_ortho
    down = b_down.T @ b_down
    embed = embed_paths(ca.degrees[n].paths, cb.degrees[n].paths).to_float()
    q_a = embed @ ca.degrees[n].ortho
    m = q_a.T @ (cb.degrees[n + 1].allowed_block @ aux.degrees[n + 1].ortho)
    up = m @ m.T
    # The auxiliary boundary lands in the stage-a space, whose basis is injective
    # in stage b, so its rank is the rank of the map into stage a.
    nullity = ca.dim(n) - ca.boundary_rank(n) - aux.boundary_rank(n + 1)
    return Laplacian(n, up + down, up, down, nullity)


def persistent_betti(stages: StageComplexes, a: int, b: int, n: int) -> int:
    """Rank of the degree-n homology image from stage a into stage b."""
    if not 1 <= a <= b <= len(stages):
        raise ValueError(f"invalid stage pair ({a}, {b})")
    ca = stages.stage(a)
    cb = stages.stage(b)
    if n + 1 > stages.p_top:
        raise ValueError(f"persistent betti({n}) needs stages built to degree {n + 1}")
    cycles_a = qa.kernel_basis(ca.degrees[n].boundary)
    embed = embed_paths(ca.degrees[n].paths, cb.degrees[n].paths)
    emb_omega = embed @ ca.degrees[n].omega
    z_in_b = qa.solve(cb.degrees[n].omega, emb_omega) @ cycles_a
    return qa.rank(qa.hstack(z_in_b, cb.degrees[n + 1].boundary)) - cb.boundary_rank(n + 1)


@dataclass
class FeatureGrid:
    """Upper-triangular (n, m) map of spectral features of persistent operators."""

    degree: int
    size: int
    feature_names: tuple[str, ...]
    cells: dict[tuple[int, int], FeatureSet] = field(default_factory=dict)

    def rows(self) -> list[list]:
        out = []
        for n in range(1, self.size + 1):
            for m in range(n, self.size + 1):
                fs = self.cells[(n, m)]
                out.append([n, m] + [getattr(fs, name) for name in self.feature_names])
        return out


DEFAULT_FEATURES = ("nullity", "mean_pos", "gen_mean")


def feature_grid(
    stages: StageComplexes,
    p: int,
    feature_names: tuple[str, ...] = DEFAULT_FEATURES,
    jobs: int = 1,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> FeatureGrid:
    """Persistent Dirac features over every stage pair n <= m."""
    for name in feature_names:
        if name not in FeatureSet.FIELDS:
            raise ValueError(f"unknown feature {name!r}; choose from {FeatureSet.FIELDS}")
    size = len(stages)
    grid = FeatureGrid(p, size, tuple(feature_names))
    pairs = [(n, m) for n in range(1, size + 1) for m in range(n, size + 1)]

    def cell(pair):
        n, m = pair
        aux = auxiliary_complex(stages, n, m)
        d = persistent_dirac(aux, p, dense_limit)
        return pair, features(eigen_spectrum(d.matrix, d.exact_nullity))

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(cell, pairs))
    else:
        results = [cell(pair) for pair in pairs]
    for pair, fs in sorted(results, key=lambda item: item[0]):
        grid.cells[pair] = fs
    return grid
