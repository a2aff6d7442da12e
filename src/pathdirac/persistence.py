"""Filtrations, auxiliary complexes, and persistent Laplacian/Dirac operators.

For a nested pair of stages (a, b) the auxiliary complex collects, per
degree, the vectors of the larger stage whose boundary already lies in the
smaller stage's invariant space. Persistent operators live on that complex;
their kernels are pinned by exact rational ranks exactly as in the ordinary
case.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import rational as qa
from .chain import (
    ChainComplex,
    DegreeData,
    boundary_of_path,
    build_digraph_complex,
    embed_paths,
)
from .errors import StructuralError
from .graphs import DEFAULT_PATH_CAP, Digraph, Hypergraph, walk_digraph
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


def threshold_problem(thresholds) -> str | None:
    """Why these thresholds cannot index the stages of a filtration, or None if they can."""
    if not all(map(math.isfinite, thresholds)):
        return "thresholds must be finite"
    if any(s >= t for s, t in zip(thresholds, thresholds[1:])):
        return "thresholds must be strictly increasing"


def missing_element(stage: Stage, later: Stage) -> str | None:
    """The first vertex, then edge or hyperedge, of a stage that a later stage lacks,
    written as in a graph file; None when the stages nest."""

    def elements(g):
        name, edges = ("edge", g.edges) if isinstance(g, Digraph) else ("hyperedge", g.hyperedges)
        return [("vertex", (v,)) for v in g.vertices] + [(name, e) for e in edges]

    have = set(elements(later))
    missing = next((x for x in elements(stage) if x not in have), None)
    return missing and f"{missing[0]} `{' '.join(map(str, missing[1]))}`"


@dataclass(frozen=True)
class Filtration:
    """Monotone sequence of digraphs or hypergraphs, stages indexed from 1."""

    stages: tuple[Stage, ...]

    @classmethod
    def of(cls, stages) -> "Filtration":
        stages = tuple(stages)
        if not stages:
            raise StructuralError("a filtration needs at least one stage")
        if len({type(s) for s in stages}) != 1:
            raise StructuralError("filtration stages must all be digraphs or all hypergraphs")
        for i in range(len(stages) - 1):
            if missing := missing_element(stages[i], stages[i + 1]):
                raise StructuralError(f"filtration nesting violated: stage {i + 2} lacks "
                                      f"{missing} of stage {i + 1}")
        return cls(stages)

    def __len__(self) -> int:
        return len(self.stages)


class StageComplexes:
    """Per-stage chain complexes of a filtration, built once and shared; each
    path's boundary is formed once for all the stages that hold the path."""

    def __init__(self, filtration: Filtration, p_top: int, cap: int = DEFAULT_PATH_CAP):
        self.filtration = filtration
        self.p_top = p_top
        boundary_of = functools.cache(boundary_of_path)  # shared by every stage
        self.complexes = [build_digraph_complex(walk_digraph(s), p_top, cap, boundary_of)
                          for s in filtration.stages]

    def __len__(self) -> int:
        return len(self.complexes)

    def stage(self, i: int) -> ChainComplex:
        """1-based stage access."""
        if not 1 <= i <= len(self.complexes):
            raise ValueError(f"stage index {i} out of range 1..{len(self.complexes)}")
        return self.complexes[i - 1]


def auxiliary_complex(stages: StageComplexes, a: int, b: int) -> ChainComplex:
    """Auxiliary complex of the stage pair a <= b to the built degree, in stage-b
    coordinates.

    Degree k holds the stage-b vectors whose boundary lies in the stage-a
    space; its Betti numbers and Dirac operator are those of any complex. A
    degree it rebuilds shares stage b's paths and float block, and its ∂∂ = 0
    follows from stage b's.
    """
    if not 1 <= a <= b <= len(stages):
        raise ValueError(f"invalid stage pair ({a}, {b})")
    ca = stages.stage(a)
    cb = stages.stage(b)
    degrees: list[DegreeData] = [cb.degrees[0]]
    for k in range(1, stages.p_top + 1):
        # ∂x of x in Ω_k(b) is a cycle, so it lies in Ω_{k-1}(a) exactly when it
        # vanishes on the (k-1)-paths of b that are not paths of a: C_k is the kernel
        # of the rows of stage b's image (∂_k(b) in path coordinates) at those paths.
        d_k, prev, kept = cb.degrees[k], cb.degrees[k - 1], set(ca.degrees[k - 1].paths)
        rows = [row for path, row in zip(prev.paths, d_k.image.data) if path not in kept]
        leave = QMatrix(len(rows), d_k.omega.cols, rows)
        if degrees[k - 1] is prev and leave.is_zero():
            # C_{k-1} is Ω_{k-1}(b) and no boundary leaves stage a, so C_k is Ω_k(b)
            degrees.append(d_k)
            continue
        c_k = qa.preimage_basis(leave, QMatrix(leave.rows, 0))  # C_k in the Ω_k(b) basis
        degrees.append(DegreeData(d_k.paths, d_k.omega @ c_k, d_k.allowed, degrees[k - 1],
                                  stage=d_k))
    return ChainComplex(degrees)


def persistent_dirac(aux: ChainComplex, p: int,
                     dense_limit: int = DEFAULT_DENSE_LIMIT) -> Dirac:
    """Dirac operator of the auxiliary complex over degree blocks 0..p+1."""
    return dirac(aux, p, dense_limit)


def persistent_laplacian(stage_a: ChainComplex, aux: ChainComplex, n: int) -> Laplacian:
    """Persistent Laplacian on the stage-a degree-n space.

    Down part from the stage-a boundary; up part from the boundary of the
    auxiliary degree-(n+1) space, read at stage a's rows of stage b's paths.
    """
    if not 0 <= n <= aux.p_top - 1:
        raise ValueError(f"persistent laplacian degree {n} needs stages built to degree {n + 1}")
    d_a, up = stage_a.degrees[n], aux.degrees[n + 1]
    # the auxiliary degrees share stage b's paths and allowed blocks
    index = {path: i for i, path in enumerate(aux.degrees[n].paths)}
    if missing := next((path for path in d_a.paths if path not in index), None):
        raise ValueError(f"stage a's degree-{n} path {missing} is not a path of the pair complex")
    rows = [index[path] for path in d_a.paths]
    down = d_a.boundary_ortho.T @ d_a.boundary_ortho
    m = d_a.ortho.T @ (up.allowed_block[rows] @ up.ortho)
    # The auxiliary boundary lands in the stage-a space, whose basis is injective
    # in stage b, so its rank is the rank of the map into stage a.
    nullity = stage_a.dim(n) - stage_a.boundary_rank(n) - aux.boundary_rank(n + 1)
    return Laplacian(n, m @ m.T + down, nullity)


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
        if feature_names.count(name) > 1:
            raise ValueError(f"feature {name!r} is repeated")
    size = len(stages)
    grid = FeatureGrid(p, size, tuple(feature_names))
    pairs = [(n, m) for n in range(1, size + 1) for m in range(n, size + 1)]

    def cell(pair):
        n, m = pair
        aux = auxiliary_complex(stages, n, m)
        d = persistent_dirac(aux, p, dense_limit)
        return features(eigen_spectrum(d.matrix, d.exact_nullity))

    if jobs > 1:  # pool.map, like map, yields the results in `pairs` order
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            grid.cells.update(zip(pairs, pool.map(cell, pairs)))
    else:
        grid.cells.update(zip(pairs, map(cell, pairs)))
    return grid
