"""Path and hypergraph Dirac/Laplacian operators with persistence.

Builds the boundary-invariant chain complexes spanned by walk sequences of
digraphs and hypergraphs, assembles their Laplacian and Dirac operators,
computes persistent variants over filtrations, and extracts spectral
features. Exact rational arithmetic backs every rank and kernel dimension;
floating point is used only for eigenvalues.
"""

from .chain import (
    ChainComplex,
    boundary_of_path,
    build_digraph_complex,
    build_hypergraph_complex,
    deletion_closure_complex,
    infimum_complex,
    supremum_complex,
)
from .errors import (
    NumericalInconsistencyError,
    ParseError,
    PathDiracError,
    ResourceLimitError,
    StructuralError,
)
from .graphs import Digraph, Hypergraph, h1_rank, walk_digraph
from .molecules import (
    Atom,
    Molecule,
    WeightedDigraph,
    bond_digraph,
    distance_filtration,
    load_molecule,
    parse_xyz,
)
from .operators import (
    Dirac,
    FeatureSet,
    Laplacian,
    Spectrum,
    dirac,
    down_laplacian,
    eigen_spectrum,
    features,
    laplacian,
)
from .persistence import (
    FeatureGrid,
    Filtration,
    StageComplexes,
    auxiliary_complex,
    feature_grid,
    persistent_betti,
    persistent_dirac,
    persistent_laplacian,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "ChainComplex",
    "Digraph",
    "Dirac",
    "FeatureGrid",
    "FeatureSet",
    "Filtration",
    "Hypergraph",
    "Laplacian",
    "Molecule",
    "NumericalInconsistencyError",
    "ParseError",
    "PathDiracError",
    "ResourceLimitError",
    "Spectrum",
    "StageComplexes",
    "StructuralError",
    "WeightedDigraph",
    "auxiliary_complex",
    "bond_digraph",
    "boundary_of_path",
    "build_digraph_complex",
    "build_hypergraph_complex",
    "deletion_closure_complex",
    "dirac",
    "distance_filtration",
    "down_laplacian",
    "eigen_spectrum",
    "feature_grid",
    "features",
    "h1_rank",
    "infimum_complex",
    "laplacian",
    "load_molecule",
    "parse_xyz",
    "persistent_betti",
    "persistent_dirac",
    "persistent_laplacian",
    "supremum_complex",
    "walk_digraph",
]
