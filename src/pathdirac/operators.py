"""Laplacian and Dirac operators, spectra, and scalar spectral features.

Zero eigenvalues are never decided by a floating threshold alone: the exact
rational nullity is computed first and the numerical tolerance is only
adjusted, inside a bounded window, until both agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import ChainComplex
from .errors import NumericalInconsistencyError, ResourceLimitError

DEFAULT_ZERO_TOL = 1e-9
TOL_WINDOW = (1e-12, 1e-6)
DEFAULT_DENSE_LIMIT = 4000


@dataclass
class Laplacian:
    degree: int
    matrix: np.ndarray
    up: np.ndarray
    down: np.ndarray
    exact_nullity: int


@dataclass
class Dirac:
    degree: int
    matrix: np.ndarray
    block_offsets: list[int]  # start index of each degree block, plus the total size
    exact_nullity: int


@dataclass
class Spectrum:
    values: np.ndarray  # ascending
    zero_threshold: float  # absolute cut below which a value counts as zero
    exact_nullity: int

    def positives(self) -> np.ndarray:
        return self.values[self.values > self.zero_threshold]

    def zero_count(self) -> int:
        return int(np.sum(np.abs(self.values) <= self.zero_threshold))


@dataclass
class FeatureSet:
    nullity: int
    mean_pos: float
    gen_mean: float
    min_pos: float
    max: float
    sum_pos: float
    std_pos: float

    FIELDS = ("nullity", "mean_pos", "gen_mean", "min_pos", "max", "sum_pos", "std_pos")

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


def _guard_size(n: int, dense_limit: int) -> None:
    if n > dense_limit:
        raise ResourceLimitError(
            f"dense operator of size {n} exceeds the limit of {dense_limit}"
        )


def laplacian(c: ChainComplex, n: int, dense_limit: int = DEFAULT_DENSE_LIMIT) -> Laplacian:
    """Degree-n Laplacian in the orthonormal bases; up and down parts kept apart."""
    if not 0 <= n <= c.p_top - 1:
        raise ValueError(f"laplacian degree {n} needs the complex built to degree {n + 1}")
    dim = c.dim(n)
    _guard_size(dim, dense_limit)
    b_n = c.degrees[n].boundary_ortho
    b_up = c.degrees[n + 1].boundary_ortho
    down = b_n.T @ b_n
    up = b_up @ b_up.T
    return Laplacian(n, up + down, up, down, exact_nullity=c.betti(n))


def down_laplacian(c: ChainComplex, n: int, dense_limit: int = DEFAULT_DENSE_LIMIT) -> Laplacian:
    """Down part alone; its kernel witnesses the top term of the Dirac nullity."""
    if not 0 <= n <= c.p_top:
        raise ValueError(f"down laplacian degree {n} out of built range")
    dim = c.dim(n)
    _guard_size(dim, dense_limit)
    b_n = c.degrees[n].boundary_ortho
    down = b_n.T @ b_n
    return Laplacian(n, down, np.zeros_like(down), down, exact_nullity=c.down_nullity(n))


def dirac_from_blocks(blocks: list[np.ndarray], exact_nullity: int, degree: int,
                      dense_limit: int = DEFAULT_DENSE_LIMIT) -> Dirac:
    """Assemble the symmetric block-tridiagonal matrix from boundary blocks.

    blocks[k] maps degree k+1 to degree k in orthonormal bases; the block
    sits above the diagonal with its transpose mirrored below.
    """
    dims = [b.shape[0] for b in blocks] + [blocks[-1].shape[1]] if blocks else []
    total = sum(dims)
    _guard_size(total, dense_limit)
    offsets = [0]
    for d in dims:
        offsets.append(offsets[-1] + d)
    m = np.zeros((total, total))
    for k, b in enumerate(blocks):
        r0, r1 = offsets[k], offsets[k + 1]
        c0, c1 = offsets[k + 1], offsets[k + 2]
        m[r0:r1, c0:c1] = b
        m[c0:c1, r0:r1] = b.T
    return Dirac(degree, m, offsets, exact_nullity)


def dirac(c: ChainComplex, p: int, dense_limit: int = DEFAULT_DENSE_LIMIT) -> Dirac:
    """Degree-p Dirac operator over the degree blocks 0..p+1.

    Zero-dimensional degrees contribute empty blocks (no padding), so the
    exact nullity always equals the sum of the Betti numbers through degree p
    plus the kernel dimension of the top boundary map.
    """
    if not 0 <= p <= c.p_top - 1:
        raise ValueError(f"dirac degree {p} needs the complex built to degree {p + 1}")
    blocks = [c.degrees[k].boundary_ortho for k in range(1, p + 2)]
    nullity = sum(c.betti(i) for i in range(p + 1)) + c.down_nullity(p + 1)
    return dirac_from_blocks(blocks, nullity, p, dense_limit)


def eigen_spectrum(matrix: np.ndarray, exact_nullity: int,
                   zero_tol: float = DEFAULT_ZERO_TOL) -> Spectrum:
    """Symmetric eigendecomposition with the zero class pinned to the exact nullity.

    If the requested tolerance misclassifies, the threshold slides within
    TOL_WINDOW (relative) to reconcile; failure to reconcile is an error,
    not a silent reinterpretation. So the zero class is always the
    `exact_nullity` smallest |λ|, and no zero_tol inside TOL_WINDOW changes
    `values`, `positives()` or an error; only `zero_threshold` moves.
    zero_tol stays a parameter because perfbench/tracing.py reads its default
    through `inspect.signature` to count threshold slides.
    """
    n = matrix.shape[0]
    if n == 0:
        return Spectrum(np.zeros(0), zero_tol, exact_nullity=0)
    asym = np.max(np.abs(matrix - matrix.T))
    if asym > 1e-10:
        raise NumericalInconsistencyError(f"matrix is not symmetric (defect {asym:.3e})")
    try:
        values = np.sort(np.linalg.eigvalsh((matrix + matrix.T) / 2.0))
    except np.linalg.LinAlgError as exc:
        raise NumericalInconsistencyError(
            f"eigvalsh failed on the {n}x{n} operator: {exc}") from None
    if not 0 <= exact_nullity <= n:
        raise NumericalInconsistencyError(f"exact nullity {exact_nullity} outside [0, {n}]")
    scale = max(1.0, float(np.max(np.abs(values))))
    abs_sorted = np.sort(np.abs(values))
    threshold = zero_tol * scale
    if int(np.sum(abs_sorted <= threshold)) != exact_nullity:
        lo = abs_sorted[exact_nullity - 1] / scale if exact_nullity > 0 else 0.0
        hi = abs_sorted[exact_nullity] / scale if exact_nullity < n else np.inf
        t_lo, t_hi = TOL_WINDOW
        if lo > t_hi or hi <= t_lo:
            raise NumericalInconsistencyError(
                f"cannot reconcile zero count with exact nullity {exact_nullity}: "
                f"|λ| gap ({lo:.3e}, {hi:.3e}) misses the window [{t_lo:.0e}, {t_hi:.0e}]"
            )
        pick = np.sqrt(max(lo, t_lo) * min(hi, t_hi)) if np.isfinite(hi) else max(lo, t_lo) * 10
        pick = min(max(pick, t_lo), t_hi)
        threshold = pick * scale
        if int(np.sum(abs_sorted <= threshold)) != exact_nullity:
            raise NumericalInconsistencyError(
                f"zero count at adjusted threshold still disagrees with nullity {exact_nullity}"
            )
    return Spectrum(values, threshold, exact_nullity)


def spectrum_symmetry_defect(spec: Spectrum) -> float:
    """Max distance between the spectrum and its negation (0 for Dirac spectra)."""
    if len(spec.values) == 0:
        return 0.0
    return float(np.max(np.abs(spec.values + spec.values[::-1])))


def features(spec: Spectrum) -> FeatureSet:
    """Scalar features of the strictly positive part of a spectrum.

    Every feature of an empty positive spectrum is zero, including the mean
    and its mean absolute deviation.
    """
    pos = spec.positives()
    if len(pos) == 0:
        return FeatureSet(spec.exact_nullity, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    mean = float(np.mean(pos))
    gen_mean = float(np.mean(np.abs(pos - mean)))
    return FeatureSet(
        nullity=spec.exact_nullity,
        mean_pos=mean,
        gen_mean=gen_mean,
        min_pos=float(np.min(pos)),
        max=float(np.max(pos)),
        sum_pos=float(np.sum(pos)),
        std_pos=float(np.std(pos)),
    )


@dataclass
class DiracSquareReport:
    degree: int
    passed: bool
    off_block_defect: float
    exact_nullity: int
    symmetry_defect: float
    float_nullity: int  # operator size minus its SVD rank
    zero_count: int  # eigenvalues inside the spectrum's zero threshold
    spectrum: Spectrum
    detail: str


def verify_dirac_square(c: ChainComplex, p: int,
                        laplacians: list[Laplacian] | None = None) -> DiracSquareReport:
    """Check D_p^2 against the Laplacian block diagonal and its spectrum's symmetry.

    The square must match blockdiag(L_0, ..., L_p, Down_{p+1}) entrywise to 1e-10, L_i
    from `laplacians` if given. The exact nullity is the Betti-sum form by construction
    (see `dirac`), so the report carries the float-rank form and the zero count to test
    it against.
    """
    if laplacians is None:
        laplacians = [laplacian(c, i) for i in range(p + 1)]
    d = dirac(c, p)
    square = d.matrix @ d.matrix
    offsets = d.block_offsets
    blocks = [lap.matrix for lap in laplacians[: p + 1]] + [down_laplacian(c, p + 1).matrix]
    expect = np.zeros_like(square)
    for k, blk in enumerate(blocks):
        r0, r1 = offsets[k], offsets[k + 1]
        expect[r0:r1, r0:r1] = blk
    off_defect = float(np.max(np.abs(square - expect))) if square.size else 0.0
    nullity = d.exact_nullity
    spec = eigen_spectrum(d.matrix, nullity)
    sym = spectrum_symmetry_defect(spec)
    passed = off_defect <= 1e-10 and sym <= 1e-8
    # both sides of the printed identity are the exact nullity
    detail = f"square defect {off_defect:.3e}, nullity {nullity} vs {nullity}, spectrum symmetry {sym:.3e}"
    float_nullity = d.matrix.shape[0] - float_rank(d.matrix)
    zeros = spec.zero_count()
    return DiracSquareReport(p, passed, off_defect, nullity, sym, float_nullity, zeros, spec, detail)


def float_rank(matrix: np.ndarray) -> int:
    """Numerical rank via SVD at a relative tolerance of 1e-8 (dual check for exact ranks)."""
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix, compute_uv=False)
    if len(s) == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > 1e-8 * s[0]))
