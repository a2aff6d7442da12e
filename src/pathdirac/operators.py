"""Laplacian and Dirac operators, spectra, and scalar spectral features.

Zero eigenvalues are never decided by a floating threshold alone: the exact
rational nullity is computed first and the numerical tolerance is only
adjusted, inside a bounded window, until both agree.
"""

from __future__ import annotations

import itertools
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


def guard_size(n: int, dense_limit: int) -> None:
    if n > dense_limit:
        raise ResourceLimitError(
            f"dense operator of size {n} exceeds the limit of {dense_limit}"
        )


def laplacian(c: ChainComplex, n: int, dense_limit: int = DEFAULT_DENSE_LIMIT) -> Laplacian:
    """Degree-n Laplacian in the orthonormal bases: up part plus down part."""
    if not 0 <= n <= c.p_top - 1:
        raise ValueError(f"laplacian degree {n} needs the complex built to degree {n + 1}")
    guard_size(c.dim(n), dense_limit)
    b_n = c.degrees[n].boundary_ortho
    b_up = c.degrees[n + 1].boundary_ortho
    down = b_n.T @ b_n
    return Laplacian(n, b_up @ b_up.T + down, exact_nullity=c.betti(n))


def down_laplacian(c: ChainComplex, n: int, dense_limit: int = DEFAULT_DENSE_LIMIT) -> Laplacian:
    """Down part alone; its kernel witnesses the top term of the Dirac nullity."""
    if not 0 <= n <= c.p_top:
        raise ValueError(f"down laplacian degree {n} out of built range")
    guard_size(c.dim(n), dense_limit)
    b_n = c.degrees[n].boundary_ortho
    return Laplacian(n, b_n.T @ b_n, exact_nullity=c.down_nullity(n))


def dirac_from_blocks(blocks: list[np.ndarray], exact_nullity: int, degree: int) -> Dirac:
    """Assemble the symmetric block-tridiagonal matrix from boundary blocks.

    blocks[k] maps degree k+1 to degree k in orthonormal bases; the block
    sits above the diagonal with its transpose mirrored below.
    """
    dims = [b.shape[0] for b in blocks] + [blocks[-1].shape[1]] if blocks else []
    offsets = [0, *itertools.accumulate(dims)]
    m = np.zeros((offsets[-1], offsets[-1]))
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
    guard_size(sum(map(c.dim, range(p + 2))), dense_limit)  # before any float block is formed
    blocks = [c.degrees[k].boundary_ortho for k in range(1, p + 2)]
    nullity = sum(c.betti(i) for i in range(p + 1)) + c.down_nullity(p + 1)
    return dirac_from_blocks(blocks, nullity, p)


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
    if not np.isfinite(matrix).all():
        raise NumericalInconsistencyError(f"the {n}x{n} operator has a non-finite entry")
    if not np.array_equal(matrix, matrix.T):  # an exactly symmetric M is (M + Mᵀ)/2 bit for bit
        asym = np.max(np.abs(matrix - matrix.T))
        if asym > 1e-10:
            raise NumericalInconsistencyError(f"matrix is not symmetric (defect {asym:.3e})")
        matrix = (matrix + matrix.T) / 2.0
    try:
        values = np.linalg.eigvalsh(matrix)  # ascending
    except np.linalg.LinAlgError as exc:
        raise NumericalInconsistencyError(
            f"eigvalsh failed on the {n}x{n} operator: {exc}") from None
    if not 0 <= exact_nullity <= n:
        raise NumericalInconsistencyError(f"exact nullity {exact_nullity} outside [0, {n}]")
    magnitudes = np.abs(values)
    scale = max(1.0, float(np.max(magnitudes)))
    threshold = zero_tol * scale
    if int(np.count_nonzero(magnitudes <= threshold)) != exact_nullity:
        abs_sorted = np.sort(magnitudes)
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


def features(spec: Spectrum) -> FeatureSet:
    """Scalar features of the strictly positive part of a spectrum.

    Every feature of an empty positive spectrum is zero, including the mean
    and its mean absolute deviation. The positives ascend, and each value is
    bit for bit what np.mean, np.std, np.min and np.max return on them.
    """
    pos = spec.positives()
    n = len(pos)
    if n == 0:
        return FeatureSet(spec.exact_nullity, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    total = float(np.sum(pos))
    mean = total / n
    dev = pos - mean
    return FeatureSet(
        nullity=spec.exact_nullity,
        mean_pos=mean,
        gen_mean=float(np.sum(np.abs(dev)) / n),
        min_pos=float(pos[0]),
        max=float(pos[-1]),
        sum_pos=total,
        std_pos=float(np.sqrt(np.sum(dev * dev) / n)),
    )


def float_rank(matrix: np.ndarray) -> int:
    """Numerical rank via SVD (dual check for exact ranks) at 1e-8 * max(1, σ_max),
    scaled like `eigen_spectrum`'s zero class, so pure rounding noise has rank 0."""
    if matrix.size == 0:
        return 0
    s = np.linalg.svd(matrix, compute_uv=False)
    return int(np.sum(s > 1e-8 * max(1.0, s[0])))
