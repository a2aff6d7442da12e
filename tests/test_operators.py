"""Laplacian/Dirac assembly, spectra, feature extraction, and identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathdirac import Digraph, build_digraph_complex
from pathdirac.errors import NumericalInconsistencyError, ResourceLimitError
from pathdirac.operators import (
    TOL_WINDOW,
    Spectrum,
    dirac,
    down_laplacian,
    eigen_spectrum,
    features,
    float_rank,
    laplacian,
    spectrum_symmetry_defect,
    verify_dirac_square,
)

CYCLIC = Digraph.of([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
TRANSITIVE = Digraph.of([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
SQRT3 = np.sqrt(3.0)

CIRCULANT = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])


@pytest.fixture(scope="module")
def cyclic_complex():
    return build_digraph_complex(CYCLIC, 2)


@pytest.fixture(scope="module")
def transitive_complex():
    return build_digraph_complex(TRANSITIVE, 2)


def test_laplacian_cyclic_degree0(cyclic_complex):
    lap = laplacian(cyclic_complex, 0)
    np.testing.assert_allclose(lap.matrix, CIRCULANT, atol=1e-12)
    spec = eigen_spectrum(lap.matrix, lap.exact_nullity)
    np.testing.assert_allclose(spec.values, [0.0, 3.0, 3.0], atol=1e-9)


def test_laplacian_cyclic_degree1_same_spectrum(cyclic_complex):
    lap = laplacian(cyclic_complex, 1)
    np.testing.assert_allclose(lap.matrix, CIRCULANT, atol=1e-12)
    spec = eigen_spectrum(lap.matrix, lap.exact_nullity)
    np.testing.assert_allclose(spec.values, [0.0, 3.0, 3.0], atol=1e-9)


def test_laplacian_transitive_degree1(transitive_complex):
    lap = laplacian(transitive_complex, 1)
    spec = eigen_spectrum(lap.matrix, lap.exact_nullity)
    np.testing.assert_allclose(spec.values, [3.0, 3.0, 3.0], atol=1e-9)


def test_laplacian_degree_out_of_range(cyclic_complex):
    with pytest.raises(ValueError):
        laplacian(cyclic_complex, 2)


def test_dirac_cyclic_matrix(cyclic_complex):
    d = dirac(cyclic_complex, 0)
    b1 = np.array([[-1.0, 0.0, 1.0], [1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    expected = np.block([[np.zeros((3, 3)), b1], [b1.T, np.zeros((3, 3))]])
    np.testing.assert_array_equal(d.matrix, expected)
    assert d.block_offsets == [0, 3, 6]


def test_dirac_zero_complex():
    g = Digraph.of([], [])
    c = build_digraph_complex(g, 1)
    d = dirac(c, 0)
    assert d.matrix.shape == (0, 0)
    assert d.exact_nullity == 0


def test_dirac_transitive_spectrum(transitive_complex):
    d = dirac(transitive_complex, 1)
    spec = eigen_spectrum(d.matrix, d.exact_nullity)
    expected = sorted([0.0, SQRT3, -SQRT3, SQRT3, -SQRT3, SQRT3, -SQRT3])
    np.testing.assert_allclose(spec.values, expected, atol=1e-9)
    assert d.exact_nullity == 1


def test_dirac_diagonal_blocks_zero(cyclic_complex):
    d = dirac(cyclic_complex, 1)
    offs = d.block_offsets
    for k in range(len(offs) - 1):
        blk = d.matrix[offs[k]:offs[k + 1], offs[k]:offs[k + 1]]
        assert not blk.any()


def test_eigen_spectrum_identity():
    spec = eigen_spectrum(np.eye(4), exact_nullity=0)
    np.testing.assert_allclose(spec.values, np.ones(4))
    assert len(spec.positives()) == 4


def test_eigen_spectrum_reconciles_with_exact_nullity():
    m = np.diag([0.0, 1e-10, 1.0])
    spec = eigen_spectrum(m, exact_nullity=2)  # widen past the default 1e-9... already inside
    assert int(np.sum(np.abs(spec.values) <= spec.zero_threshold)) == 2
    spec1 = eigen_spectrum(m, exact_nullity=1, zero_tol=1e-9)  # must narrow below 1e-10
    assert int(np.sum(np.abs(spec1.values) <= spec1.zero_threshold)) == 1


def test_eigen_spectrum_inconsistency_raises():
    m = np.diag([0.0, 0.0, 1.0])
    with pytest.raises(NumericalInconsistencyError):
        eigen_spectrum(m, exact_nullity=1)  # a hard zero cannot be reclassified
    with pytest.raises(NumericalInconsistencyError):
        eigen_spectrum(np.diag([1.0, 2.0]), exact_nullity=1)


@st.composite
def planted_kernels(draw):
    """A rotated diagonal matrix: a planted kernel (zeros, or 3e-11 above the window's
    low end), nonzero eigenvalues with ties (equal values and equal |λ| of opposite
    sign, one of them 2e-8, inside the window), and a claimed nullity that is right,
    one too many or one too few."""
    kernel = draw(st.lists(st.sampled_from([0.0, 0.0, 3e-11]), max_size=4))
    nonzero = draw(st.lists(st.sampled_from([-2.0, -1.0, 2e-8, 0.5, 1.0, 1.0, 3.0]),
                            max_size=6))
    n = len(kernel) + len(nonzero)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q = np.linalg.qr(rng.normal(size=(n, n)))[0] if n else np.zeros((0, 0))
    m = q @ np.diag(kernel + nonzero) @ q.T
    return (m + m.T) / 2, len(kernel) + draw(st.sampled_from([0, 0, 1, -1]))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(planted_kernels())
def test_zero_tol_inside_the_window_changes_no_result(case):
    matrix, claim = case
    outcomes = set()
    for tol in np.geomspace(*TOL_WINDOW, 13):  # both ends and eleven points between
        try:
            spec = eigen_spectrum(matrix, claim, zero_tol=tol)
        except NumericalInconsistencyError as exc:
            outcomes.add(str(exc))
        else:
            outcomes.add((spec.values.tobytes(), spec.positives().tobytes(),
                          tuple(features(spec).as_dict().items())))
    assert len(outcomes) == 1, outcomes


def test_eigen_spectrum_rejects_asymmetric():
    with pytest.raises(NumericalInconsistencyError):
        eigen_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]), exact_nullity=0)


def test_eigen_spectrum_empty():
    spec = eigen_spectrum(np.zeros((0, 0)), exact_nullity=0)
    assert spec.values.shape == (0,)
    assert features(spec).nullity == 0


def test_features_cyclic_dirac(cyclic_complex):
    d = dirac(cyclic_complex, 0)
    fs = features(eigen_spectrum(d.matrix, d.exact_nullity))
    assert fs.nullity == 2
    np.testing.assert_allclose(fs.mean_pos, SQRT3, atol=1e-9)
    np.testing.assert_allclose(fs.gen_mean, 0.0, atol=1e-9)


def test_features_hand_values():
    spec = Spectrum(np.array([0.0, 1.0, 3.0]), zero_threshold=1e-9, exact_nullity=1)
    fs = features(spec)
    assert fs.mean_pos == 2.0
    assert fs.gen_mean == 1.0
    assert fs.min_pos == 1.0
    assert fs.max == 3.0
    assert fs.sum_pos == 4.0
    assert fs.std_pos == 1.0
    assert fs.min_pos <= fs.max


def test_features_empty_spectrum_all_zero():
    spec = Spectrum(np.zeros(3), zero_threshold=1e-9, exact_nullity=3)
    fs = features(spec)
    assert fs.as_dict() == {
        "nullity": 3, "mean_pos": 0.0, "gen_mean": 0.0, "min_pos": 0.0,
        "max": 0.0, "sum_pos": 0.0, "std_pos": 0.0,
    }


def test_verify_dirac_square_cyclic(cyclic_complex):
    report = verify_dirac_square(cyclic_complex, 0)
    assert report.passed
    assert report.off_block_defect <= 1e-10
    d = dirac(cyclic_complex, 0)
    expected = np.block([[CIRCULANT, np.zeros((3, 3))], [np.zeros((3, 3)), CIRCULANT]])
    np.testing.assert_allclose(d.matrix @ d.matrix, expected, atol=1e-12)


def test_verify_dirac_square_vacuous_on_zero_complex():
    c = build_digraph_complex(Digraph.of([], []), 1)
    report = verify_dirac_square(c, 0)
    assert report.passed


def test_nullity_identity_on_corpus(digraph_complexes):
    for _, c in digraph_complexes:
        for p in range(c.p_top):
            d = dirac(c, p)
            rhs = sum(c.betti(i) for i in range(p + 1)) + c.down_nullity(p + 1)
            assert d.exact_nullity == rhs
            assert d.matrix.shape[0] - float_rank(d.matrix) == rhs


def test_spectrum_symmetry_on_corpus(digraph_complexes):
    for _, c in digraph_complexes[:80]:
        for p in range(c.p_top):
            d = dirac(c, p)
            spec = eigen_spectrum(d.matrix, d.exact_nullity)
            assert spectrum_symmetry_defect(spec) <= 1e-8


def test_squared_spectrum_correspondence(digraph_complexes):
    for _, c in digraph_complexes[:40]:
        for p in range(c.p_top):
            d = dirac(c, p)
            spec = eigen_spectrum(d.matrix, d.exact_nullity)
            pools = [
                eigen_spectrum(laplacian(c, i).matrix, laplacian(c, i).exact_nullity).values
                for i in range(p + 1)
            ]
            down = down_laplacian(c, p + 1)
            pools.append(eigen_spectrum(down.matrix, down.exact_nullity).values)
            pooled = np.concatenate([v for v in pools if len(v)]) if any(len(v) for v in pools) else np.zeros(0)
            for lam in spec.values:
                assert np.min(np.abs(pooled - lam * lam)) <= 1e-6


def test_laplacians_positive_semidefinite(digraph_complexes):
    for _, c in digraph_complexes[:80]:
        for n in range(c.p_top):
            lap = laplacian(c, n)
            if lap.matrix.size:
                assert np.min(np.linalg.eigvalsh(lap.matrix)) >= -1e-9
                np.testing.assert_allclose(lap.matrix, lap.matrix.T, atol=1e-12)


def test_basis_invariance_under_rotation(digraph_complexes):
    rng = np.random.default_rng(1234)
    for _, c in digraph_complexes[:20]:
        rotations = []
        for k in range(c.p_top + 1):
            dim = c.dim(k)
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim))) if dim else (np.zeros((0, 0)), None)
            rotations.append(q)
        blocks = []
        for k in range(1, c.p_top + 1):
            b = c.degrees[k].boundary_ortho
            blocks.append(rotations[k - 1].T @ b @ rotations[k])
        for p in range(c.p_top):
            d = dirac(c, p)
            from pathdirac.operators import dirac_from_blocks

            rotated = dirac_from_blocks(blocks[: p + 1], d.exact_nullity, p)
            s1 = eigen_spectrum(d.matrix, d.exact_nullity).values
            s2 = eigen_spectrum(rotated.matrix, rotated.exact_nullity).values
            np.testing.assert_allclose(s1, s2, atol=1e-8)
        for n in range(c.p_top):
            lap = laplacian(c, n)
            rot_lap = blocks[n] @ blocks[n].T if n + 1 <= len(blocks) else None
            down = blocks[n - 1].T @ blocks[n - 1] if n >= 1 else np.zeros_like(rot_lap)
            rotated_matrix = rot_lap + down
            s1 = eigen_spectrum(lap.matrix, lap.exact_nullity).values
            s2 = eigen_spectrum(rotated_matrix, lap.exact_nullity).values
            np.testing.assert_allclose(s1, s2, atol=1e-8)


def test_dense_size_guard():
    c = build_digraph_complex(CYCLIC, 2)
    with pytest.raises(ResourceLimitError):
        dirac(c, 0, dense_limit=2)
