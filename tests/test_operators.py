"""Laplacian/Dirac assembly, spectra, feature extraction, and identities."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dirac_from_blocks
from pathdirac import Digraph, build_digraph_complex
from pathdirac.checks import spectrum_symmetry_defect
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
    offs = list(itertools.accumulate(map(cyclic_complex.dim, range(3)), initial=0))
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
    m = CIRCULANT.copy()
    m[0, 1] += 2e-10  # just above the 1e-10 bound
    with pytest.raises(NumericalInconsistencyError, match="not symmetric"):
        eigen_spectrum(m, exact_nullity=1)


@pytest.mark.parametrize("nullity", [0, 1])
@pytest.mark.parametrize("matrix", [[[np.nan]], [[np.inf, 0.0], [0.0, 1.0]]])
def test_eigen_spectrum_rejects_a_non_finite_entry(matrix, nullity):
    """A NaN or infinite entry is refused as such, at any claimed nullity, rather
    than returning NaN eigenvalues or a misleading zero-count error."""
    m = np.array(matrix)
    n = m.shape[0]
    with pytest.raises(NumericalInconsistencyError,
                       match=f"^the {n}x{n} operator has a non-finite entry$"):
        eigen_spectrum(m, exact_nullity=nullity)


def test_eigen_spectrum_symmetric_input_matches_symmetrised(digraph_complexes):
    """An exactly symmetric M goes to eigvalsh as is; (M + Mᵀ)/2 is M bit for bit."""
    for _, c in digraph_complexes[:60]:
        for p in range(c.p_top):
            d = dirac(c, p)
            m = d.matrix
            assert np.array_equal(m, m.T)
            expect = np.sort(np.linalg.eigvalsh((m + m.T) / 2.0))
            assert eigen_spectrum(m, d.exact_nullity).values.tobytes() == expect.tobytes()


def test_eigen_spectrum_symmetrises_a_small_asymmetry():
    m = CIRCULANT.copy()
    m[0, 1] += 1e-12
    spec = eigen_spectrum(m, exact_nullity=1)
    assert spec.values.tobytes() == np.sort(np.linalg.eigvalsh((m + m.T) / 2.0)).tobytes()
    np.testing.assert_allclose(spec.values, [0.0, 3.0, 3.0], atol=1e-9)


def test_float_rank_of_rounding_noise_is_zero():
    """The tolerance never falls below 1e-8: a block of ±2.2e-16 entries has rank 0,
    while singular values down to 1e-7 still count, whatever the largest one is."""
    assert float_rank(np.array([[2.2e-16, -2.2e-16], [0.0, 2.2e-16]])) == 0
    assert float_rank(np.zeros((2, 3))) == 0
    assert float_rank(np.diag([1e-3, 1e-7, 1e-9])) == 2
    assert float_rank(np.diag([1e3, 1e-4, 1e-6])) == 2


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
            rotated = dirac_from_blocks(blocks[: p + 1])
            s1 = eigen_spectrum(d.matrix, d.exact_nullity).values
            s2 = eigen_spectrum(rotated, d.exact_nullity).values
            np.testing.assert_allclose(s1, s2, atol=1e-8)
        for n in range(c.p_top):
            lap = laplacian(c, n)
            rot_lap = blocks[n] @ blocks[n].T if n + 1 <= len(blocks) else None
            down = blocks[n - 1].T @ blocks[n - 1] if n >= 1 else np.zeros_like(rot_lap)
            rotated_matrix = rot_lap + down
            s1 = eigen_spectrum(lap.matrix, lap.exact_nullity).values
            s2 = eigen_spectrum(rotated_matrix, lap.exact_nullity).values
            np.testing.assert_allclose(s1, s2, atol=1e-8)


def test_dirac_places_blocks_as_their_shapes_do(digraph_complexes, hypergraph_complexes):
    """D_p laid out by the complex's dimensions equals, entry for entry, D_p laid out by
    the shapes of its boundary blocks; the 3-cycle at p = 2 has empty degrees 2 and 3."""
    cycle = build_digraph_complex(CYCLIC, 3)
    cases = [(c, p) for _, c in digraph_complexes + hypergraph_complexes for p in range(c.p_top)]
    for c, p in cases + [(cycle, 2)]:
        blocks = [c.degrees[k].boundary_ortho for k in range(1, p + 2)]
        np.testing.assert_array_equal(dirac(c, p).matrix, dirac_from_blocks(blocks))
    assert [cycle.dim(k) for k in range(4)] == [3, 3, 0, 0]


def test_dense_size_guard():
    c = build_digraph_complex(CYCLIC, 2)
    with pytest.raises(ResourceLimitError):
        dirac(c, 0, dense_limit=2)


# The float glue against sort-based and numpy reference forms: every value
# must be the same bits, and every error the same message.


def sorted_eigen_spectrum(matrix, exact_nullity, zero_tol=1e-9):
    """Reference eigen_spectrum: sorts the eigvalsh output, and |λ| on every call."""
    n = matrix.shape[0]
    if n == 0:
        return np.zeros(0), zero_tol
    values = np.sort(np.linalg.eigvalsh(matrix))
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
    return values, threshold


def numpy_features(spec: Spectrum) -> tuple:
    pos = spec.positives()
    if len(pos) == 0:
        return (spec.exact_nullity, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    mean = float(np.mean(pos))
    return (spec.exact_nullity, mean, float(np.mean(np.abs(pos - mean))), float(np.min(pos)),
            float(np.max(pos)), float(np.sum(pos)), float(np.std(pos)))


def bits(values) -> list:
    return [np.float64(v).tobytes() if isinstance(v, float) else v for v in values]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(planted_kernels())
def test_eigen_spectrum_matches_the_sorted_form(case):
    """Values, threshold and errors, on planted kernels whose claimed nullity is
    right (no slide), one off inside the window (a slide), or unreconcilable."""
    matrix, claim = case
    try:
        expected = sorted_eigen_spectrum(matrix, claim)
    except NumericalInconsistencyError as exc:
        with pytest.raises(NumericalInconsistencyError) as got:
            eigen_spectrum(matrix, claim)
        assert str(got.value) == str(exc)
        return
    spec = eigen_spectrum(matrix, claim)
    assert spec.values.tobytes() == expected[0].tobytes()
    assert bits([spec.zero_threshold]) == bits([expected[1]])


def test_eigen_spectrum_sorted_form_covers_slides_and_errors():
    slid = eigen_spectrum(np.diag([0.0, 1e-10, 1.0]), exact_nullity=1)
    assert slid.zero_threshold != 1e-9
    assert slid.zero_threshold == sorted_eigen_spectrum(np.diag([0.0, 1e-10, 1.0]), 1)[1]
    with pytest.raises(NumericalInconsistencyError, match="misses the window") as got:
        eigen_spectrum(np.diag([0.0, 0.0, 1.0]), exact_nullity=1)
    with pytest.raises(NumericalInconsistencyError) as old:
        sorted_eigen_spectrum(np.diag([0.0, 0.0, 1.0]), 1)
    assert str(got.value) == str(old.value)


POSITIVE = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def spectra(draw):
    """Ascending spectra whose positive part is empty, one value, all equal
    (mean and deviation are then rounding noise), or arbitrary."""
    shape = draw(st.sampled_from(["empty", "single", "equal", "any", "any"]))
    if shape == "empty":
        pos = []
    elif shape == "single":
        pos = [draw(POSITIVE)]
    elif shape == "equal":
        pos = [draw(POSITIVE)] * draw(st.integers(2, 60))
    else:
        pos = draw(st.lists(POSITIVE, min_size=2, max_size=60))
    negatives = draw(st.lists(st.floats(-1e3, -1e-6), max_size=5))
    zeros = draw(st.integers(0, 3))
    values = np.array(sorted(negatives + [0.0] * zeros + pos), dtype=float)
    return Spectrum(values, zero_threshold=1e-9, exact_nullity=zeros)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(spectra())
def test_features_match_the_numpy_formulas_bit_for_bit(spec):
    f = features(spec)
    assert bits(tuple(f.as_dict().values())) == bits(numpy_features(spec))


def test_features_of_equal_positives_keep_the_rounding_noise():
    spec = Spectrum(np.array([0.0] + [0.1] * 7), zero_threshold=1e-9, exact_nullity=1)
    f = features(spec)
    assert bits(tuple(f.as_dict().values())) == bits(numpy_features(spec))
    assert f.gen_mean != 0.0 and f.std_pos != 0.0  # np.mean of seven 0.1s is not 0.1
