"""Exact linear algebra against sympy and floating SVD backends."""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from oracles import sympy_rank
from pathdirac import rational as qa
from pathdirac.errors import StructuralError
from pathdirac.operators import float_rank
from pathdirac.rational import QMatrix


def random_qmatrix(rng, rows, cols, entries=(-1, 0, 0, 1)):
    return QMatrix.from_rows(
        [[Fraction(rng.choice(entries)) for _ in range(cols)] for _ in range(rows)]
    )


def test_identity_rank_and_kernel():
    m = QMatrix.identity(3)
    assert qa.rank(m) == 3
    assert qa.kernel_basis(m).cols == 0


def test_cyclic_triangle_boundary_rank():
    # degree-1 boundary of the directed 3-cycle: rank 2, nullity 1
    b1 = QMatrix.from_rows([[-1, 0, 1], [1, -1, 0], [0, 1, -1]])
    assert qa.rank(b1) == 2
    assert qa.kernel_basis(b1).cols == 1


def test_exact_rank_matches_float_svd_rank():
    rng = random.Random(99)
    for _ in range(50):
        m = random_qmatrix(rng, 5, 7, entries=(-1, 1))
        assert qa.rank(m) == float_rank(m.to_float())


def test_rank_and_kernel_against_sympy():
    rng = random.Random(17)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = random_qmatrix(rng, rows, cols)
        r = qa.rank(m)
        assert r == sympy_rank(m)
        k = qa.kernel_basis(m)
        assert k.cols == cols - r
        if k.cols:
            assert (m @ k).is_zero()
            assert qa.rank(k) == k.cols


def test_solve_roundtrip():
    """solve takes echelon bases, so the coefficient matrices come from the two
    routines that produce them."""
    rng = random.Random(5)
    for echelon in (qa.column_space_basis, qa.kernel_basis) * 25:
        a = echelon(random_qmatrix(rng, rng.randint(2, 6), rng.randint(2, 6)))
        x = random_qmatrix(rng, a.cols, 2, entries=(-2, -1, 0, 1, 2))
        b = a @ x
        assert qa.solve(a, b) == x


def test_solve_rejects_inconsistent_system():
    a = QMatrix.from_rows([[1], [0]])
    b = QMatrix.from_rows([[0], [1]])
    with pytest.raises(StructuralError):
        qa.solve(a, b)


def hidden_identity(rng, cols, unit_rows=True):
    """Full-column-rank rows over `cols` columns, shuffled: decoys 2*e_k, e_k + e_j and
    random rows, plus (if unit_rows) every e_k once and one e_k a second time."""
    def unit(k, scale=1):
        return [Fraction(scale if j == k else 0) for j in range(cols)]

    rows = [unit(k, 2) for k in range(cols)]
    rows += [[Fraction(int(j in (k, (k + 1) % cols))) for j in range(cols)] for k in range(cols)]
    rows += [[Fraction(rng.randint(-2, 2)) for _ in range(cols)] for _ in range(2)]
    if unit_rows:
        rows += [unit(k) for k in range(cols)] + [unit(rng.randrange(cols))]
    rng.shuffle(rows)
    return QMatrix.from_rows(rows)


def sympy_solve(a: QMatrix, b: QMatrix) -> QMatrix:
    def to_sympy(m):
        return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                             for row in m.data])

    sol, params = to_sympy(a).gauss_jordan_solve(to_sympy(b))
    assert params.shape[0] == 0
    return QMatrix.from_rows([[Fraction(int(x.p), int(x.q)) for x in row]
                              for row in sol.tolist()])


def count_rref(monkeypatch) -> list[int]:
    calls = [0]
    real = qa.rref

    def counted(m):
        calls[0] += 1
        return real(m)

    monkeypatch.setattr(qa, "rref", counted)
    return calls


@pytest.mark.parametrize("unit_rows", [True, False], ids=["unit-rows", "decoys-only"])
def test_solve_matches_sympy_on_hidden_identities(monkeypatch, unit_rows):
    """Unit rows select the solution, which matches sympy's, without RREF; decoys
    alone are refused, although sympy solves the same full-column-rank systems."""
    rng = random.Random(23 + unit_rows)
    calls = count_rref(monkeypatch)
    for _ in range(30):
        cols = rng.randint(2, 5)
        a = hidden_identity(rng, cols, unit_rows)
        x = random_qmatrix(rng, cols, rng.randint(1, 3), entries=(-3, -1, 0, Fraction(1, 2), 2))
        b = a @ x
        if unit_rows:
            assert qa.solve(a, b) == x == sympy_solve(a, b)
        else:
            assert sympy_solve(a, b) == x
            with pytest.raises(ValueError, match="unit row for every column"):
                qa.solve(a, b)
    assert calls[0] == 0


def test_solve_rejects_inconsistent_hidden_identities():
    rng = random.Random(32)
    raised = 0
    for _ in range(20):
        a = hidden_identity(rng, rng.randint(2, 5))
        b = QMatrix.from_rows([[Fraction(rng.randint(-2, 2))] for _ in range(a.rows)])
        if sympy_rank(qa.hstack(a, b)) == a.cols:
            continue
        with pytest.raises(StructuralError) as info:
            qa.solve(a, b)
        assert str(info.value) == "linear system is inconsistent: target not in column span"
        raised += 1
    assert raised >= 15


def test_solve_rank_deficient_coefficients_still_rejected():
    rng = random.Random(37)
    a = hidden_identity(rng, 3)
    deficient = qa.hstack(a, QMatrix.from_rows([[row[0] + row[1]] for row in a.data]))
    with pytest.raises(ValueError, match="unit row for every column"):
        qa.solve(deficient, deficient @ random_qmatrix(rng, 4, 2))


def test_preimage_full_codomain_is_full_domain():
    m = QMatrix.from_rows([[1, 2, 0], [0, 1, 1]])
    target = QMatrix.identity(2)
    pre = qa.preimage_basis(m, target)
    assert pre.cols == 3


def test_preimage_of_zero_map_is_full_domain():
    m = QMatrix.zeros(2, 3)
    target = QMatrix.from_rows([[1], [0]])
    assert qa.preimage_basis(m, target).cols == 3


def test_preimage_two_edge_chain():
    # boundary of the chain 0 -> 1 -> 2; target spans vertices (0), (1):
    # only multiples of the first edge stay inside the target.
    b1 = QMatrix.from_rows([[-1, 0], [1, -1], [0, 1]])
    target = QMatrix.from_rows([[1, 0], [0, 1], [0, 0]])
    pre = qa.preimage_basis(b1, target)
    assert pre.cols == 1
    assert qa.is_subspace(b1 @ pre, target)


def test_preimage_membership_property():
    rng = random.Random(23)
    for _ in range(30):
        m = random_qmatrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        t = random_qmatrix(rng, m.rows, rng.randint(0, 3))
        pre = qa.preimage_basis(m, t)
        if pre.cols:
            assert qa.is_subspace(m @ pre, t)
        # everything outside the preimage must genuinely escape
        full = qa.preimage_basis(m, QMatrix.identity(m.rows))
        assert full.cols == m.cols


def test_intersection_and_sum_dimensions():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = random_qmatrix(rng, n, rng.randint(0, n))
        b = random_qmatrix(rng, n, rng.randint(0, n))
        inter = qa.intersection_basis(a, b)
        union = qa.sum_space_basis(a, b)
        # modular law of dimensions
        assert qa.rank(a) + qa.rank(b) == qa.rank(union) + qa.rank(inter)
        if inter.cols:
            assert qa.is_subspace(inter, a)
            assert qa.is_subspace(inter, b)


def test_column_space_basis_spans():
    m = QMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    basis = qa.column_space_basis(m)
    assert basis.cols == 2
    assert qa.spans_equal(basis, m)


def test_empty_shapes():
    assert qa.rank(QMatrix.zeros(0, 4)) == 0
    assert qa.kernel_basis(QMatrix.zeros(0, 4)).cols == 4
    assert qa.kernel_basis(QMatrix.zeros(4, 0)).cols == 0
    assert qa.column_space_basis(QMatrix.zeros(4, 0)).cols == 0


def test_matmul_and_transpose_agree_with_numpy():
    rng = random.Random(77)
    a = random_qmatrix(rng, 4, 3, entries=(-2, -1, 0, 1, 2))
    b = random_qmatrix(rng, 3, 5, entries=(-2, -1, 0, 1, 2))
    np.testing.assert_allclose((a @ b).to_float(), a.to_float() @ b.to_float())
    np.testing.assert_allclose(a.transpose().to_float(), a.to_float().T)
