"""Exact linear algebra against sympy, the dense Gauss-Jordan oracle and floating SVD."""

import copy
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _gauss_jordan_solve,
    dense,
    is_subspace,
    oracle_column_space_basis,
    oracle_dense_rref,
    oracle_kernel_basis,
    oracle_preimage_basis,
    sympy_rank,
    to_sympy,
)
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
    deficient = qa.hstack(a, QMatrix.from_rows([[row[0] + row[1]] for row in a.to_rows()]))
    with pytest.raises(ValueError, match="unit row for every column"):
        qa.solve(deficient, deficient @ random_qmatrix(rng, 4, 2))


def test_preimage_full_codomain_is_full_domain():
    m = QMatrix.from_rows([[1, 2, 0], [0, 1, 1]])
    target = QMatrix.identity(2)
    pre = qa.preimage_basis(m, target)
    assert pre.cols == 3


def test_preimage_of_zero_map_is_full_domain():
    m = QMatrix(2, 3)
    target = QMatrix.from_rows([[1], [0]])
    assert qa.preimage_basis(m, target).cols == 3


def test_preimage_two_edge_chain():
    # boundary of the chain 0 -> 1 -> 2; target spans vertices (0), (1):
    # only multiples of the first edge stay inside the target.
    b1 = QMatrix.from_rows([[-1, 0], [1, -1], [0, 1]])
    target = QMatrix.from_rows([[1, 0], [0, 1], [0, 0]])
    pre = qa.preimage_basis(b1, target)
    assert pre.cols == 1
    assert is_subspace(b1 @ pre, target)


def test_preimage_membership_property():
    rng = random.Random(23)
    for _ in range(30):
        m = random_qmatrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        t = random_qmatrix(rng, m.rows, rng.randint(0, 3))
        pre = qa.preimage_basis(m, t)
        if pre.cols:
            assert is_subspace(m @ pre, t)
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
            assert is_subspace(inter, a)
            assert is_subspace(inter, b)


def test_column_space_basis_spans():
    m = QMatrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    basis = qa.column_space_basis(m)
    assert basis.cols == 2
    assert qa.spans_equal(basis, m)


def test_empty_shapes():
    assert qa.rank(QMatrix(0, 4)) == 0
    assert qa.kernel_basis(QMatrix(0, 4)).cols == 4
    assert qa.kernel_basis(QMatrix(4, 0)).cols == 0
    assert qa.column_space_basis(QMatrix(4, 0)).cols == 0


def test_matmul_and_transpose_agree_with_numpy():
    rng = random.Random(77)
    a = random_qmatrix(rng, 4, 3, entries=(-2, -1, 0, 1, 2))
    b = random_qmatrix(rng, 3, 5, entries=(-2, -1, 0, 1, 2))
    np.testing.assert_allclose((a @ b).to_float(), a.to_float() @ b.to_float())
    np.testing.assert_allclose(a.transpose().to_float(), a.to_float().T)


# ---------------------------------------------------------------------------
# The sparse kernel against the dense Gauss-Jordan oracle and sympy, on
# generated matrices with non-integral entries and empty and all-zero shapes.
# Derandomized, so every run checks the same examples.

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    entries = st.just(0) if draw(st.integers(0, 7)) == 0 else ENTRIES
    return dense(draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows)), cols)


def assert_stored_form(m: QMatrix) -> None:
    """No stored zero, and every integral value an int: the fast path's invariant."""
    rows = m.to_rows()
    assert len(rows) == m.rows and all(len(row) == m.cols for row in rows)
    assert m == dense(rows, m.cols), "a zero is stored"
    for x in (x for row in rows for x in row):
        assert type(x) is (int if x.denominator == 1 else Fraction), repr(x)


def sympy_echelon_columns(m: sympy.Matrix) -> sympy.Matrix:
    """The pivot rows of the reduced echelon form of m's transpose, as columns."""
    r, pivots = m.T.rref()
    return r[: len(pivots), :].T


def columns(m: sympy.Matrix) -> list[list]:
    return [list(m[:, j]) for j in range(m.cols)]


@SETTINGS
@given(matrices(), st.randoms(use_true_random=False))
def test_rref_matches_oracles_in_any_row_order(m, rng):
    r, pivots = qa.rref(m)
    assert_stored_form(r)
    assert (r.rows, r.cols) == (m.rows, m.cols)
    assert (r.to_rows(), pivots) == oracle_dense_rref(m)
    expected, sympy_pivots = to_sympy(m).rref()
    assert to_sympy(r) == expected and tuple(pivots) == sympy_pivots
    rows = m.to_rows()
    rng.shuffle(rows)
    assert qa.rref(dense(rows, m.cols)) == (r, pivots)


@SETTINGS
@given(matrices())
def test_rank_and_kernel_match_oracles(m):
    rank = qa.rank(m)
    assert rank == len(oracle_dense_rref(m)[1]) == sympy_rank(m)
    k = qa.kernel_basis(m)
    assert_stored_form(k)
    assert k == oracle_kernel_basis(m)
    assert columns(to_sympy(k)) == [list(v) for v in to_sympy(m).nullspace()]
    assert (k.rows, k.cols) == (m.cols, m.cols - rank)


@SETTINGS
@given(matrices())
def test_column_space_basis_matches_oracles(m):
    c = qa.column_space_basis(m)
    assert_stored_form(c)
    assert c == oracle_column_space_basis(m)
    assert to_sympy(c) == sympy_echelon_columns(to_sympy(m))


@SETTINGS
@given(st.data())
def test_preimage_basis_matches_oracles(data):
    rows = data.draw(st.integers(0, 5))
    m, target = data.draw(matrices(rows=rows)), data.draw(matrices(rows=rows))
    pre = qa.preimage_basis(m, target)
    assert_stored_form(pre)
    assert pre == oracle_preimage_basis(m, target)
    null = sympy.Matrix.hstack(to_sympy(m), -to_sympy(target)).nullspace()
    if null:
        expected = sympy_echelon_columns(sympy.Matrix.hstack(*[v[: m.cols, :] for v in null]))
    else:
        expected = sympy.zeros(m.cols, 0)
    assert to_sympy(pre) == expected


@SETTINGS
@given(matrices(), st.sampled_from([qa.kernel_basis, qa.column_space_basis]), st.data())
def test_solve_matches_oracles(m, echelon, data):
    a = echelon(m)
    x = data.draw(matrices(rows=a.cols))
    b = a @ x
    assert_stored_form(b)
    solved = qa.solve(a, b)
    assert_stored_form(solved)
    assert solved == x == _gauss_jordan_solve(a, b)
    if a.cols and x.cols:
        assert solved == sympy_solve(a, b)


@SETTINGS
@given(matrices(), st.data())
def test_exact_operations_leave_their_inputs_unchanged(m, data):
    """Stage data is shared across pairs and pool threads, so no call may write
    into the row dicts of its arguments."""
    a = qa.kernel_basis(m)
    x = data.draw(matrices(rows=a.cols))
    b = a @ x
    inputs = [m, a, x, b]
    before = copy.deepcopy(inputs)
    qa.rref(m)
    qa.kernel_basis(m)
    qa.solve(a, b)
    a @ x
    qa.column_space_basis(m)
    qa.preimage_basis(m, dense(m.to_rows(), m.cols))
    assert inputs == before
    assert [q.to_rows() for q in inputs] == [q.to_rows() for q in before]
