"""Exact linear algebra over the rationals.

Every rank, kernel, and subspace basis downstream is an integer statement,
so this module never rounds: entries are `fractions.Fraction` throughout.
Floating point enters only when a basis is handed to the eigensolvers.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import StructuralError

ZERO = Fraction(0)
ONE = Fraction(1)


class QMatrix:
    """Dense matrix with exact rational entries, stored row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[ZERO] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("data shape does not match declared dimensions")
            self.data = [[Fraction(x) for x in row] for row in data]

    @classmethod
    def from_rows(cls, rows) -> "QMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, rows)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = ONE
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols)

    def copy(self) -> "QMatrix":
        out = QMatrix(self.rows, self.cols)
        out.data = [row[:] for row in self.data]
        return out

    def __eq__(self, other):
        return (
            isinstance(other, QMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols})"

    def transpose(self) -> "QMatrix":
        out = QMatrix(self.cols, self.rows)
        data = self.data
        for i in range(self.rows):
            row = data[i]
            for j in range(self.cols):
                out.data[j][i] = row[j]
        return out

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = QMatrix(self.rows, other.cols)
        # the nonzeros of each row of other, found once instead of once per row of self
        nonzeros = [[(j, t) for j, t in enumerate(trow) if t] for trow in other.data]
        for i in range(self.rows):
            srow = self.data[i]
            orow = out.data[i]
            for k in range(self.cols):
                s = srow[k]
                if s:
                    for j, t in nonzeros[k]:
                        orow[j] += s * t
        return out

    def is_zero(self) -> bool:
        return all(not x for row in self.data for x in row)

    def to_float(self) -> np.ndarray:
        out = np.empty((self.rows, self.cols), dtype=float)
        for i, row in enumerate(self.data):
            for j, x in enumerate(row):
                out[i, j] = float(x)
        return out


def hstack(a: QMatrix, b: QMatrix) -> QMatrix:
    if a.rows != b.rows:
        raise ValueError("row count mismatch in hstack")
    out = QMatrix(a.rows, a.cols + b.cols)
    for i in range(a.rows):
        out.data[i] = a.data[i] + b.data[i]
    return out


def rref(m: QMatrix) -> tuple[QMatrix, list[int]]:
    """Reduced row echelon form and pivot column indices (Gauss-Jordan)."""
    r = m.copy()
    data = r.data
    nrows, ncols = r.rows, r.cols
    pivots: list[int] = []
    piv_row = 0
    for col in range(ncols):
        if piv_row >= nrows:
            break
        # partial search for any nonzero pivot; exact arithmetic needs no scaling heuristics
        sel = -1
        for i in range(piv_row, nrows):
            if data[i][col]:
                sel = i
                break
        if sel < 0:
            continue
        if sel != piv_row:
            data[sel], data[piv_row] = data[piv_row], data[sel]
        prow = data[piv_row]
        p = prow[col]
        if p != ONE:
            inv = ONE / p
            for j in range(col, ncols):
                if prow[j]:
                    prow[j] *= inv
        for i in range(nrows):
            if i == piv_row:
                continue
            f = data[i][col]
            if f:
                irow = data[i]
                for j in range(col, ncols):
                    if prow[j]:
                        irow[j] -= f * prow[j]
        pivots.append(col)
        piv_row += 1
    return r, pivots


def rank(m: QMatrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    return len(rref(m)[1])


def kernel_basis(m: QMatrix) -> QMatrix:
    """Exact null-space basis; columns are in reduced echelon style.

    Free variable f contributes the column with 1 at f and -R[i][f] at each
    pivot column p_i, giving a reproducible basis for a given column order.
    """
    n = m.cols
    if n == 0:
        return QMatrix(0, 0)
    if m.rows == 0:
        return QMatrix.identity(n)
    r, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    out = QMatrix(n, len(free))
    for k, f in enumerate(free):
        out.data[f][k] = ONE
        for i, p in enumerate(pivots):
            v = r.data[i][f]
            if v:
                out.data[p][k] = -v
    return out


def solve(a: QMatrix, b: QMatrix) -> QMatrix:
    """Solve A X = B exactly for an echelon basis A; raises if inconsistent.

    A must have a unit row e_j for every column j, as kernel and column-space
    bases do; X is then those rows of B, checked by one exact product."""
    if a.rows != b.rows:
        raise ValueError("row count mismatch in solve")
    units: dict[int, int] = {}  # column j -> first row equal to e_j
    for i, row in enumerate(a.data):
        nonzero = [j for j, x in enumerate(row) if x]
        if len(nonzero) == 1 and row[nonzero[0]] == ONE:
            units.setdefault(nonzero[0], i)
    if len(units) != a.cols:
        raise ValueError("solve needs a coefficient matrix with a unit row for every column")
    x = QMatrix(a.cols, b.cols)
    x.data = [b.data[units[j]][:] for j in range(a.cols)]
    if a @ x != b:
        raise StructuralError("linear system is inconsistent: target not in column span")
    return x


def column_space_basis(m: QMatrix) -> QMatrix:
    """Echelon basis of the column span (reproducible for a given row order)."""
    if m.rows == 0 or m.cols == 0:
        return QMatrix(m.rows, 0)
    r, pivots = rref(m.transpose())
    out = QMatrix(m.rows, len(pivots))
    for k in range(len(pivots)):
        row = r.data[k]
        for i in range(m.rows):
            out.data[i][k] = row[i]
    return out


def _coefficients_into(a: QMatrix, b: QMatrix) -> QMatrix:
    """Columns spanning {x : A x in span(b)}: the x-part of ker([A | -b])."""
    neg = QMatrix(b.rows, b.cols)
    for i in range(b.rows):
        neg.data[i] = [-x for x in b.data[i]]
    k = kernel_basis(hstack(a, neg))
    coeffs = QMatrix(a.cols, k.cols)
    for i in range(a.cols):
        coeffs.data[i] = k.data[i][:]
    return coeffs


def preimage_basis(m: QMatrix, target: QMatrix) -> QMatrix:
    """Echelon basis of {x : M x in span(target)}."""
    if m.rows != target.rows:
        raise ValueError("codomain dimension mismatch in preimage_basis")
    return column_space_basis(_coefficients_into(m, target))


def intersection_basis(a: QMatrix, b: QMatrix) -> QMatrix:
    """Basis of span(a) ∩ span(b)."""
    if a.rows != b.rows:
        raise ValueError("ambient dimension mismatch in intersection_basis")
    return column_space_basis(a @ _coefficients_into(a, b))


def sum_space_basis(a: QMatrix, b: QMatrix) -> QMatrix:
    return column_space_basis(hstack(a, b))


def is_subspace(a: QMatrix, b: QMatrix) -> bool:
    """True when span(a) is contained in span(b)."""
    if a.cols == 0:
        return True
    return rank(hstack(b, a)) == rank(b)


def spans_equal(a: QMatrix, b: QMatrix) -> bool:
    ra = rank(a)
    rb = rank(b)
    return ra == rb and rank(hstack(a, b)) == ra
