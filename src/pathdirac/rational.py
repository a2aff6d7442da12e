"""Exact linear algebra over the rationals.

Every rank, kernel, and subspace basis downstream is an integer statement,
so this module never rounds. Matrices are sparse: each row maps a column to
a nonzero value, a Python int when the value is integral and a
`fractions.Fraction` otherwise. Floating point enters only when a basis is
handed to the eigensolvers.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import StructuralError


def _q(x):
    """x in stored form: an int when integral, so integer matrices never touch Fraction."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


class QMatrix:
    """Sparse matrix with exact rational entries: one {column: value} dict per row.

    Zeros are never stored and integral values are ints; every operation here
    keeps both invariants, and construction sites write nonzero ints directly.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list[dict] | None = None):
        self.rows = rows
        self.cols = cols
        self.data = [{} for _ in range(rows)] if data is None else data

    @classmethod
    def from_rows(cls, rows) -> "QMatrix":
        """From dense rows of anything `Fraction` accepts."""
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("data shape does not match declared dimensions")
        data = [{j: _q(Fraction(x)) for j, x in enumerate(r) if x} for r in rows]
        return cls(len(rows), ncols, data)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, [{i: 1} for i in range(n)])

    def to_rows(self) -> list[list]:
        """Dense rows, zeros included: the one way to read a matrix entry by entry."""
        return [[row.get(j, 0) for j in range(self.cols)] for row in self.data]

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
        for i, row in enumerate(self.data):
            for j, x in row.items():
                out.data[j][i] = x
        return out

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        data = []
        for srow in self.data:
            if len(srow) == 1 and 1 in srow.values():  # a unit row selects a row of other
                data.append(dict(other.data[next(iter(srow))]))
                continue
            acc: dict = {}
            for k, s in srow.items():
                for j, t in other.data[k].items():
                    acc[j] = acc.get(j, 0) + s * t
            data.append({j: _q(x) for j, x in acc.items() if x})
        return QMatrix(self.rows, other.cols, data)

    def is_zero(self) -> bool:
        return not any(self.data)

    def to_float(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        for i, row in enumerate(self.data):
            for j, x in row.items():
                out[i, j] = float(x)
        return out


def hstack(a: QMatrix, b: QMatrix) -> QMatrix:
    if a.rows != b.rows:
        raise ValueError("row count mismatch in hstack")
    shift = a.cols
    data = [{**ra, **{j + shift: x for j, x in rb.items()}} for ra, rb in zip(a.data, b.data)]
    return QMatrix(a.rows, a.cols + b.cols, data)


def rref(m: QMatrix, descending: bool = False) -> tuple[QMatrix, list[int]]:
    """Reduced row echelon form and its pivot columns, in elimination order (Gauss-Jordan).

    Columns are eliminated in ascending order, or descending on request (the
    form of the column-reversed matrix, relabelled back); each pivot is the
    shortest row with a nonzero there. The form for an order is unique, so the
    choice of pivot row, like the input's row order, never shows in the result.
    Pivot rows come first, in pivot order, then the zero rows.
    """
    rows = [dict(r) for r in m.data]
    where: dict[int, set[int]] = {}  # column -> rows with a nonzero there
    for i, row in enumerate(rows):
        for j in row:
            where.setdefault(j, set()).add(i)
    pivoted = [False] * len(rows)
    order: list[int] = []
    pivots: list[int] = []
    for col in sorted(where, reverse=descending):
        sel, best = -1, None
        for i in where[col]:
            if not pivoted[i] and (best is None or (len(rows[i]), i) < best):
                sel, best = i, (len(rows[i]), i)
        if sel < 0:
            continue
        prow = rows[sel]
        p = prow[col]
        if p != 1:
            inv = -1 if p == -1 else _q(1 / Fraction(p))
            prow = rows[sel] = {j: _q(x * inv) for j, x in prow.items()}
        rest = [(j, x, where[j]) for j, x in prow.items() if j != col]
        for i in where[col]:  # where[col] is not read again, so rows stay in it
            if i == sel:
                continue
            row = rows[i]
            f = row.pop(col)
            for j, x, rows_at_j in rest:
                y = row.get(j, 0) - f * x
                if y:
                    rows_at_j.add(i)
                    row[j] = y if type(y) is int else _q(y)
                else:
                    del row[j]
                    rows_at_j.discard(i)
        pivoted[sel] = True
        order.append(sel)
        pivots.append(col)
    data = [rows[i] for i in order] + [{} for _ in range(m.rows - len(order))]
    return QMatrix(m.rows, m.cols, data), pivots


def rank(m: QMatrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: QMatrix, descending: bool = False) -> QMatrix:
    """Exact null-space basis; columns are in reduced echelon style.

    Free variable f contributes the column with 1 at f and -R[i][f] at each
    pivot column p_i of `rref(m, descending)`; the columns ascend by f.
    """
    r, pivots = rref(m, descending)
    pivot_set = set(pivots)
    free = {f: k for k, f in enumerate(j for j in range(m.cols) if j not in pivot_set)}
    out = QMatrix(m.cols, len(free))
    for f, k in free.items():
        out.data[f][k] = 1
    for p, row in zip(pivots, r.data):
        out.data[p] = {free[f]: -x for f, x in row.items() if f != p}
    return out


def solve(a: QMatrix, b: QMatrix) -> QMatrix:
    """Solve A X = B exactly for an echelon basis A; raises if inconsistent.

    A must have a unit row e_j for every column j, as kernel and column-space
    bases do; X is then those rows of B, checked by one exact product."""
    if a.rows != b.rows:
        raise ValueError("row count mismatch in solve")
    units: dict[int, int] = {}  # column j -> first row equal to e_j
    for i, row in enumerate(a.data):
        if len(row) == 1:
            (j, x), = row.items()
            if x == 1:
                units.setdefault(j, i)
    if len(units) != a.cols:
        raise ValueError("solve needs a coefficient matrix with a unit row for every column")
    x = QMatrix(a.cols, b.cols, [dict(b.data[units[j]]) for j in range(a.cols)])
    if a @ x != b:
        raise StructuralError("linear system is inconsistent: target not in column span")
    return x


def _is_rcef(m: QMatrix) -> bool:
    """Whether each column's first nonzero is a 1, alone in its row, and these rows ascend."""
    lead = 0  # columns whose leading 1 is seen; the rest are zero so far
    for row in m.data:
        if row and max(row) >= lead:
            if row != {lead: 1}:
                return False
            lead += 1
    return lead == m.cols


def column_space_basis(m: QMatrix) -> QMatrix:
    """Reduced column echelon basis of the column span (unique for a given row order),
    so an input already in that form is returned as it is."""
    if _is_rcef(m):
        return m
    r, pivots = rref(m.transpose())
    return QMatrix(len(pivots), m.rows, r.data[: len(pivots)]).transpose()


def _coefficients_into(a: QMatrix, b: QMatrix) -> QMatrix:
    """Columns spanning {x : A x in span(b)}, in reduced column echelon form.

    The columns of [A | b] are eliminated in descending order, so each kernel
    vector's first nonzero is a 1 at its own free column, where no other is
    nonzero. Those at a free column of A, ascending, restricted to x, are the
    form; those at a free column of b have a zero x-part and are dropped.
    """
    rows = kernel_basis(hstack(a, b), descending=True).data[: a.cols]
    return QMatrix(a.cols, len(set().union(*rows)), rows)


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


def spans_equal(a: QMatrix, b: QMatrix) -> bool:
    ra = rank(a)
    rb = rank(b)
    return ra == rb and rank(hstack(a, b)) == ra
