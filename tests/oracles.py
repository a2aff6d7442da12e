"""Independent oracles for the test suite.

Nothing here reuses the package's invariant-subspace construction:
enumeration is brute force over vertex tuples, ranks come from sympy, and
Betti numbers use the embedded-homology quotient formula over unrestricted
boundary matrices. Exact elimination has a second judge besides sympy: the
dense Fraction Gauss-Jordan `oracle_dense_rref`, with the kernel,
column-space and preimage bases read off it. There are two exceptions.
`oracle_auxiliary_route` builds the auxiliary complex along a second route:
the package's `rational.preimage_basis`, with every re-expression solved by
`oracle_dense_rref`, never through `rational.solve`. And
`persistent_laplacian_by_embedding` reads the package's float blocks, but
carries stage a into stage b's path coordinates by a float 0/1 embedding
instead of selecting its rows. These stay deliberately slow and simple so
they can sit in judgment over the fast implementations. `auxiliary_bases`
judges nothing: it reads the package's auxiliary bases back into stage-b
coordinates for the oracles to judge.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import sympy

from pathdirac import rational as qa
from pathdirac.chain import embed_paths
from pathdirac.graphs import Digraph, Hypergraph
from pathdirac.operators import Laplacian
from pathdirac.rational import QMatrix


def is_subspace(a: QMatrix, b: QMatrix) -> bool:
    """True when span(a) is contained in span(b)."""
    return a.cols == 0 or qa.rank(qa.hstack(b, a)) == qa.rank(b)


def brute_anchor_paths_digraph(g: Digraph, p: int) -> list[tuple[int, ...]]:
    eset = set(g.edges)
    out = []
    for seq in itertools.product(g.vertices, repeat=p + 1):
        if all((seq[i - 1], seq[i]) in eset for i in range(1, p + 1)):
            out.append(seq)
    return sorted(out)


def brute_anchor_paths_hypergraph(h: Hypergraph, p: int) -> list[tuple[int, ...]]:
    hyperedges = [set(e) for e in h.hyperedges]
    out = []
    for seq in itertools.product(h.vertices, repeat=p + 1):
        ok = True
        for i in range(1, p + 1):
            a, b = seq[i - 1], seq[i]
            if a == b or not any({a, b} <= e for e in hyperedges):
                ok = False
                break
        if ok:
            out.append(seq)
    return sorted(out)


def to_sympy(m: QMatrix) -> sympy.Matrix:
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in m.to_rows() for x in row])


def sympy_rank(qmatrix) -> int:
    """Exact rank through sympy, as a fully independent backend."""
    if qmatrix.rows == 0 or qmatrix.cols == 0:
        return 0
    return to_sympy(qmatrix).rank()


def dense(rows: list[list], cols: int) -> QMatrix:
    """A QMatrix from dense rows, with its column count kept when there are no rows."""
    return QMatrix.from_rows(rows) if rows else QMatrix(0, cols)


def oracle_dense_rref(m: QMatrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form as dense Fraction rows, and its pivot columns.

    Plain Gauss-Jordan over every cell: the first nonzero row at or below the
    pivot row is swapped up and scaled, and the column is cleared in every
    other row. Pivot rows come first, then the zero rows.
    """
    data = [[Fraction(x) for x in row] for row in m.to_rows()]
    pivots: list[int] = []
    for col in range(m.cols):
        top = len(pivots)
        sel = next((i for i in range(top, m.rows) if data[i][col]), None)
        if sel is None:
            continue
        data[sel], data[top] = data[top], data[sel]
        p = data[top][col]
        prow = data[top] = [x / p for x in data[top]]
        for i in range(m.rows):
            if i != top and data[i][col]:
                f = data[i][col]
                data[i] = [x - f * y for x, y in zip(data[i], prow)]
        pivots.append(col)
    return data, pivots


def oracle_kernel_basis(m: QMatrix) -> QMatrix:
    """Null-space basis read off `oracle_dense_rref`: free column f gives 1 at f
    and -R[i][f] at each pivot column p_i."""
    r, pivots = oracle_dense_rref(m)
    free = [j for j in range(m.cols) if j not in pivots]
    out = [[Fraction(0)] * len(free) for _ in range(m.cols)]
    for k, f in enumerate(free):
        out[f][k] = Fraction(1)
        for i, p in enumerate(pivots):
            out[p][k] = -r[i][f]
    return dense(out, len(free))


def oracle_column_space_basis(m: QMatrix) -> QMatrix:
    """The pivot rows of `oracle_dense_rref` of the transpose, as columns."""
    rows = m.to_rows()
    r, pivots = oracle_dense_rref(dense([[row[j] for row in rows] for j in range(m.cols)], m.rows))
    return dense([[r[k][i] for k in range(len(pivots))] for i in range(m.rows)], len(pivots))


def oracle_preimage_basis(m: QMatrix, target: QMatrix) -> QMatrix:
    """Column-space basis of the x-part of ker([M | -target])."""
    rows = [a + [-x for x in b] for a, b in zip(m.to_rows(), target.to_rows())]
    k = oracle_kernel_basis(dense(rows, m.cols + target.cols))
    return oracle_column_space_basis(dense(k.to_rows()[: m.cols], k.cols))


def _closure_labels(paths_per_degree):
    top = len(paths_per_degree) - 1
    labels = [set(ps) for ps in paths_per_degree]
    for k in range(top, 0, -1):
        for path in labels[k]:
            for i in range(len(path)):
                labels[k - 1].add(path[:i] + path[i + 1 :])
    return [sorted(ls) for ls in labels]


def _boundary_matrix(domain_paths, codomain_labels):
    """Unrestricted boundary matrix of the alternating-deletion map."""
    index = {p: i for i, p in enumerate(codomain_labels)}
    m = sympy.zeros(len(codomain_labels), len(domain_paths))
    for j, path in enumerate(domain_paths):
        for i in range(len(path)):
            sub = path[:i] + path[i + 1 :]
            m[index[sub], j] += (-1) ** i
    return m


def oracle_betti(paths_per_degree: list[list[tuple[int, ...]]]) -> list[int]:
    """Embedded-homology Betti numbers of the spans of the given path lists.

    beta_n = dim(A_n ∩ ker d_n) - dim(A_n ∩ d(A_{n+1})), computed purely with
    ranks of unrestricted boundary matrices: the first term by rank-nullity,
    the second by inclusion-exclusion of spans inside the ambient space.
    """
    labels = _closure_labels(paths_per_degree)
    top = len(paths_per_degree) - 1
    betti = []
    for n in range(top):
        dim_a = len(paths_per_degree[n])
        if n == 0:
            cycles = dim_a
        else:
            d_n = _boundary_matrix(paths_per_degree[n], labels[n - 1])
            cycles = dim_a - d_n.rank()
        d_next = _boundary_matrix(paths_per_degree[n + 1], labels[n])
        rank_image = d_next.rank()
        index = {p: i for i, p in enumerate(labels[n])}
        embed = sympy.zeros(len(labels[n]), dim_a)
        for j, p in enumerate(paths_per_degree[n]):
            embed[index[p], j] = 1
        combined = embed.row_join(d_next)
        dim_sum = combined.rank()
        dim_intersection = dim_a + rank_image - dim_sum
        betti.append(cycles - dim_intersection)
    return betti


def oracle_betti_digraph(g: Digraph, top: int) -> list[int]:
    paths = [brute_anchor_paths_digraph(g, p) for p in range(top + 1)]
    return oracle_betti(paths)


def oracle_betti_hypergraph(h: Hypergraph, top: int) -> list[int]:
    paths = [brute_anchor_paths_hypergraph(h, p) for p in range(top + 1)]
    return oracle_betti(paths)


def oracle_omega_dims_digraph(g: Digraph, top: int) -> list[int]:
    """dim Ω_k for k = 0..top: walks whose boundary stays inside the walks.

    Ω_k is the kernel of the unrestricted boundary of the k-walks read only
    on the (k-1)-paths that are not walks, so its dimension is the walk count
    minus the sympy rank of that disallowed block.
    """
    walks = [brute_anchor_paths_digraph(g, k) for k in range(top + 1)]
    dims = [len(walks[0])]
    for k in range(1, top + 1):
        allowed = set(walks[k - 1])
        labels = sorted({w[:i] + w[i + 1 :] for w in walks[k] for i in range(len(w))})
        rows = [i for i, lab in enumerate(labels) if lab not in allowed]
        d = _boundary_matrix(walks[k], labels)
        disallowed_rank = d.extract(rows, list(range(d.cols))).rank()
        dims.append(len(walks[k]) - disallowed_rank)
    return dims


def _span_intersection(u: sympy.Matrix, v: sympy.Matrix) -> sympy.Matrix:
    """Columns spanning col(u) ∩ col(v), via the nullspace of [u | -v]."""
    if u.cols == 0 or v.cols == 0:
        return sympy.zeros(u.rows, 0)
    null = (u.row_join(-v)).nullspace()
    if not null:
        return sympy.zeros(u.rows, 0)
    vecs = [u * w[: u.cols, :] for w in null]
    combined = vecs[0]
    for w in vecs[1:]:
        combined = combined.row_join(w)
    return combined


def oracle_persistent_betti(ga: Digraph, gb: Digraph, n: int) -> int:
    """dim Im(H_n(stage a) -> H_n(stage b)) from first principles.

    Cycles of stage a are the kernel of the unrestricted boundary on its
    anchor span; boundaries of stage b are the intersection of its anchor
    span with the boundary image of the next degree (the boundaries of the
    invariant complex equal exactly that intersection).
    """
    paths_a = brute_anchor_paths_digraph(ga, n)
    paths_b = [brute_anchor_paths_digraph(gb, k) for k in (n, n + 1)]
    labels = _closure_labels([paths_b[0], paths_b[1]])
    ambient = sorted(set(labels[0]) | {p[:i] + p[i + 1 :] for p in paths_a for i in range(len(p))}
                     | set(paths_a))
    if n == 0:
        index = {p: i for i, p in enumerate(ambient)}
        cycles = sympy.zeros(len(ambient), len(paths_a))
        for j, p in enumerate(paths_a):
            cycles[index[p], j] = 1
    else:
        sub_labels = sorted({p[:i] + p[i + 1 :] for p in paths_a for i in range(len(p))})
        d_a = _boundary_matrix(paths_a, sub_labels)
        null = d_a.nullspace()
        index = {p: i for i, p in enumerate(ambient)}
        embed = sympy.zeros(len(ambient), len(paths_a))
        for j, p in enumerate(paths_a):
            embed[index[p], j] = 1
        if not null:
            cycles = sympy.zeros(len(ambient), 0)
        else:
            cycles = embed * null[0]
            for w in null[1:]:
                cycles = cycles.row_join(embed * w)
    index = {p: i for i, p in enumerate(ambient)}
    span_b = sympy.zeros(len(ambient), len(paths_b[0]))
    for j, p in enumerate(paths_b[0]):
        span_b[index[p], j] = 1
    d_next = sympy.zeros(len(ambient), len(paths_b[1]))
    for j, p in enumerate(paths_b[1]):
        for i in range(len(p)):
            d_next[index[p[:i] + p[i + 1 :]], j] += (-1) ** i
    boundaries = _span_intersection(span_b, d_next)
    rank_b = boundaries.rank() if boundaries.cols else 0
    stacked = cycles.row_join(boundaries) if boundaries.cols else cycles
    return stacked.rank() - rank_b


def _gauss_jordan_solve(a: QMatrix, b: QMatrix) -> QMatrix:
    """The unique X with A X = B, read off the reduced echelon form of [A | B]."""
    aug, pivots = oracle_dense_rref(qa.hstack(a, b))
    assert pivots == list(range(a.cols)), "system is inconsistent or A is rank-deficient"
    return dense([row[a.cols :] for row in aug[: a.cols]], b.cols)


def oracle_a_in_b(stages, a: int, b: int) -> list[QMatrix]:
    """Stage a's invariant basis re-expressed in stage b's, per degree, by
    Gauss-Jordan on the augmented matrix."""
    ca, cb = stages.stage(a), stages.stage(b)
    a_in_b = []
    for k in range(stages.p_top + 1):
        embed = embed_paths(ca.degrees[k].paths, cb.degrees[k].paths)
        a_in_b.append(_gauss_jordan_solve(cb.degrees[k].omega, embed @ ca.degrees[k].omega))
    return a_in_b


def oracle_auxiliary_route(stages, a: int, b: int) -> tuple[list[QMatrix], list[QMatrix]]:
    """Bases (stage-b coordinates) and exact boundaries of the auxiliary complex.

    The preimage route: C_k as the preimage, under stage b's boundary, of stage
    a's degree-(k-1) space in stage-b coordinates (`oracle_a_in_b`), and each
    boundary re-expressed in the C_{k-1} basis by Gauss-Jordan.
    """
    cb = stages.stage(b)
    a_in_b = oracle_a_in_b(stages, a, b)
    bases = [QMatrix.identity(cb.dim(0))]
    boundaries = [QMatrix(0, cb.dim(0))]
    for k in range(1, stages.p_top + 1):
        bases.append(qa.preimage_basis(cb.degrees[k].boundary, a_in_b[k - 1]))
        image = cb.degrees[k].boundary @ bases[k]
        boundaries.append(_gauss_jordan_solve(bases[k - 1], image))
    return bases, boundaries


def auxiliary_bases(stages, aux, b: int) -> list[QMatrix]:
    """The auxiliary space bases in stage b's basis, per degree. Stage b's omega
    is an injective echelon basis, so `rational.solve` recovers them exactly."""
    cb = stages.stage(b)
    return [qa.solve(cb.degrees[k].omega, d.omega) for k, d in enumerate(aux.degrees)]


def persistent_laplacian_by_embedding(stage_a, aux, n: int) -> Laplacian:
    """The persistent Laplacian on stage a's degree-n space along the embedding route.

    Stage a's orthonormal basis is carried into stage b's path coordinates by
    the dense 0/1 embedding before the auxiliary up block meets it. The nullity
    is dim - rank of stage a's degree-n image - rank of the auxiliary
    degree-(n+1) image, each image ranked afresh in path coordinates.
    """
    d_a, up = stage_a.degrees[n], aux.degrees[n + 1]
    embed = embed_paths(d_a.paths, aux.degrees[n].paths).to_float()
    m = (embed @ d_a.ortho).T @ (up.allowed_block @ up.ortho)
    down = d_a.boundary_ortho.T @ d_a.boundary_ortho
    nullity = d_a.omega.cols - qa.rank(d_a.image) - qa.rank(up.image)
    return Laplacian(n, m @ m.T + down, nullity)
