"""Combinatorial graph structures and anchor-path enumeration.

Digraphs, hypergraphs and the walk digraph of either, plus the walk
(anchor sequence) enumeration that seeds every chain complex here and the
degree-1 closed form of a walk digraph.
All containers are immutable and deterministically ordered so that the
matrices built on top of them are bit-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, ResourceLimitError, StructuralError

DEFAULT_PATH_CAP = 200_000


@dataclass(frozen=True)
class Digraph:
    """Directed graph without loops; vertices and edges sorted ascending."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, vertices, edges) -> "Digraph":
        edges = [(int(u), int(v)) for u, v in edges]
        vset = {int(v) for v in vertices}.union(*edges)
        problems = (edge_problem(u, v) for u, v in edges)
        if problem := next(filter(None, problems), vertex_problem(vset)):
            raise ParseError(problem)
        return cls(tuple(sorted(vset)), tuple(sorted(set(edges))))

    def successors(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
        return {u: tuple(sorted(vs)) for u, vs in adj.items()}

    def components(self) -> list[set[int]]:
        """Weak components (edge direction ignored), ordered by least vertex."""
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        groups: dict[int, set[int]] = {}
        for v in self.vertices:
            groups.setdefault(find(v), set()).add(v)
        return list(groups.values())


@dataclass(frozen=True)
class Hypergraph:
    """Hypergraph with nonempty hyperedges over declared vertices."""

    vertices: tuple[int, ...]
    hyperedges: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, vertices, hyperedges) -> "Hypergraph":
        eset = {tuple(sorted({int(v) for v in e})) for e in hyperedges}
        vset = {int(v) for v in vertices}.union(*eset)
        if problem := "empty hyperedge is not permitted" if () in eset else vertex_problem(vset):
            raise ParseError(problem)
        return cls(tuple(sorted(vset)), tuple(sorted(eset)))


def vertex_problem(ids) -> str | None:
    """Why these ids cannot be vertices, or None if they can."""
    return "vertex ids must be non-negative integers" if any(v < 0 for v in ids) else None


def edge_problem(u: int, v: int) -> str | None:
    """Why (u, v) cannot be a digraph edge, or None if it can."""
    return f"loop edge {u}->{v} is not permitted" if u == v else vertex_problem((u, v))


def walk_digraph(g: Digraph | Hypergraph) -> Digraph:
    """The digraph whose walks seed g's complex: a digraph itself; for a hypergraph,
    both directions of every vertex pair that shares a hyperedge."""
    if isinstance(g, Digraph):
        return g
    edges = {(u, v) for e in g.hyperedges for u in e for v in e if u != v}
    return Digraph(g.vertices, tuple(sorted(edges)))


def anchor_paths(g: Digraph, p: int, cap: int = DEFAULT_PATH_CAP) -> list[tuple[int, ...]]:
    """Row p of `anchor_path_table` (perfbench/baselines.py reads it)."""
    return anchor_path_table(g, p, cap)[p]


def anchor_path_table(g: Digraph, p_top: int, cap: int = DEFAULT_PATH_CAP) -> list[list[tuple[int, ...]]]:
    """Anchor sequences for every degree 0..p_top, each list sorted lexicographically.

    A degree-p anchor sequence is (v0, ..., vp) with every (v_{i-1}, v_i) a
    directed edge; degree 0 lists the vertices, isolated ones included. A
    hypergraph's sequences are those of its `walk_digraph`.
    """
    if p_top < 0:
        raise ValueError("degree must be non-negative")
    succ = g.successors()
    table: list[list[tuple[int, ...]]] = [[(v,) for v in g.vertices]]
    _check_cap(len(table[0]), 0, cap)
    for k in range(1, p_top + 1):
        nxt: list[tuple[int, ...]] = []
        for path in table[k - 1]:
            tail = path[-1]
            for w in succ.get(tail, ()):
                nxt.append(path + (w,))
                if len(nxt) > cap:
                    _check_cap(len(nxt), k, cap)
        table.append(nxt)
    return table


def _check_cap(count: int, degree: int, cap: int) -> None:
    if count > cap:
        raise ResourceLimitError(
            f"anchor path count at degree {degree} exceeds the cap of {cap}; "
            "raise the cap explicitly if this size is intended"
        )


def h1_rank(g: Digraph, rank_d2: int) -> int:
    """Degree-1 Betti number |E| - |V| + |C| - rank_d2 of a walk digraph, C its weak components.

    Omega_1 is spanned by the edges and rank d_1 = |V| - |C|; a hypergraph
    enters as its `walk_digraph`.
    """
    value = len(g.edges) - len(g.vertices) + len(g.components()) - rank_d2
    if value < 0:
        raise StructuralError(f"degree-1 rank formula produced {value} < 0 (rank_d2={rank_d2})")
    return value
