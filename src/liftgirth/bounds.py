"""Moore and Erdos-Sachs style size bounds for girth-g lifts."""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .graphs import GraphError, MultiGraph, admissible, bfs


class SpanningTreeInfo(NamedTuple):
    tree_edges: tuple      # undirected representatives, subset of base edges
    diam: int

    @property
    def g0(self):
        return 2 * self.diam + 2

    def d0(self, g):
        return g + 2 * self.diam


def _bfs_tree_edges(h: MultiGraph, root):
    seen = bytearray(h.vertex_count)
    seen[root] = 1
    edges = []
    q = deque([root])
    while q:
        v = q.popleft()
        for e in h.out[v]:
            w = h.head[e]
            if not seen[w]:
                seen[w] = 1
                edges.append(min(e, h.inv[e]))
                q.append(w)
    return tuple(edges)


def _tree_diameter(h: MultiGraph, tree_edges):
    """Double sweep: in a tree, a vertex farthest from any vertex is an
    end of a longest path."""
    adj = [[] for _ in range(h.vertex_count)]
    for e in tree_edges:
        adj[h.tail[e]].append(h.head[e])
        adj[h.head[e]].append(h.tail[e])
    dist = bfs(adj, 0)
    return max(bfs(adj, dist.index(max(dist))))


def spanning_tree(h: MultiGraph) -> SpanningTreeInfo:
    """BFS spanning tree minimizing tree diameter over all roots."""
    trees = [_bfs_tree_edges(h, root) for root in range(h.vertex_count)]
    if len(trees[0]) < h.vertex_count - 1:
        raise GraphError("spanning_tree requires a connected graph")
    return min((SpanningTreeInfo(t, _tree_diameter(h, t)) for t in trees),
               key=lambda t: t.diam)


def lift_size_step(h: MultiGraph) -> int:
    """Spacing q of the feasible lift sizes, the positive multiples of q.
    A height n lifts to n * |V(H)| vertices, and any n >= 1 is admissible
    except that a base half-loop forces a fixed-point-free involution (a
    fixed point lifts to a half-loop, a 1-cycle), hence even n."""
    half_loop = any(h.is_half_loop(e) for e in range(h.edge_count))
    return h.vertex_count * (2 if half_loop else 1)


def moore_lift_bound(h: MultiGraph, g: int):
    """(raw, adjusted) lower bounds on the size of a girth-g lift: row g
    of bounds_table."""
    row, = bounds_table(h, g, g)
    return row.moore_raw, row.moore_adjusted


def es_upper_bound(h: MultiGraph, g: int) -> int:
    """es_bound of row g >= g0 of bounds_table."""
    row, = bounds_table(h, g, g)
    if row.es_bound is None:
        raise GraphError(f"g={g} below g0={spanning_tree(h).g0}")
    return row.es_bound


def ahl_moore_polynomial(x_plus_1: float, g: int) -> float:
    """Moore polynomial n0(x+1, g): two geometric sums in x, evaluated
    termwise (exact for integer x, no division at x = 1); inf past the
    float range."""
    x = x_plus_1 - 1
    if x < 1:
        raise GraphError("requires x >= 1")
    try:
        return (sum(x ** i for i in range((g + 1) // 2))
                + sum(x ** i for i in range(g // 2)))
    except OverflowError:
        return float("inf")


class BoundsRow(NamedTuple):
    g: int
    moore_raw: int
    moore_adjusted: int
    es_bound: int | None
    ahl_n0: float


def bounds_table(h: MultiGraph, g_min: int, g_max: int):
    """Rows g_min..g_max, read off the tree ball sizes |B_0|..|B_R| over
    each base vertex, R = g_max + 2 diam(T); a row is the five CSV columns.

    Moore: for odd g = 2r+1 the radius-r ball around a lifted vertex
    injects into the lift, and for even g = 2r the two-sided radius r-1
    ball around a lifted edge (a radius-r collision would only force a
    cycle of length 2r = g); moore_raw is the largest such ball, and
    moore_adjusted rounds it up to a multiple of lift_size_step.

    Erdos-Sachs, g >= g0: layer trimming reaches a girth-g lift no larger
    than the smallest ball of radius g + 2 diam(T).  es_bound floors that
    to a multiple of lift_size_step, still an upper bound as the minimum
    lift is such a multiple; a ball below every multiple is kept.
    """
    # imported here, so that es runs, which need only spanning_tree,
    # compile neither module
    from .cover_tree import ball_sizes, edge_ball_sizes
    from .spectral import lambda_ahl

    if not admissible(h):
        raise GraphError("bounds need an admissible graph")
    if g_min < 3:
        raise GraphError("g must be >= 3")
    tree = spanning_tree(h)
    lam = lambda_ahl(h)
    q = lift_size_step(h)
    balls = [ball_sizes(h, v, tree.d0(g_max))
             for v in range(h.vertex_count)]
    edge_balls = [edge_ball_sizes(balls[h.tail[e]], balls[h.head[e]])
                  for e in h.undirected_edges()]
    rows = []
    for g in range(g_min, g_max + 1):
        raw = (max(b[g // 2] for b in balls) if g % 2
               else max(b[g // 2 - 1] for b in edge_balls))
        es = None
        if g >= tree.g0:
            es = min(b[tree.d0(g)] for b in balls)
            es = es // q * q if es >= q else es
        rows.append(BoundsRow(g, raw, -(-raw // q) * q, es,
                              ahl_moore_polynomial(lam + 1, g)))
    return rows


CSV_HEADER = "g,moore_raw,moore_adjusted,es_bound,ahl_n0"


def table_to_csv(rows) -> str:
    """CSV_HEADER, then the fields of each row, an empty cell for None."""
    lines = [CSV_HEADER] + [",".join("" if x is None else str(x) for x in r)
                            for r in rows]
    return "\n".join(lines) + "\n"


__all__ = ["SpanningTreeInfo", "spanning_tree", "lift_size_step",
           "moore_lift_bound", "es_upper_bound", "ahl_moore_polynomial",
           "BoundsRow", "bounds_table", "table_to_csv", "CSV_HEADER"]
