"""Moore and Erdos-Sachs style size bounds for girth-g lifts."""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .cover_tree import ball_size_edge_two_sided, ball_size_vertex, layer_counts
from .graphs import GraphError, MultiGraph, admissible, bfs, is_connected
from .spectral import lambda_ahl


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
    return edges


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
    if not is_connected(h):
        raise GraphError("spanning_tree requires a connected graph")
    best = None
    for root in range(h.vertex_count):
        edges = _bfs_tree_edges(h, root)
        d = _tree_diameter(h, edges)
        if best is None or d < best.diam:
            best = SpanningTreeInfo(tuple(edges), d)
    return best


def lift_size_step(h: MultiGraph, g: int) -> int:
    """Spacing q of the feasible lift sizes, which are the positive
    multiples of q.  A height n lifts to n * |V(H)| vertices, and any
    n >= 1 is admissible, except that a base half-loop with girth target
    >= 2 forces its permutation to be a fixed-point-free involution, hence
    even n."""
    nv = h.vertex_count
    if g >= 2 and any(h.is_half_loop(e) for e in range(h.edge_count)):
        return 2 * nv
    return nv


def moore_lift_bound(h: MultiGraph, g: int):
    """(raw, adjusted) lower bounds on the size of a girth-g lift.

    Odd g = 2r+1: the radius-r tree ball around a lifted vertex injects
    into the lift, so raw is the largest vertex ball.  Even g = 2r: the
    two-sided radius r-1 ball around a lifted edge injects (a radius-r
    collision would only force a cycle of length 2r = g, which girth >= g
    still permits).  adjusted rounds raw up to the nearest feasible lift
    size, a multiple of lift_size_step.
    """
    if not admissible(h):
        raise GraphError("moore_lift_bound needs an admissible graph")
    if g < 3:
        raise GraphError("g must be >= 3")
    if g % 2:
        r = (g - 1) // 2
        raw = max(ball_size_vertex(h, v, r) for v in range(h.vertex_count))
    else:
        r = g // 2
        raw = max(ball_size_edge_two_sided(h, e, r - 1)
                  for e in range(h.edge_count))
    q = lift_size_step(h, g)
    return raw, -(-raw // q) * q


def es_upper_bound(h: MultiGraph, g: int, t: SpanningTreeInfo = None) -> int:
    """Size of the smallest tree ball of radius g + 2 diam(T): an upper
    bound on the minimal girth-g lift size realized by layer trimming.

    The ball size is floored to the largest feasible lift size (a multiple
    of lift_size_step): the minimum girth-g lift is itself feasible, so the
    floored value is still an upper bound.  A ball smaller than every
    feasible size is returned as it is.
    """
    if t is None:
        t = spanning_tree(h)
    if g < t.g0:
        raise GraphError(f"g={g} below g0={t.g0}")
    radius = t.d0(g)
    raw = 1 + min(sum(layer_counts(h, v, radius))
                  for v in range(h.vertex_count))
    q = lift_size_step(h, g)
    return raw // q * q if raw >= q else raw


def ahl_moore_polynomial(x_plus_1: float, g: int) -> float:
    """Moore polynomial n0(x+1, g): two geometric sums in x, evaluated
    termwise (exact for integer x, no division at x = 1)."""
    x = x_plus_1 - 1
    if x < 1:
        raise GraphError("requires x >= 1")
    odd_terms = (g - 1) // 2
    even_terms = g // 2 - 1
    return (sum(x ** i for i in range(odd_terms + 1))
            + sum(x ** i for i in range(even_terms + 1)))


class BoundsRow(NamedTuple):
    g: int
    moore_raw: int
    moore_adjusted: int
    es_bound: int | None
    ahl_n0: float
    best_known: int | None


def bounds_table(h: MultiGraph, g_min: int, g_max: int,
                 best_known: dict | None = None):
    tree = spanning_tree(h)
    lam = lambda_ahl(h)
    rows = []
    for g in range(g_min, g_max + 1):
        raw, adjusted = moore_lift_bound(h, g)
        es = es_upper_bound(h, g, tree) if g >= tree.g0 else None
        rows.append(BoundsRow(
            g=g,
            moore_raw=raw,
            moore_adjusted=adjusted,
            es_bound=es,
            ahl_n0=ahl_moore_polynomial(lam + 1, g),
            best_known=(best_known or {}).get(g),
        ))
    return rows


CSV_HEADER = "g,moore_raw,moore_adjusted,es_bound,ahl_n0,best_known"


def table_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r.g), str(r.moore_raw), str(r.moore_adjusted),
            "" if r.es_bound is None else str(r.es_bound),
            repr(r.ahl_n0),
            "" if r.best_known is None else str(r.best_known),
        ]))
    return "\n".join(lines) + "\n"


__all__ = ["SpanningTreeInfo", "spanning_tree", "lift_size_step",
           "moore_lift_bound", "es_upper_bound", "ahl_moore_polynomial",
           "BoundsRow", "bounds_table", "table_to_csv", "CSV_HEADER"]
