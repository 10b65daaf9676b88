"""Lazy exploration of the universal covering tree.

Ball sizes are computed by counting non-backtracking walks in the base
graph.  A frontier is one integer count per arriving directed edge, so
layer sizes stay polynomial in the number of base edges even though the
ball itself grows exponentially.

`nb_step` is the one step of the non-backtracking matrix B that ball
sizes, the Perron radius (`spectral`) and the all-edge cycle profiles of
surgery growth (`construct.nb_cycle_profile`) share, over the
predecessor columns of `nb_columns`.  The balls grow at the rate of that
radius, rho (`spectral.spectral_radius`).
"""

from __future__ import annotations

from itertools import accumulate
from operator import add

from .graphs import GraphError, MultiGraph


def nb_columns(g: MultiGraph):
    """B as predecessor columns, built once per graph: column c lists, for
    each directed edge f, its c-th smallest predecessor, an edge e with
    head(e) = tail(f) and e != inv(f), or m where f has fewer.  Slot m,
    past the m edges, is listed in every column as m, so a count list of
    length m + 1 whose slot m holds 0 keeps it at 0."""
    m, head, inv, out = g.edge_count, g.head, g.inv, g.out
    preds = [[] for _ in range(m + 1)]
    for e in range(m):
        for f in out[head[e]]:
            if f != inv[e]:
                preds[f].append(e)
    width = max(map(len, preds)) or 1
    return list(zip(*(p + [m] * (width - len(p)) for p in preds)))


def nb_step(columns, counts) -> list:
    """One step of B: walk counts indexed by the directed edge the walk
    ends on (a list of length m + 1, slot m holding 0), to the counts of
    the walks one step longer.  A walk ending on e continues on every edge
    out of head(e) except e^-1, so the count of f gathers its predecessor
    columns.  They are summed left to right in increasing edge id, so a
    float count equals, bit for bit, the one-by-one sum of an edge loop
    over the counts in id order."""
    get = counts.__getitem__
    nxt = map(get, columns[0])
    for col in columns[1:]:
        nxt = map(add, nxt, map(get, col))
    return list(nxt)


def layer_counts(base: MultiGraph, v: int, rmax: int):
    """Numbers of non-backtracking walks of lengths 1..rmax from a tree
    vertex over v."""
    if rmax < 0:
        raise GraphError("rmax must be >= 0")
    columns = nb_columns(base)
    counts = [0] * (base.edge_count + 1)
    for e in base.out[v]:
        counts[e] = 1
    sums = []
    for k in range(rmax):
        counts = nb_step(columns, counts) if k else counts
        sums.append(sum(counts))
    return sums


def ball_sizes(base: MultiGraph, v: int, rmax: int):
    """|B_0|, ..., |B_rmax| around a tree vertex over v."""
    return list(accumulate(layer_counts(base, v, rmax), initial=1))


def edge_ball_sizes(tail_sizes, head_sizes):
    """E_0, E_1, ...: the tree vertices within r of either end of a tree
    edge.  A tree vertex is one step farther from one end than from the
    other, so E_r = |B_r(tail)| + |B_r(head)| - E_(r-1), with E_(-1) = 0."""
    return list(accumulate(map(add, tail_sizes, head_sizes),
                           lambda prev, both: both - prev))


def ball_size_vertex(base: MultiGraph, v: int, r: int) -> int:
    """|B_r| around a tree vertex over v."""
    return ball_sizes(base, v, r)[r]


def ball_size_edge_two_sided(base: MultiGraph, e: int, r: int) -> int:
    """E_r around a tree edge over e; both ends of a half-loop's lift lie
    over its one base vertex."""
    return edge_ball_sizes(ball_sizes(base, base.tail[e], r),
                           ball_sizes(base, base.head[e], r))[r]


__all__ = ["nb_columns", "nb_step", "layer_counts", "ball_sizes",
           "edge_ball_sizes", "ball_size_vertex", "ball_size_edge_two_sided"]
