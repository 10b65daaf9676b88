"""Lazy exploration of the universal covering tree.

Ball sizes are computed by counting non-backtracking walks in the base
graph.  Frontier states are (arriving directed edge) keys with integer
multiplicities, so layer sizes stay polynomial in the number of base
edges even though the ball itself grows exponentially.

`nb_step` is the one step of the non-backtracking matrix B that ball
sizes, the Perron radius (`spectral`) and the all-edge cycle profiles of
surgery growth (`construct.nb_cycle_profile`) share.  The balls grow at
the rate of that radius, rho (`spectral.spectral_radius`).
"""

from __future__ import annotations

from itertools import accumulate
from operator import add

from .graphs import GraphError, MultiGraph


def nb_step(g: MultiGraph, counts) -> dict:
    """One step of B: walk counts keyed by the directed edge the walk ends
    on, to the counts of the walks one step longer.  A walk ending on e
    continues on every edge out of head(e) except e^-1; edges no walk
    reaches are absent.  Each entry sums its predecessors in the order of
    `counts`."""
    head, inv, out = g.head, g.inv, g.out
    nxt = {}
    for e, c in counts.items():
        back = inv[e]
        for f in out[head[e]]:
            if f != back:
                nxt[f] = nxt.get(f, 0) + c
    return nxt


def layer_counts(base: MultiGraph, v: int, rmax: int):
    """Numbers of non-backtracking walks of lengths 1..rmax from a tree
    vertex over v."""
    if rmax < 0:
        raise GraphError("rmax must be >= 0")
    counts, sums = dict.fromkeys(base.out[v], 1), []
    for k in range(rmax):
        counts = nb_step(base, counts) if k else counts
        sums.append(sum(counts.values()))
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


__all__ = ["nb_step", "layer_counts", "ball_sizes", "edge_ball_sizes",
           "ball_size_vertex", "ball_size_edge_two_sided"]
