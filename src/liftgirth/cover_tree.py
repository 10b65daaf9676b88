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

from collections import Counter

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


def _layer_sums(g: MultiGraph, counts, r: int):
    """Sizes of the first r layers grown from the start walks in counts:
    sum the layer, and step only to a layer that is summed next."""
    sums = []
    for k in range(r):
        if k:
            counts = nb_step(g, counts)
        sums.append(sum(counts.values()))
    return sums


def layer_counts(base: MultiGraph, v: int, rmax: int):
    """Numbers of non-backtracking walks of lengths 1..rmax from a tree
    vertex over v."""
    if rmax < 0:
        raise GraphError("rmax must be >= 0")
    return _layer_sums(base, dict.fromkeys(base.out[v], 1), rmax)


def ball_size_vertex(base: MultiGraph, v: int, r: int) -> int:
    """|B_r| around a tree vertex over v: 1 + sum of the layer counts."""
    return 1 + sum(layer_counts(base, v, r))


def ball_size_edge_two_sided(base: MultiGraph, e: int, r: int) -> int:
    """Vertices within distance r of either endpoint of a tree edge over e.

    The walks that leave the head away from the edge are one B-step of e,
    and those that leave the tail are one B-step of e^-1.  A half-loop is
    its own inverse, so its one side over one base vertex counts twice.
    """
    if r < 0:
        raise GraphError("r must be >= 0")
    start = nb_step(base, Counter((e, base.inv[e])))
    return 2 + sum(_layer_sums(base, start, r))


__all__ = ["nb_step", "layer_counts", "ball_size_vertex",
           "ball_size_edge_two_sided"]
