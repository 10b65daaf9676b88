"""Lazy exploration of the universal covering tree.

Ball sizes are computed by counting non-backtracking walks in the base
graph.  Frontier states are (arriving directed edge) keys with integer
multiplicities, so layer sizes stay polynomial in the number of base
edges even though the ball itself grows exponentially.

`nb_step` is the one step of the non-backtracking matrix B that ball
sizes, the Perron radius (`spectral`) and the all-edge cycle profiles of
surgery growth (`construct.nb_cycle_profile`) share.
"""

from __future__ import annotations

from .graphs import GraphError, MultiGraph, admissible


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

    Each side expands away from the edge: the first step from the tail
    excludes e itself, the first step from the head excludes e^-1.  For a
    half-loop the two sides coincide over one base vertex and both exclude
    the single directed edge.
    """
    if r < 0:
        raise GraphError("r must be >= 0")
    total = 2
    for start_vertex, forbidden in ((base.tail[e], e),
                                    (base.head[e], base.inv[e])):
        start = {f: 1 for f in base.out[start_vertex] if f != forbidden}
        total += sum(_layer_sums(base, start, r))
    return total


def growth_estimate(base: MultiGraph, rmax: int) -> float:
    """Growth rate of universal cover balls around a fixed root.

    Uses the two-point ratio (|B_rmax| / |B_rmax/2|)^(1/(rmax - rmax/2)),
    which cancels the constant in front of rho^r; the plain |B_r|^(1/r)
    converges too slowly to be a useful sanity display.  Still only an
    estimate, not a precision computation.
    """
    if rmax < 10:
        raise GraphError("rmax must be >= 10 for a meaningful estimate")
    if not admissible(base):
        raise GraphError("growth_estimate needs an admissible base graph")
    half = rmax // 2
    ratio = ball_size_vertex(base, 0, rmax) / ball_size_vertex(base, 0, half)
    return ratio ** (1.0 / (rmax - half))


__all__ = ["nb_step", "layer_counts", "ball_size_vertex",
           "ball_size_edge_two_sided", "growth_estimate"]
