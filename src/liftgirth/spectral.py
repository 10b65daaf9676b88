"""Perron radius of the non-backtracking matrix B (applied by
`cover_tree.nb_step`), and degree-based invariants."""

from __future__ import annotations

import math
from typing import NamedTuple

from .cover_tree import nb_step
from .graphs import GraphError, MultiGraph, admissible, bfs


def _successors(h: MultiGraph):
    """B as successor lists: the edges a walk ending on e may continue on."""
    return [list(nb_step(h, {e: 1})) for e in range(h.edge_count)]


def _strongly_connected(succ) -> bool:
    """Whether B, as successor lists, is irreducible: its digraph (an arc
    e -> f when a walk ending on e may continue on f) has an arc and is
    strongly connected.  (So a 1x1 B, which is zero, counts as reducible.)"""
    if not any(succ):
        return False
    pred = [[] for _ in succ]
    for e, fs in enumerate(succ):
        for f in fs:
            pred[f].append(e)
    return all(min(bfs(adj, 0)) >= 0 for adj in (succ, pred))


_TOL = 1e-10           # power iteration stops at residual <= _TOL * (rho + 1)
_MAX_ITER = 10**6
_EQUALITY_TOL = 1e-9   # rho_lambda_equality's slack per chain


def spectral_radius(h: MultiGraph):
    """Perron radius of the non-backtracking matrix B of h by power
    iteration on B + I.

    The shift makes the iteration matrix primitive even when B has several
    peripheral eigenvalues (e.g. period 2 for bipartite-like bases), so
    plain power iteration converges.  Returns (rho, iterations, residual)
    with residual the scaled infinity norm of (B+I)x - (rho+1)x.

    The precondition is on B itself, which the iteration needs, not
    `graphs.admissible`: B is also irreducible on some inadmissible bases
    (two half-loops at one vertex, B one cyclic permutation: rho = 1).
    """
    if not _strongly_connected(_successors(h)):
        raise GraphError("spectral_radius requires an irreducible matrix")
    n = h.edge_count
    x = [1.0] * n
    lam = 0.0
    for it in range(1, _MAX_ITER + 1):
        bx = nb_step(h, dict(enumerate(x)))
        y = [x[i] + bx[i] for i in range(n)]
        norm = max(abs(v) for v in y)
        y = [v / norm for v in y]
        lam = norm  # with x normalized in inf-norm, |y|_inf estimates rho+1
        residual = max(abs(x[i] + bx[i] - lam * x[i]) for i in range(n)) \
            / max(abs(v) for v in x)
        x = y
        if residual <= _TOL * lam:
            return lam - 1.0, it, residual
    raise GraphError(
        f"power iteration did not converge: residual {residual:.3e} "
        f"after {_MAX_ITER} iterations")


def avg_degree(h: MultiGraph) -> float:
    return sum(h.degrees()) / h.vertex_count


def lambda_ahl(h: MultiGraph) -> float:
    """Degree-geometric mean prod_v (d_v - 1)^(d_v / |E|), in log space."""
    m = h.edge_count
    acc = 0.0
    for v in range(h.vertex_count):
        d = h.degree(v)
        if d < 2:
            raise GraphError(f"vertex {v} has degree {d} < 2")
        acc += d * math.log(d - 1)
    return math.exp(acc / m)


def _chains(h: MultiGraph):
    """Maximal non-backtracking paths whose internal vertices have degree
    two and whose endpoints are branch vertices (degree > 2)."""
    seen = set()
    for start in range(h.edge_count):
        if h.degree(h.tail[start]) <= 2:
            continue
        edges = [start]
        e = start
        while h.degree(h.head[e]) == 2:
            v = h.head[e]
            e = next(f for f in h.out[v] if f != h.inv[e])
            edges.append(e)
        key = min(tuple(edges), tuple(h.inv[e] for e in reversed(edges)))
        if key in seen:
            continue
        seen.add(key)
        vertices = [h.tail[start]] + [h.head[e] for e in edges]
        yield tuple(edges), tuple(vertices)


def rho_lambda_equality(h: MultiGraph):
    """Whether the Perron radius equals the degree-geometric mean.

    Checks, for every maximal degree-two chain P between branch vertices,
    that the per-walk geometric mean (prod_{v in P} (deg v - 1))^(1/(2|P|))
    matches lambda_ahl; returns (equal, witness) with witness the first
    failing chain's vertex list (None when equal).
    """
    if not admissible(h):
        raise GraphError("rho_lambda_equality needs an admissible graph")
    lam = lambda_ahl(h)
    for edges, vertices in _chains(h):
        prod = 1.0
        for v in vertices:
            prod *= h.degree(v) - 1
        val = prod ** (1.0 / (2 * len(edges)))
        if abs(val - lam) > _EQUALITY_TOL:
            return False, vertices
    return True, None


class SpectralSummary(NamedTuple):
    rho: float
    lam: float
    avg_degree_minus_one: float
    equality_rho_lambda: bool
    iterations: int
    residual: float


def summarize(h: MultiGraph) -> SpectralSummary:
    if not admissible(h):
        raise GraphError("graph is not admissible (connected, mindeg >= 2, "
                         "maxdeg > 2)")
    rho, iters, residual = spectral_radius(h)
    equal, _ = rho_lambda_equality(h)
    return SpectralSummary(
        rho=rho,
        lam=lambda_ahl(h),
        avg_degree_minus_one=avg_degree(h) - 1.0,
        equality_rho_lambda=equal,
        iterations=iters,
        residual=residual,
    )


__all__ = ["spectral_radius", "avg_degree", "lambda_ahl",
           "rho_lambda_equality", "SpectralSummary", "summarize"]
