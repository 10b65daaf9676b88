"""Perron radius of the non-backtracking matrix B (applied by
`cover_tree.nb_step` over its `nb_columns`), and degree-based invariants."""

from __future__ import annotations

import math
from operator import add
from typing import NamedTuple

from .cover_tree import nb_columns, nb_step
from .graphs import GraphError, MultiGraph, admissible


_TOL = 1e-10           # power iteration stops at residual <= _TOL * (rho + 1)
_MAX_ITER = 10**6
_EQUALITY_TOL = 1e-9   # rho_lambda_equality's slack per walk


def spectral_radius(h: MultiGraph):
    """Perron radius of the non-backtracking matrix B of h by power
    iteration on B + I.

    The shift makes the iteration matrix primitive even when B has several
    peripheral eigenvalues (e.g. period 2 for bipartite-like bases), so
    plain power iteration converges.  Returns (rho, iterations, residual)
    with residual the infinity norm of (B+I)x - (rho+1)x, for x >= 0
    scaled to largest entry 1.0.

    An admissible base has an irreducible B, which the iteration needs.
    """
    if not admissible(h):
        raise GraphError("spectral_radius needs an admissible graph")
    columns = nb_columns(h)
    x = [1.0] * h.edge_count + [0.0]    # the zero slot of nb_columns
    for it in range(1, _MAX_ITER + 1):
        y = list(map(add, x, nb_step(columns, x)))
        lam = max(y)    # x >= 0 has largest entry 1: max(y) estimates rho+1
        residual = max(abs(v - lam * u) for u, v in zip(x, y))
        x = [v / lam for v in y]
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


def rho_lambda_equality(h: MultiGraph) -> bool:
    """Whether the Perron radius equals the degree-geometric mean.

    Walks from every edge out of a branch vertex a (degree > 2) through
    degree-two vertices to the next branch vertex b, L edges on, and checks
    that the per-walk geometric mean ((deg a - 1)(deg b - 1))^(1/(2L))
    matches lambda_ahl.
    """
    if not admissible(h):
        raise GraphError("rho_lambda_equality needs an admissible graph")
    lam = lambda_ahl(h)
    deg = h.degrees()
    for start in range(h.edge_count):
        a = h.tail[start]
        if deg[a] <= 2:
            continue
        e, length = start, 1
        while deg[h.head[e]] == 2:
            e = next(f for f in h.out[h.head[e]] if f != h.inv[e])
            length += 1
        val = ((deg[a] - 1) * (deg[h.head[e]] - 1)) ** (1.0 / (2 * length))
        if abs(val - lam) > _EQUALITY_TOL:
            return False
    return True


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
    return SpectralSummary(
        rho=rho,
        lam=lambda_ahl(h),
        avg_degree_minus_one=avg_degree(h) - 1.0,
        equality_rho_lambda=rho_lambda_equality(h),
        iterations=iters,
        residual=residual,
    )


__all__ = ["spectral_radius", "avg_degree", "lambda_ahl",
           "rho_lambda_equality", "SpectralSummary", "summarize"]
