"""Exhaustive enumeration of lifts of the half-loop base H23 by height.

A height-n lift is a LiftAssignment over h23() with the permutations
(sigma1, sigma1^-1, sigma2^-1, sigma2, mu): one per parallel edge and a
fixed-point-free involution mu for the half-loop.  Relabelling the
v-fiber normalizes sigma1 to the identity; relabelling both fibers
simultaneously then conjugates (sigma2, mu), so sigma2 ranges over one
canonical permutation per cycle type and the first matching pair {0, j}
of mu over the orbits of the centralizer of sigma2, which have a closed
form (the cage-search normalisation of McKay, Myrvold and Nadon, SODA
1998).  mu is built pairwise on the search's own adjacency lists, which
also give the connectivity test at each leaf.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import GraphError, bfs, h23
from .lifts import LiftAssignment, _perm_inverse


# -- symmetry machinery ----------------------------------------------------

def _partitions(n, min_part):
    """Partitions of n into parts >= min_part, non-increasing."""
    def rec(remaining, cap):
        if remaining == 0:
            yield []
            return
        for part in range(min(cap, remaining), min_part - 1, -1):
            if remaining - part and remaining - part < min_part:
                continue
            for rest in rec(remaining - part, part):
                yield [part] + rest
    yield from rec(n, n)


def _sigma_from_partition(parts):
    perm = []
    base = 0
    for length in parts:
        perm.extend([base + (k + 1) % length for k in range(length)])
        base += length
    return tuple(perm)


def _first_pair_reps(parts):
    """One candidate j per centralizer orbit of the unordered pair {0, j},
    in increasing order, for the canonical permutation of the
    non-increasing parts.  The centralizer rotates each cycle and permutes
    cycles of equal length.  In 0's own cycle of length L a rotation maps
    {0, k} to {0, L - k}, so k = 1 .. L // 2 are the orbits there; every
    other j is equivalent to the first vertex of the first later cycle of
    its length."""
    reps = list(range(1, parts[0] // 2 + 1))
    start = parts[0]
    for k in range(1, len(parts)):
        if k == 1 or parts[k] != parts[k - 1]:
            reps.append(start)
        start += parts[k]
    return reps


# -- the search itself -----------------------------------------------------

class SearchCounter:
    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = 0


def canonical_enumerate(n, g, counter: SearchCounter = None):
    """Connected girth >= g lifts of height n, as LiftAssignments over
    h23(): every isomorphism class at least once, and duplicates the
    normalizations do not rule out may appear.

    sigma2 is canonical per cycle type and mu is built pairwise.  Each
    search frame pairs the first unpaired u-vertex i.  One bounded BFS
    from i per frame gives the vertices within distance g - 2 of i;
    pairing i with such a j would close a cycle shorter than g, so j is
    pruned.  The list serves every candidate of the frame because each
    child restores adj before the next candidate is tried.  A leaf is
    yielded only when one BFS over adj reaches every vertex."""
    if g < 3:
        raise GraphError("g must be >= 3")
    if n < 1:
        raise GraphError("height must be >= 1")
    if n % 2:
        return
    counter = counter or SearchCounter()
    base = h23()
    ident = tuple(range(n))
    for parts in _partitions(n, (g + 1) // 2):
        sigma2 = _sigma_from_partition(parts)
        # base directed ids: 0 v->u, 1 u->v (pair A), 2 v->u, 3 u->v
        # (pair B), 4 the half-loop at u
        perms = [ident, ident, _perm_inverse(sigma2), sigma2]
        # vertices: u_i = i, v_i = n + i; edges u_i-v_i and u_i-v_sigma2(i)
        adj = [[] for _ in range(2 * n)]
        for i in range(n):
            adj[i] += [n + i, n + sigma2[i]]
            adj[n + i].append(i)
            adj[n + sigma2[i]].append(i)
        first_reps = _first_pair_reps(parts)
        mu = [-1] * n

        def extend(unpaired):
            if not unpaired:
                if min(bfs(adj, 0)) >= 0:
                    yield LiftAssignment(base, n, perms + [mu])
                return
            i = unpaired[0]
            near = bfs(adj, i, g - 1)
            candidates = first_reps if i == 0 else unpaired[1:]
            for j in candidates:
                if mu[j] >= 0 or j == i:
                    continue
                counter.nodes += 1
                if near[j] >= 0:
                    continue
                mu[i], mu[j] = j, i
                adj[i].append(j)
                adj[j].append(i)
                rest = [x for x in unpaired if x != i and x != j]
                yield from extend(rest)
                adj[i].pop()
                adj[j].pop()
                mu[i] = mu[j] = -1

        yield from extend(list(range(n)))


@dataclass(frozen=True)
class SearchOutcome:
    g: int
    size: int | None          # vertices of the smallest witness, if any
    witness: LiftAssignment | None
    n_max: int
    nodes: int

    @property
    def resolved(self):
        return self.size is not None


def _first_lift(g: int, n_max: int):
    """(lift, nodes): the first connected girth-g lift over the heights
    2, 4, ..., n_max, or None (odd heights are impossible: mu would need a
    fixed point), and the search nodes spent."""
    if g < 3:
        raise GraphError("g must be >= 3")
    counter = SearchCounter()
    for n in range(2, n_max + 1, 2):
        for lift in canonical_enumerate(n, g, counter):
            return lift, counter.nodes
    return None, counter.nodes


def minimum_size(g: int, n_max: int) -> SearchOutcome:
    """Smallest 2n over heights n <= n_max admitting a connected girth-g
    lift, with a witness; unresolved outcome when none exists in range."""
    lift, nodes = _first_lift(g, n_max)
    size = None if lift is None else 2 * lift.height
    return SearchOutcome(g, size, lift, n_max, nodes)


@dataclass(frozen=True)
class Certificate:
    g: int
    height: int
    refuted: bool
    nodes: int
    counterexample: LiftAssignment | None   # set when refuted is False

    def line(self):
        return f"g,{self.g},refuted_up_to,{self.height},nodes,{self.nodes}"


def certify_lower_bound(g: int, n: int) -> Certificate:
    """Exhaustively check that no connected girth-g lift of height <= n
    exists."""
    lift, nodes = _first_lift(g, n)
    return Certificate(g, n, lift is None, nodes, lift)


__all__ = ["SearchCounter", "canonical_enumerate", "SearchOutcome",
           "minimum_size", "Certificate", "certify_lower_bound"]
