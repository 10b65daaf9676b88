"""Exhaustive enumeration of lifts of the half-loop base by height.

A height-n lift is (sigma1, sigma2, mu): one permutation per parallel
edge and a fixed-point-free involution for the half-loop.  Relabelling
the v-fiber normalizes sigma1 to the identity; relabelling both fibers
simultaneously then conjugates (sigma2, mu), so sigma2 ranges over one
canonical permutation per cycle type and the first matching pair of mu
over centralizer orbit representatives.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import GraphError, bfs, h23, is_connected
from .lifts import LiftAssignment, _perm_inverse, build_lift


@dataclass(frozen=True)
class PermLiftH23:
    """Compact (n, sigma2, mu) form of a lift of the half-loop base with
    sigma1 normalized to the identity."""
    n: int
    sigma2: tuple
    mu: tuple

    def __post_init__(self):
        if sorted(self.sigma2) != list(range(self.n)):
            raise GraphError("sigma2 is not a permutation of range(n)")
        if any(self.mu[self.mu[i]] != i or self.mu[i] == i
               for i in range(self.n)):
            raise GraphError("mu must be a fixed-point-free involution")

    @property
    def sigma1(self):
        return tuple(range(self.n))

    def assignment(self) -> LiftAssignment:
        ident = tuple(range(self.n))
        # base directed ids: 0 v->u, 1 u->v (pair A), 2 v->u, 3 u->v
        # (pair B), 4 the half-loop at u
        perms = [ident, ident,
                 _perm_inverse(self.sigma2), tuple(self.sigma2),
                 tuple(self.mu)]
        return LiftAssignment(h23(), self.n, perms)

    def graph_and_cover(self):
        return build_lift(self.assignment())


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


def _centralizer_generators(parts):
    """Generators of the centralizer of the canonical partition
    permutation: one rotation per cycle plus swaps of adjacent
    equal-length cycle blocks."""
    n = sum(parts)
    gens = []
    base = 0
    blocks = []
    for length in parts:
        blocks.append((base, length))
        rot = list(range(n))
        for k in range(length):
            rot[base + k] = base + (k + 1) % length
        gens.append(tuple(rot))
        base += length
    for (b1, l1), (b2, l2) in zip(blocks, blocks[1:]):
        if l1 == l2:
            swap = list(range(n))
            for k in range(l1):
                swap[b1 + k], swap[b2 + k] = b2 + k, b1 + k
            gens.append(tuple(swap))
    return gens


def _first_pair_reps(parts):
    """One candidate j per centralizer orbit of the unordered pair {0, j}."""
    n = sum(parts)
    gens = _centralizer_generators(parts)
    reps = []
    seen = set()
    for j in range(1, n):
        if j in seen:
            continue
        reps.append(j)
        frontier = [(0, j)]
        orbit = {(0, j)}
        while frontier:
            a, b = frontier.pop()
            for gperm in gens:
                img = (min(gperm[a], gperm[b]), max(gperm[a], gperm[b]))
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        for a, b in orbit:
            if a == 0:
                seen.add(b)
    return reps


# -- the search itself -----------------------------------------------------

class SearchCounter:
    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = 0


def _raw_enumerate(n, g, counter):
    """All (sigma2, mu) with sigma2 canonical per cycle type and mu built
    pairwise; no isomorphism dedup beyond the sigma2 normalization and the
    first-pair orbit restriction.

    Each search frame pairs the first unpaired u-vertex i.  One bounded
    BFS from i per frame gives the vertices within distance g - 2 of i;
    pairing i with such a j would close a cycle shorter than g, so j is
    pruned.  The list serves every candidate of the frame because each
    child restores adj before the next candidate is tried."""
    min_cycle = (g + 1) // 2
    for parts in _partitions(n, min_cycle):
        sigma2 = _sigma_from_partition(parts)
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
                yield tuple(mu)
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

        for m in extend(list(range(n))):
            yield PermLiftH23(n, sigma2, m)


def canonical_enumerate(n, g, counter: SearchCounter = None):
    """Connected girth >= g lifts of height n: every isomorphism class at
    least once, and duplicates the normalizations do not rule out may
    appear."""
    if g < 3:
        raise GraphError("g must be >= 3")
    if n % 2:
        return
    counter = counter or SearchCounter()
    for lift in _raw_enumerate(n, g, counter):
        graph, _ = lift.graph_and_cover()
        if is_connected(graph):
            yield lift


@dataclass(frozen=True)
class SearchOutcome:
    g: int
    size: int | None          # vertices of the smallest witness, if any
    witness: object           # PermLiftH23 or None
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
    size = None if lift is None else 2 * lift.n
    return SearchOutcome(g, size, lift, n_max, nodes)


@dataclass(frozen=True)
class Certificate:
    g: int
    height: int
    refuted: bool
    nodes: int
    counterexample: object    # PermLiftH23 when refuted is False

    def line(self):
        return f"g,{self.g},refuted_up_to,{self.height},nodes,{self.nodes}"


def certify_lower_bound(g: int, n: int) -> Certificate:
    """Exhaustively check that no connected girth-g lift of height <= n
    exists."""
    lift, nodes = _first_lift(g, n)
    return Certificate(g, n, lift is None, nodes, lift)


__all__ = ["PermLiftH23", "SearchCounter", "canonical_enumerate",
           "SearchOutcome", "minimum_size", "Certificate",
           "certify_lower_bound"]
