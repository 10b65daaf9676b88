"""Exhaustive enumeration of lifts of the half-loop base H23 by height.

A height-n lift is a LiftAssignment over h23() with the permutations
(sigma1, sigma1^-1, sigma2^-1, sigma2, mu): one per parallel edge and a
fixed-point-free involution mu for the half-loop.  Relabelling the
v-fiber normalizes sigma1 to the identity; relabelling both fibers
simultaneously then conjugates (sigma2, mu), so sigma2 ranges over one
canonical permutation per cycle type, and mu is built pairwise, each
pair {i, j} over the orbits of the part of the centralizer of sigma2
that fixes the pairs made (orbit_partners: the cage-search
normalisation of McKay, Myrvold and Nadon, SODA 1998, at every frame).
v_i joins u_i and u_sigma2(i), so a lift is connected iff mu's pairs
join all the cycles of sigma2.
construct.greedy_cycle shares pairing_kernel and members.
"""

from __future__ import annotations

from typing import NamedTuple

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


def orbit_partners(parts, unpaired, i, legal):
    """The partners j in the mask legal that i keeps: one per orbit of
    {i, j} under the rotations of the untouched cycles (no paired
    vertex) of the canonical permutation of the parts and the swaps of
    untouched cycles of equal length, which fix every paired vertex and
    commute with sigma2.  A touched cycle keeps every vertex.  On i's
    own untouched cycle of length L a rotation by -k maps {i, i+k} to
    {i-k, i}, so it keeps the offsets 1 .. L // 2 from i; the other
    untouched cycles keep the first vertex of the first of each length."""
    keep = 0
    lengths = set()
    base = 0
    for length in parts:
        cycle = (1 << length) - 1 << base
        if cycle & ~unpaired:
            keep |= cycle
        elif base <= i < base + length:
            for k in range(1, length // 2 + 1):
                keep |= 1 << base + (i - base + k) % length
        elif length not in lengths:
            lengths.add(length)
            keep |= 1 << base
        base += length
    return legal & keep


# -- the search itself -----------------------------------------------------

class SearchCounter:
    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = 0


def pairing_kernel(parts, top):
    """(ball, join) over the u-vertices on cycles of sigma2 of the given
    lengths.  ball[x] packs the masks of the u-vertices within distance r
    of x, r = 0..top, into one int, radius r in bits (top-r)*n .. +n-1, so
    the widest ball is the low n bits.  At first, u-vertices k steps apart
    on one cycle of length L are at distance 2 min(k, L - k), and
    different cycles are not joined.  join(i, j, unpaired) adds the edge
    i-j to the rows of the unpaired vertices: an unpaired x at distance
    a < top from i gains, at every radius s > a, the radius s-1-a ball of
    j, one right shift of j's row; symmetrically for j.  So the rows of i
    and j must be current, and a paired vertex's row goes stale."""
    n = sum(parts)
    ball = []
    base = 0
    for length in parts:
        # the cycle's bits in every field, and the first of them
        window = sum(((1 << length) - 1) << base + f * n
                     for f in range(top + 1))
        first = sum(1 << base + f * n for f in range(top + 1))
        row = 0           # the balls around position 0 of the cycle
        for r in range(top + 1):
            reach = min(r // 2, length // 2)
            row |= sum(1 << k for k in {d % length for d in
                                        range(-reach, reach + 1)}) \
                << base + (top - r) * n
        for _ in range(length):
            ball.append(row)
            # one step along the cycle: rotate every field's window by one
            row = row << 1 & window & ~first | row >> length - 1 & first
        base += length
    # bit 0 of the fields of radii 1..top-1
    spread = sum(1 << f * n for f in range(1, top))
    # bit p = (top-a)*n + x of a packed row: the vertex x, and the shift
    # that moves radius r to radius r + a + 1
    vertex = [p % n for p in range(top * n)]
    lift = [(top - p // n + 1) * n for p in range(top * n)]

    def join(i, j, unpaired):
        for near, far in ((ball[i], ball[j]), (ball[j], ball[i])):
            # bit (top-a)*n + x: x is unpaired, at distance exactly a
            # from the near end and, as it gains nothing otherwise,
            # farther than a + 1 from the far end
            ring = near & ~(near >> n) & ~(far << n) & unpaired * spread
            while ring:
                low = ring & -ring
                ring ^= low
                p = low.bit_length() - 1
                ball[vertex[p]] |= far >> lift[p]

    return ball, join


def canonical_enumerate(n, g, counter: SearchCounter = None):
    """Connected girth >= g lifts of height n, as pairs (sigma2, mu) of
    tuples: every isomorphism class at least once, and duplicates the
    normalizations do not rule out may appear.

    sigma2 is canonical per cycle type and mu is built pairwise.  A cycle
    through the new mu edge i-j is one longer than d(i, j), so j is a legal
    partner of i iff d(i, j) > g - 2.  With the balls of radius g-2 of the
    unpaired u-vertices (pairing_kernel), the legal partners of x are
    unpaired & ~ball[x]; a backtrack restores the rows saved before.

    A frame is pruned if some unpaired vertex has no legal partner
    (forward checking), and otherwise branches on the unpaired vertex
    with the fewest legal partners, the smallest on a tie (first-fail),
    over one of them per orbit (orbit_partners); at the root that is
    vertex 0, on the longest cycle.  counter.nodes counts the pairings
    made.  A leaf is yielded only when one BFS over the cycles of
    sigma2, joined by mu's pairs, reaches every cycle."""
    if g < 3:
        raise GraphError("g must be >= 3")
    if n < 1:
        raise GraphError("height must be >= 1")
    if n % 2:
        return
    counter = counter or SearchCounter()
    for parts in _partitions(n, (g + 1) // 2):
        sigma2 = _sigma_from_partition(parts)
        # v_i joins u_i and u_sigma2(i): each cycle of sigma2 is connected
        cycle = [k for k, length in enumerate(parts) for _ in range(length)]
        ball, join = pairing_kernel(parts, g - 2)
        mu = [-1] * n

        def extend(unpaired):
            if not unpaired:
                links = [[] for _ in parts]
                for x in range(n):
                    links[cycle[x]].append(cycle[mu[x]])
                if min(bfs(links, 0)) >= 0:
                    yield sigma2, tuple(mu)
                return
            fewest = n
            rest = unpaired
            while rest:
                low = rest & -rest
                rest ^= low
                x = low.bit_length() - 1
                legal = unpaired & ~ball[x]
                count = legal.bit_count()
                if count < fewest:
                    if not count:
                        return
                    i, fewest, partners = x, count, legal
            for j in members(orbit_partners(parts, unpaired, i, partners)):
                counter.nodes += 1
                rest = unpaired & ~(1 << i | 1 << j)
                saved = ball[:]
                mu[i], mu[j] = j, i
                join(i, j, rest)
                yield from extend(rest)
                ball[:] = saved

        yield from extend((1 << n) - 1)


def members(mask):
    """The set bits of mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


class SearchOutcome(NamedTuple):
    witness: LiftAssignment | None    # a lift of least height, if any
    nodes: int

    @property
    def size(self):
        """Vertices of the witness, two per layer, or None."""
        return None if self.witness is None else 2 * self.witness.height


def minimum_size(g: int, n_max: int) -> SearchOutcome:
    """The first connected girth-g lift over the heights 2, 4, ..., n_max
    (odd heights are impossible: mu would need a fixed point), so one of
    least height, and the search nodes spent; no witness when no height in
    range has one."""
    if g < 3:
        raise GraphError("g must be >= 3")
    counter = SearchCounter()
    for n in range(2, n_max + 1, 2):
        for sigma2, mu in canonical_enumerate(n, g, counter):
            # H23's directed edge ids: 0 v->u, 1 u->v (pair A), 2 v->u,
            # 3 u->v (pair B), 4 the half-loop at u
            ident = tuple(range(n))
            witness = LiftAssignment(
                h23(), n, [ident, ident, _perm_inverse(sigma2), sigma2, mu])
            return SearchOutcome(witness, counter.nodes)
    return SearchOutcome(None, counter.nodes)


def certify_lower_bound(g: int, n: int) -> SearchOutcome:
    """minimum_size(g, n) under an older name that only perfbench's
    tracer still names; call minimum_size.  Without a witness, it
    certifies that no connected girth-g lift of height <= n exists."""
    return minimum_size(g, n)


__all__ = ["SearchCounter", "pairing_kernel", "canonical_enumerate",
           "members", "SearchOutcome", "minimum_size", "certify_lower_bound"]
