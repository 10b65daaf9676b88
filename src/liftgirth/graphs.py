"""Multigraphs with half-loops and whole-loops.

A graph is stored as a set of directed edges with an involution pairing
each edge with its inverse.  A half-loop is a self-inverse directed edge
(it contributes 1 to the degree of its vertex); a whole-loop is a pair of
mutually inverse directed edges at one vertex (contributing 2).
"""

from __future__ import annotations

import math
import operator
from functools import reduce


class GraphError(Exception):
    """Structurally invalid graph or violated precondition."""


class ParseError(GraphError):
    """Malformed graph or map file."""


class TrialFailed(GraphError):
    """A randomized construction ran out of budget or steps; an expected
    outcome of one trial, unlike a violated precondition or invariant."""


class MultiGraph:
    """Immutable multigraph given by directed edges and an involution.

    Directed edge ``e`` has ``tail[e]``, ``head[e]`` and inverse ``inv[e]``;
    ``out[v]`` lists the edges out of ``v`` in id order, and ``adj[v]`` their
    heads.
    Vertex and edge ids are dense 0-based integers.
    """

    __slots__ = ("vertex_count", "tail", "head", "inv", "adj", "out", "_deg")

    def __init__(self, vertex_count, tail, head, inv):
        if vertex_count <= 0:
            raise GraphError("vertex_count must be positive")
        tail = tuple(tail)
        head = tuple(head)
        inv = tuple(inv)
        m = len(tail)
        if len(head) != m or len(inv) != m:
            raise GraphError("tail/head/inv length mismatch")
        for e in range(m):
            if not (0 <= tail[e] < vertex_count and 0 <= head[e] < vertex_count):
                raise GraphError(f"edge {e}: vertex index out of range")
            f = inv[e]
            if not 0 <= f < m:
                raise GraphError(f"edge {e}: inverse id out of range")
            if inv[f] != e:
                raise GraphError(f"edge {e}: inverse is not an involution")
            if head[f] != tail[e] or tail[f] != head[e]:
                raise GraphError(f"edge {e}: inverse head/tail mismatch")
        self.vertex_count = vertex_count
        self.tail = tail
        self.head = head
        self.inv = inv
        out = [[] for _ in range(vertex_count)]
        adj = [[] for _ in range(vertex_count)]
        for e, (t, h) in enumerate(zip(tail, head)):
            out[t].append(e)
            adj[t].append(h)
        self.out = tuple(map(tuple, out))
        self._deg = tuple(map(len, out))
        self.adj = tuple(map(tuple, adj))

    # -- basic accessors ---------------------------------------------------

    @property
    def edge_count(self):
        """Number of directed edges (a half-loop counts once)."""
        return len(self.tail)

    def degree(self, v):
        return self._deg[v]

    def degrees(self):
        return self._deg

    def is_half_loop(self, e):
        return self.inv[e] == e

    def is_loop(self, e):
        return self.tail[e] == self.head[e]

    def undirected_edges(self):
        """One directed representative per undirected edge (the smaller id)."""
        return tuple(e for e in range(self.edge_count) if e <= self.inv[e])

    def __eq__(self, other):
        if not isinstance(other, MultiGraph):
            return NotImplemented
        return (self.vertex_count == other.vertex_count
                and self.tail == other.tail
                and self.head == other.head
                and self.inv == other.inv)

    def __hash__(self):
        return hash((self.vertex_count, self.tail, self.head, self.inv))

    def __repr__(self):
        return (f"MultiGraph(vertices={self.vertex_count}, "
                f"directed_edges={self.edge_count})")

    # -- construction helpers ----------------------------------------------

    @staticmethod
    def build(vertex_count, directives):
        """Build from a sequence of ('edge', a, b) / ('wholeloop', a) /
        ('halfloop', a) directives, assigning directed ids in order; a
        whole-loop at a is the edge a a."""
        tail, head, inv = [], [], []
        for kind, *ends in directives:
            e = len(tail)
            if kind == "wholeloop":
                kind, ends = "edge", ends * 2
            if kind == "edge":
                a, b = ends
                tail += [a, b]
                head += [b, a]
                inv += [e + 1, e]
            elif kind == "halfloop":
                [a] = ends
                tail.append(a)
                head.append(a)
                inv.append(e)
            else:
                raise GraphError(f"unknown directive {kind!r}")
        return MultiGraph(vertex_count, tail, head, inv)

    @staticmethod
    def from_pairs(vertex_count, pairs):
        """Simple-graph style constructor from undirected vertex pairs: pair
        k is directed edges 2k and 2k + 1, as `build` numbers edge
        directives."""
        tail, head = [], []
        for a, b in pairs:
            tail += a, b
            head += b, a
        return MultiGraph(vertex_count, tail, head,
                          [e ^ 1 for e in range(len(tail))])


def bfs(adj, source, cutoff=None):
    """Distances from source over neighbour sequences adj (adj[v] lists
    the neighbours of v); -1 marks a vertex that is unreached or, when a
    cutoff >= 1 is given, at distance >= cutoff."""
    dist = [-1] * len(adj)
    dist[source] = 0
    frontier = [source]
    d = 1
    last = len(adj) if cutoff is None else cutoff - 1
    while frontier and d <= last:
        reached = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = d
                    reached.append(w)
        frontier = reached
        d += 1
    return dist


def is_connected(g: MultiGraph) -> bool:
    return min(bfs(g.adj, 0)) >= 0


def admissible(g: MultiGraph) -> bool:
    """The bases the bounds and rho are stated for: connected, minimum
    degree >= 2, and not a cycle (maximum degree > 2)."""
    degs = g.degrees()
    return min(degs) >= 2 and max(degs) > 2 and is_connected(g)


# -- all-sources BFS -------------------------------------------------------
#
# One level-synchronous BFS from many sources at once over Python-int
# bitsets, after Akiba, Iwata and Yoshida, "Fast exact shortest-path
# distance queries on large networks by pruned landmark labeling" (SIGMOD
# 2013): after round t, bit s - lo of rows[v] is set iff d(s, v) <= t.
# Sources go in blocks of _BLOCK, so the rows hold at most |V| * _BLOCK
# bits and memory stays linear in |V|.

_BLOCK = 4096


def _source_rows(n, lo):
    """Round 0 for the block of sources lo, lo + 1, ... (at most _BLOCK)."""
    rows = [0] * n
    for s in range(lo, min(n, lo + _BLOCK)):
        rows[s] = 1 << (s - lo)
    return rows


def _spread(adj, rows):
    """The next round: each row ORed with its neighbours' rows."""
    nxt = []
    for v, nbrs in enumerate(adj):
        x = rows[v]
        for w in nbrs:
            x |= rows[w]
        nxt.append(x)
    return nxt


def _sweep(adj, lo, rounds):
    """(before, rows, d): the all-sources BFS of the block at lo run for
    d <= rounds rounds, stopping early once every row is full; rows after
    round d and before it.  A round that changes no row before then means
    a disconnected graph."""
    n = len(adj)
    rows = _source_rows(n, lo)
    full = (1 << min(_BLOCK, n - lo)) - 1
    before, d = [0] * n, 0
    while d < rounds and rows.count(full) < n:
        nxt = _spread(adj, rows)
        if nxt == rows:
            raise GraphError("the graph is not connected")
        before, rows, d = rows, nxt, d + 1
    return before, rows, d


def far_sources(adj, radius):
    """The vertices of the graph with neighbour lists adj from which some
    vertex is more than radius away, in ascending order: the sources whose
    bit some row still lacks after radius rounds."""
    n = len(adj)
    far = []
    for lo in range(0, n, _BLOCK):
        missing = ~reduce(operator.and_, _sweep(adj, lo, radius)[1])
        far += [lo + s for s in range(min(_BLOCK, n - lo))
                if missing >> s & 1]
    return far


# -- distances -------------------------------------------------------------

def distance(g: MultiGraph, u, v):
    """Length of the shortest walk from u to v; math.inf if unreachable."""
    d = bfs(g.adj, u)[v]
    return d if d >= 0 else math.inf


def farthest_pair(adj):
    """(u, v, d) with d the diameter of the graph with neighbour lists adj,
    as bfs takes them; ties broken by smallest (u, v) pair.

    A block swept to the end takes as many rounds as its largest
    eccentricity d, and its sources of eccentricity d are the bits some
    row lacked before the last round.  u is the smallest of them in the
    first block of largest d, and v the first vertex d away from u."""
    n = len(adj)
    best = None
    for lo in range(0, n, _BLOCK):
        before, _, d = _sweep(adj, lo, n)
        if best is None or d > best[1]:
            best = lo, d, before
    lo, d, before = best
    missing = ~reduce(operator.and_, before)
    u = lo + (missing & -missing).bit_length() - 1
    return u, bfs(adj, u).index(d), d


def diameter(g: MultiGraph):
    """Largest distance; math.inf on a disconnected graph, as distance."""
    try:
        return farthest_pair(g.adj)[2]
    except GraphError:
        return math.inf


# -- girth -----------------------------------------------------------------

def girth(g: MultiGraph):
    """Shortest cycle length: 1 with any loop, 2 with a parallel pair,
    else the simple-graph girth; math.inf for forests.

    Without loops it is the minimum over source blocks of _block_girth,
    the all-sources form of the per-root BFS of Itai and Rodeh, "Finding
    a minimum circuit in a graph" (1978)."""
    if any(map(operator.eq, g.tail, g.head)):
        return 1
    best = math.inf
    for lo in range(0, g.vertex_count, _BLOCK):
        best = _block_girth(g.adj, lo, best)
    return best


def _block_girth(adj, lo, bound):
    """Shortest cycle met by the sources of the block at lo in a graph
    without loops, or bound when none is shorter.

    In round t, a source new at v through two of v's edges closes a
    cycle of length at most 2t, and an edge joining two vertices where
    one source is new closes one of at most 2t + 1; a source on a
    shortest cycle meets it exactly.  Even is checked before odd.  So a
    parallel pair shows in round 1: one end reaches the other twice."""
    rows = _source_rows(len(adj), lo)
    t = 1
    while 2 * t < bound:
        nxt = []
        for v, nbrs in enumerate(adj):
            once = twice = 0
            for w in nbrs:
                x = rows[w]
                twice |= once & x
                once |= x
            if twice & ~rows[v]:
                return 2 * t
            nxt.append(rows[v] | once)
        if nxt == rows:
            return bound
        new = [a & ~b for a, b in zip(nxt, rows)]
        if any(new[v] & new[w] for v, nbrs in enumerate(adj) if new[v]
               for w in nbrs):
            return 2 * t + 1
        rows = nxt
        t += 1
    return bound


# -- serialization ---------------------------------------------------------

def tokenize(text: str, arity):
    """Yield (lineno, word, ints) for each non-blank line of a line-oriented
    file, '#' starting a comment; arity maps every known directive to its
    number of integer arguments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        word, args = parts[0], parts[1:]
        if word not in arity:
            raise ParseError(f"line {lineno}: unknown directive {word!r}")
        if len(args) != arity[word]:
            raise ParseError(
                f"line {lineno}: {word} wants {arity[word]} argument(s)")
        try:
            ints = [int(p) for p in args]
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer argument") from None
        yield lineno, word, ints


_GRAPH_ARITY = {"vertices": 1, "edge": 2, "wholeloop": 1, "halfloop": 1}


def parse_graph(text: str) -> MultiGraph:
    """Parse the line-oriented graph format (see serialize_graph)."""
    vertex_count = None
    directives = []
    for lineno, word, args in tokenize(text, _GRAPH_ARITY):
        if word != "vertices":
            directives.append((word, *args))
        elif vertex_count is not None:
            raise ParseError(f"line {lineno}: second vertices header")
        else:
            vertex_count = args[0]
    if vertex_count is None:
        raise ParseError("missing 'vertices' header")
    try:
        return MultiGraph.build(vertex_count, directives)
    except GraphError as exc:
        raise ParseError(f"invalid graph: {exc}") from None


def serialize_graph(g: MultiGraph) -> str:
    """Inverse of parse_graph, emitting directives in directed-id order."""
    lines = [f"vertices {g.vertex_count}"]
    for e in g.undirected_edges():
        if g.is_half_loop(e):
            lines.append(f"halfloop {g.tail[e]}")
        elif g.is_loop(e):
            lines.append(f"wholeloop {g.tail[e]}")
        else:
            lines.append(f"edge {g.tail[e]} {g.head[e]}")
    return "\n".join(lines) + "\n"


def file_edge_ids(g: MultiGraph):
    """Edge ids parse_graph would assign after a serialize_graph round
    trip, as a tuple indexed by the current ids: serialize_graph's walk
    numbers each line's edge, then its inverse unless it is a half-loop."""
    new = [None] * g.edge_count
    walk = (f for e in g.undirected_edges()
            for f in dict.fromkeys((e, g.inv[e])))
    for i, e in enumerate(walk):
        new[e] = i
    return tuple(new)


# -- shared fixtures -------------------------------------------------------

def h23() -> MultiGraph:
    """Two vertices: v (degree 2, id 0) and u (degree 3, id 1) joined by a
    parallel pair, with a half-loop at u."""
    return MultiGraph.build(2, [("edge", 0, 1), ("edge", 0, 1), ("halfloop", 1)])


def k32() -> MultiGraph:
    """Complete bipartite K_{3,2}: sides {0,1} (degree 3) and {2,3,4}."""
    return MultiGraph.from_pairs(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])


def cycle_graph(n: int) -> MultiGraph:
    return MultiGraph.from_pairs(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> MultiGraph:
    return MultiGraph.from_pairs(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def k4_minus_edge() -> MultiGraph:
    return MultiGraph.from_pairs(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def petersen() -> MultiGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return MultiGraph.from_pairs(10, outer + inner + spokes)
