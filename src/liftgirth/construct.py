"""Constructive algorithms for small high-girth covers.

Three families:
  * iterated random 2-lifts that boost girth (with a cycle census as the
    progress measure), plus the layer-trimming step that turns a
    high-girth cover into one of bounded diameter;
  * greedy completion of a cycle by a matching on its even vertices
    (variants a/b/c), specific to the two-vertex half-loop base;
  * growth by edge surgery starting from K4 minus an edge (variants
    gd/gf), also specific to that base.
"""

from __future__ import annotations

from functools import lru_cache
from operator import and_, rshift
from typing import TYPE_CHECKING, NamedTuple

from .cover_tree import nb_step
from .graphs import (GraphError, MultiGraph, TrialFailed, _spread, bfs,
                     farthest_pair, girth, h23)
from .lifts import (CoverMap, LiftAssignment, build_lift,
                    half_loop_elimination, normalize_tree_layers, verify_cover)

# bounds (for es) and search (for greedy) are imported where they run: an
# invocation compiles what it imports when bytecode is not cached, so a
# construct run compiles only what its algorithm uses, as in cli.
if TYPE_CHECKING:
    from .bounds import SpanningTreeInfo


# -- cycle counting --------------------------------------------------------

def cycles_of_length(g: MultiGraph, length: int):
    """All vertex-simple cycles of exactly the given length, as tuples of
    directed edges, each cycle listed once: from its smallest vertex, in
    the direction whose first edge has a smaller id than the inverse of
    its last.  A whole-loop is listed once, a half-loop (its own inverse)
    as it is, and a backtrack e, e^-1 is no cycle."""
    cycles = []

    def extend(start, v, visited, path):
        depth = len(path)
        for e in g.out[v]:
            w = g.head[e]
            if depth == length - 1:
                first = path[0] if path else e
                if w == start and (first < g.inv[e]
                                   or first == e == g.inv[e]):
                    cycles.append(tuple(path) + (e,))
            elif w > start and w not in visited:
                visited.add(w)
                path.append(e)
                extend(start, w, visited, path)
                path.pop()
                visited.remove(w)

    for s in range(g.vertex_count):
        extend(s, s, {s}, [])
    return cycles


def nb_cycle_profile(columns, edges, g_max: int):
    """The profiles (c_1, ..., c_gmax) of distinct edges, in list order,
    over B as the predecessor columns of cover_tree.nb_columns: c_l =
    (B^l)[e, e] counts the closed non-backtracking walks of length l that
    start with the directed edge e.  All edges walk at once, edges[k] in
    bit field k of one count per end edge.  A walk ending on e has
    deg(head e) - 1 continuations, each with e among its predecessors, so
    at most as many as there are columns; no count exceeds len(columns) ^
    g_max, and fields of its bit length never carry into each other."""
    width = (len(columns) ** g_max).bit_length()
    mask = (1 << width) - 1
    shifts = [k * width for k in range(len(edges))]
    counts = [0] * len(columns[0])
    for e, shift in zip(edges, shifts):
        counts[e] = 1 << shift
    steps = []
    for _ in range(g_max):
        counts = nb_step(columns, counts)
        steps.append(list(map(mask.__and__, map(
            rshift, map(counts.__getitem__, edges), shifts))))
    # one tuple per edge even when g_max = 0: its own id, then dropped
    return [p[1:] for p in zip(edges, *steps)]


# -- girth boosting by 2-lifts ---------------------------------------------

_DRAW_CHARS = b"1" * 128 + b"0" * 128     # byte -> "1" iff its top bit is 0


def _coin_string(rng, m: int) -> str:
    """The m draws "1" if rng.random() < 0.5 else "0", in one call that
    leaves rng in the same state.  random() takes two 32-bit words and is
    below 0.5 iff the first has bit 31 clear; getrandbits(64 m) takes the
    same 2m words, least significant first, so draw i is the top bit of
    byte 8i + 3 of its little-endian bytes."""
    raw = rng.getrandbits(64 * m).to_bytes(8 * m, "little")
    return raw[3::8].translate(_DRAW_CHARS).decode()


_BUDGET = 1000              # candidate 2-lifts per girth-boosting step


def high_girth_cover(h: MultiGraph, g: int, rng) -> LiftAssignment:
    """A lift of h with girth >= g by iterated random 2-lifts.

    At girth level gamma the shortest cycles are enumerated once; each
    candidate 2-lift is scored by the parity of its edge choices along
    those cycles (a cycle survives as two copies iff the product of its
    fiber swaps is the identity).  The best of _BUDGET candidates is
    accepted as long as it strictly reduces the census; a candidate with
    census zero raises the girth level.  A census left above zero is
    carried to the lift (_lift_census): a lift is built and measured only
    at a new girth level below g.

    Every accepted 2-lift of a connected graph is connected: it splits
    only when every cycle keeps even parity, which scores 2 phi, and a
    candidate is accepted only below phi.
    """
    if min(h.degrees()) < 2:
        raise GraphError("high_girth_cover needs minimal degree >= 2")
    a, G = LiftAssignment.identity(h, 1), h
    if (any(h.is_half_loop(e) for e in range(h.edge_count))
            and girth(h) < g):
        a = half_loop_elimination(h)
        G = build_lift(a)[0]

    while True:
        if G is not None:           # a new girth level: measure it
            gamma = girth(G)
            if gamma >= g:
                return a
            inv, cycles = G.inv, cycles_of_length(G, gamma)
        phi = len(cycles)
        und = [e for e, f in enumerate(inv) if e <= f]
        # draw i is character i of a candidate's string, so bit m - 1 - i
        # of its value word; a cycle keeps even parity iff word & (its
        # edge mask) has an even popcount
        m = len(und)
        bit = {e: m - 1 - i for i, e in enumerate(und)}
        masks = []
        for c in cycles:
            mask = 0
            for e in c:
                mask ^= 1 << bit[min(e, inv[e])]
            masks.append(mask)
        best_draws, best_phi = None, phi
        for _ in range(_BUDGET):
            draws = _coin_string(rng, m)
            word = int(draws, 2)
            odd = sum([(word & mask).bit_count() & 1 for mask in masks])
            phi2 = 2 * (phi - odd)
            if phi2 < best_phi:
                best_draws, best_phi = draws, phi2
                if phi2 == 0:
                    break
        if best_draws is None:
            raise TrialFailed(
                f"no 2-lift in budget {_BUDGET} reduced the census "
                f"(girth {gamma}, {phi} shortest cycles)")
        flips = [False] * len(inv)
        for i, e in enumerate(und):
            flips[e] = flips[inv[e]] = best_draws[i] == "1"
        a = a.double(flips)
        if best_phi:
            inv, cycles = _lift_census(inv, cycles, flips)
            G = None
        elif gamma + 1 >= g:
            return a                # no cycle of length gamma is left
        else:
            G = build_lift(a)[0]


def _lift_census(inv, cycles, flips):
    """The inverse map and shortest cycles of the 2-lift by flips of a
    graph with inverse map inv and shortest cycles `cycles`, some of even
    parity.  Copy s of edge f is edge s*|E| + f, and its inverse is copy
    s ^ flips[f] of inv[f] (LiftAssignment.double).  An even cycle lifts
    to two, one from each copy, changing sheet at each flipped edge.
    These are all the lift's cycles of that length: one projects to a
    closed non-backtracking walk as long, which at the girth is a cycle."""
    m = len(inv)
    cross = [m if f else 0 for f in flips]   # sheet offset s*m ^= cross[f]
    lifted_inv = ([x + c for x, c in zip(inv, cross)]
                  + [x + m - c for x, c in zip(inv, cross)])
    lifted = []
    for c in cycles:
        walk, s = [], 0
        for e in c:
            walk.append(s + e)
            s ^= cross[e]
        if not s:                   # even parity: closed on each sheet
            lifted.append(tuple(walk))
            lifted.append(tuple((x + m) % (2 * m) for x in walk))
    return lifted_inv, lifted


# -- Erdos-Sachs layer trimming --------------------------------------------

class TrimState(NamedTuple):
    """A connected cover in tree-normalized permutation form, as the
    neighbour lists of its lift, which es_trim_step edits in place.

    Layers are the connected components of the preimage of the spanning
    tree; with tree permutations normalized to the identity, the vertex
    (v, i) has id i*|V(H)| + v, its layer is an integer division, and
    adj[(v, i)][k] is the head of the copy of base edge out[v][k], as in
    build_lift.  graphs.farthest_pair reads only vertex_count and adj.
    """
    base: MultiGraph
    tree: SpanningTreeInfo
    adj: list

    @classmethod
    def of(cls, a: LiftAssignment, tree: SpanningTreeInfo) -> TrimState:
        h = a.base
        nv = h.vertex_count
        return cls(h, tree, [[a.perms[e][i] * nv + h.head[e]
                              for e in h.out[v]]
                             for i in range(a.height) for v in range(nv)])

    @property
    def vertex_count(self):
        return len(self.adj)

    def assignment(self) -> LiftAssignment:
        """The lift as a permutation assignment: edge e leaves layer i
        for the layer of the head in its slot at (tail e, i)."""
        h, adj = self.base, self.adj
        nv = h.vertex_count
        n = len(adj) // nv
        perms = []
        for e in range(h.edge_count):
            t = h.tail[e]
            k = h.out[t].index(e)
            perms.append([adj[i * nv + t][k] // nv for i in range(n)])
        return LiftAssignment(h, n, perms)


def es_trim_step(state: TrimState, g: int, far) -> None:
    """Remove the two layers holding the farthest vertex pair far = (v, u,
    dist) of state and reconnect the deficient vertices, in place; girth
    >= g and the cover property persist when the pair is farther apart
    than D0 = g + 2 diam(T).  The state is unchanged when the step is
    refused, and unusable after the short-cycle guard fails."""
    h, adj = state.base, state.adj
    nv = h.vertex_count
    d0 = state.tree.d0(g)
    vp, up, dist = far
    if dist <= d0:
        raise GraphError(f"diameter {dist} <= D0 {d0}: nothing to trim")
    i, j = vp // nv, up // nv
    if i == j:
        raise GraphError("farthest pair in one layer; tree normalization "
                         "or the distance precondition is broken")

    fused = []
    for e in h.undirected_edges():
        if e in state.tree.tree_edges:
            continue
        t, hd = h.tail[e], h.head[e]
        k, ki = h.out[t].index(e), h.out[hd].index(h.inv[e])
        # the layers e leaves i and j for, and those inv e leaves them for
        pi, pj = adj[i * nv + t][k] // nv, adj[j * nv + t][k] // nv
        qi, qj = adj[i * nv + hd][ki] // nv, adj[j * nv + hd][ki] // nv
        if {pi, pj, qi, qj} & {i, j}:
            raise GraphError(
                f"red-edge count above base edge {e} is not two; the "
                f"distance precondition did not actually hold")
        # the edges into j and out of i fuse, as do those into i and out of j
        fused += [(qj * nv + t, k, pi * nv + hd, ki),
                  (qi * nv + t, k, pj * nv + hd, ki)]
    for v, k, w, kw in fused:
        adj[v][k], adj[w][kw] = w, v

    # drop the two layers; the kept ones keep their order
    new = [x - (x > i) - (x > j) for x in range(len(adj) // nv)]
    ids = [new[x] * nv + v for x in range(len(new)) for v in range(nv)]
    for x in sorted((i, j), reverse=True):
        del adj[x * nv:(x + 1) * nv]
    adj[:] = [list(map(ids.__getitem__, row)) for row in adj]
    # the rest is an induced subgraph of a girth >= g graph, so a cycle
    # shorter than g would have to use a fused edge
    if any(_on_short_cycle(adj, ids[v], ids[w], g) for v, _, w, _ in fused):
        raise GraphError("trim produced a short cycle; internal invariant "
                         "violated")


@lru_cache(maxsize=1)
def es_tree(h: MultiGraph, g: int) -> SpanningTreeInfo:
    """The tree es_construct trims by, if g >= g0 = 2 diam(T) + 2; kept
    for the last (h, g) asked for, so the trials of a run build it once."""
    from .bounds import spanning_tree

    tree = spanning_tree(h)
    if g < tree.g0:
        raise GraphError(f"g={g} below g0={tree.g0}")
    return tree


def es_construct(h: MultiGraph, g: int, rng):
    """Girth >= g cover of h with diameter <= g + 2 diam(T): boost the
    girth by 2-lifts, then trim layers until the diameter bound holds.

    The 2-lifts keep the lift connected (see high_girth_cover), so the
    whole lift is trimmed; were it ever disconnected, farthest_pair would
    raise GraphError."""
    tree = es_tree(h, g)
    state = TrimState.of(normalize_tree_layers(high_girth_cover(h, g, rng),
                                               tree.tree_edges), tree)
    d0 = tree.d0(g)
    while True:
        far = farthest_pair(state)
        if far[2] <= d0:
            return build_lift(state.assignment())
        es_trim_step(state, g, far)


# -- greedy matching on a cycle (variants a/b/c) ---------------------------

def greedy_cycle(variant: str, n: int, g: int, rng):
    """Complete the cycle C_n to a cover of the half-loop base by matching
    its even (deficient) vertices, adding only edges whose endpoints are at
    distance >= g-1.  Variants differ in how the next edge is picked:
      a - uniform over all permissible pairs,
      b - uniform deficient vertex, then uniform permissible partner,
      c - deficient vertex of minimal permissible degree, then partner.
    A dead end raises TrialFailed, the expected failure of one trial.

    C_n is the lift of H23 whose sigma2 is one n/2-cycle (u-vertex x at 2x),
    so the search's pairing kernel gives x's partners: deficient & ~ball[x].
    Its start rows depend on (n, g) alone, so the trials of one run share
    one build (search.pairing_tables) and each copies them.
    """
    variant = variant.lower()
    if variant not in ("a", "b", "c"):
        raise GraphError(f"unknown greedy variant {variant!r}")
    if n <= 0 or n % 4:
        raise GraphError("n must be a positive multiple of 4")
    if g < 3:
        raise GraphError("g must be >= 3")
    from .search import members, pairing_kernel

    ball, join = pairing_kernel([n // 2], g - 2)
    matching = []
    deficient = (1 << n // 2) - 1

    while deficient:
        legal = {x: deficient & ~ball[x] for x in members(deficient)}
        if variant == "a":
            pairs = [(x, y) for x, ys in legal.items() for y in members(ys)
                     if x < y]
            if not pairs:
                raise TrialFailed("greedy matching reached a dead end")
            x, y = pairs[rng.randrange(len(pairs))]
        else:
            if variant == "b":
                pool = [x for x, ys in legal.items() if ys]
            else:
                # a vertex without partners (low = 0) is a dead end
                low = min(ys.bit_count() for ys in legal.values())
                pool = [x for x, ys in legal.items()
                        if ys and ys.bit_count() == low]
            if not pool:
                raise TrialFailed("greedy matching reached a dead end")
            x = pool[rng.randrange(len(pool))]
            ys = members(legal[x])
            y = ys[rng.randrange(len(ys))]
        matching.append((2 * x, 2 * y))
        deficient &= ~(1 << x | 1 << y)
        join(x, y, deficient)

    # each matching edge joined vertices at distance >= g - 1, so every
    # cycle through one has length >= g, and C_n is no shorter: its
    # vertices are at most n/2 apart, so n >= 2(g - 1) >= g
    pairs = [(i, (i + 1) % n) for i in range(n)] + matching
    return MultiGraph.from_pairs(n, pairs)


# -- covers of the half-loop base by structure -----------------------------

def _uv_edges(g: MultiGraph):
    degs = g.degrees()
    return [e for e in g.undirected_edges()
            if {degs[g.tail[e]], degs[g.head[e]]} == {2, 3}]


def h23_cover_map(g: MultiGraph) -> CoverMap:
    """Cover map onto the two-vertex half-loop base read off the degrees:
    degree-2 vertices form the fiber of v, degree-3 of u; u-u edges lift
    the half-loop and the u-v edges 2-color along their alternating
    cycles, each from its first edge with color 0."""
    base = h23()
    degs = g.degrees()
    if set(degs) != {2, 3}:
        raise GraphError("vertex degrees must be exactly {2, 3}")
    for e in g.undirected_edges():
        if degs[g.tail[e]] == degs[g.head[e]] == 2:
            raise GraphError(f"edge {e} joins two degree-2 vertices")
    vmap = tuple(1 if d == 3 else 0 for d in degs)
    emap = [4 if degs[g.tail[e]] == degs[g.head[e]] == 3 else None
            for e in range(g.edge_count)]
    for e in _uv_edges(g):
        color = 0
        while emap[e] is None:
            # base directed ids: pair A = (0: v->u, 1: u->v), pair B = (2, 3)
            down, up = (1, 0) if color == 0 else (3, 2)
            if degs[g.tail[e]] == 2:
                down, up = up, down
            emap[e], emap[g.inv[e]] = down, up
            # on to the uncolored u-v edge at the head, if any
            e = next((f for f in g.out[g.head[e]] if emap[f] is None), e)
            color = 1 - color
    m = CoverMap(vmap, tuple(emap))
    rep = verify_cover(g, base, m)
    if not rep.ok:
        raise GraphError(f"graph does not cover the base: {rep.violations[:3]}")
    return m


# -- surgery growth (variants gd/gf) ---------------------------------------

class GrowState:
    """A cover of the half-loop base under edge surgery, edited in place.

    Undirected edge k is the directed slots 2k and 2k + 1, so the inverse
    of slot s is s ^ 1; tail, head, out and adj read as in MultiGraph.
    `order` lists the even slot of every undirected edge in the order
    MultiGraph.from_pairs numbers them, `uv` those with ends of degrees 3
    and 2, in the same order, and out[v] lists its slots in id order.
    """

    def __init__(self, vertex_count, pairs):
        self.vertex_count = vertex_count
        self.tail, self.head, self.order = [], [], []
        self.out = [[] for _ in range(vertex_count)]
        self.adj = [[] for _ in range(vertex_count)]
        self._link(range(0, 2 * len(pairs), 2), pairs)
        self.uv = [s for s in self.order if {len(self.out[self.tail[s]]),
                                             len(self.out[self.head[s]])}
                   == {2, 3}]

    def _link(self, slots, pairs):
        """Put pair k at slots[k] and slots[k] + 1, last in `order` and in
        the out lists of its ends; slots past the end extend tail and head."""
        tail, head, out, adj = self.tail, self.head, self.out, self.adj
        more = max(slots, default=-2) + 2 - len(tail)
        tail += [0] * more
        head += [0] * more
        for s, (a, b) in zip(slots, pairs):
            tail[s], head[s], tail[s + 1], head[s + 1] = a, b, b, a
            out[a].append(s)
            adj[a].append(b)
            out[b].append(s + 1)
            adj[b].append(a)
        self.order += slots

    @property
    def edge_count(self):
        return len(self.tail)

    def graph(self) -> MultiGraph:
        tail, head = self.tail, self.head
        return MultiGraph.from_pairs(
            self.vertex_count, [(tail[s], head[s]) for s in self.order])

    def surgery(self, e: int, f: int):
        """Replace the u-v edges at even slots e and f by two three-edge
        paths through four new vertices, joined by one new edge between the
        two new degree-3 vertices; return the eight vertices whose edges
        changed.  e and f are unlinked, their slots hold the first edge of
        each path, and all seven new edges go to the end of `order`, as
        surgery_transform's from_pairs numbers them; a vertex's new edges
        have the largest ids, so appending keeps out[v] in id order."""
        tail, head, out, adj = self.tail, self.head, self.out, self.adj
        ends = [(tail[x], head[x]) if len(out[tail[x]]) == 3
                else (head[x], tail[x]) for x in (e, f)]
        for s in (e, e + 1, f, f + 1):
            k = out[tail[s]].index(s)
            del out[tail[s]][k], adj[tail[s]][k]
        for x in (e, f):
            self.order.remove(x)
            self.uv.remove(x)
        (u1, v1), (u2, v2) = ends
        nv, m = self.vertex_count, len(tail)
        v3, u3, v4, u4 = range(nv, nv + 4)
        self.vertex_count += 4
        out += [[] for _ in range(4)]
        adj += [[] for _ in range(4)]
        slots = [e, m, m + 2, f, m + 4, m + 6, m + 8]
        self._link(slots, [(u1, v3), (v3, u3), (u3, v1), (u2, v4), (v4, u4),
                           (u4, v2), (u3, u4)])
        self.uv += slots[:6]
        return u1, v1, u2, v2, v3, u3, v4, u4


def surgery_transform(g: MultiGraph, e: int, f: int) -> MultiGraph:
    """Replace edges e and f (each with a degree-3 and a degree-2 end) by
    two three-edge paths through four new vertices, joined by one new edge
    between the two new degree-3 vertices: one GrowState.surgery step.
    The kept edges keep their order and the seven new edges follow.  A
    half-loop has no pair of slots, so a graph with one is refused."""
    degs = g.degrees()
    e, f = min(e, g.inv[e]), min(f, g.inv[f])
    if e == f:
        raise GraphError("surgery needs two distinct edges")
    if any(map(g.is_half_loop, range(g.edge_count))):
        raise GraphError("surgery needs a graph without half-loops")
    for x in (e, f):
        if {degs[g.tail[x]], degs[g.head[x]]} != {2, 3}:
            raise GraphError(f"edge {x} endpoints must have degrees 3 and 2")
    und = g.undirected_edges()
    state = GrowState(g.vertex_count, [(g.tail[x], g.head[x]) for x in und])
    state.surgery(2 * und.index(e), 2 * und.index(f))
    return state.graph()


def _edit_columns(state: GrowState, columns, vertices) -> None:
    """Extend B's predecessor columns (the layout of nb_columns, as lists)
    to the slots of state, and re-derive the entries of the edges out of
    the given vertices; a surgery step changes no other entry.  The
    predecessors of f are the inverses of the other edges out of tail(f),
    and on a graph without loops their order in out[tail f] is id order."""
    out = state.out
    pad = [-1] * len(columns)
    more = state.edge_count + 1 - len(columns[0])
    for col in columns:
        col += [-1] * more
    for v in vertices:
        for f in out[v]:
            preds = [x ^ 1 for x in out[v] if x != f]
            for col, e in zip(columns, preds + pad):
                col[f] = e


def _short_cycle_vertices(adj, bound):
    """The degree-2 vertices of the graph with neighbour lists adj, each
    mapped to 1 if it lies on a cycle shorter than bound and to 0 if not;
    no degree-2 vertex may carry a loop (a GrowState is always simple).
    A cycle through such a v passes through both its neighbours a and b,
    so it is shorter than bound iff d(a, b) <= bound - 3 in the graph
    minus v: bit k of the k-th degree-2 vertex starts at a, spreads by
    graphs._spread, is cleared at v every round, and after bound - 3
    rounds is set at b iff v is on a short cycle."""
    deg2 = [v for v, nbrs in enumerate(adj) if len(nbrs) == 2]
    rows, keep = [0] * len(adj), [-1] * len(adj)
    for k, v in enumerate(deg2):
        rows[adj[v][0]] |= 1 << k
        keep[v] = ~(1 << k)
    for _ in range(bound - 3):
        rows = list(map(and_, _spread(adj, rows), keep))
    return {v: rows[adj[v][1]] >> k & 1 for k, v in enumerate(deg2)}


def _on_short_cycle(adj, v: int, w: int, bound: int) -> bool:
    """Whether an edge v-w of the graph with neighbour lists adj lies on
    a cycle shorter than bound: it is a loop, or a BFS of radius bound - 2
    from v in the graph minus that edge reaches w."""
    if v == w:
        return True
    adj = list(adj)
    for x, y in ((v, w), (w, v)):
        adj[x] = list(adj[x])
        adj[x].remove(y)
    return bfs(adj, v, bound - 1)[w] >= 0


_MAX_STEPS = 10000          # surgery steps before grow gives up


def _pick_max(items, key, rng):
    keys = list(map(key, items))
    best = max(keys)
    pool = [x for x, k in zip(items, keys) if k == best]
    return pool[rng.randrange(len(pool))]


def grow(variant: str, g: int, rng) -> MultiGraph:
    """Grow a cover of the half-loop base from K4 minus an edge by edge
    surgery until girth >= g.

    gd: surger a random edge on a short cycle against a most distant edge.
    gf: surger the edge on the most short cycles (lexicographic census)
        against a partner keeping new cycles long.

    The u-u edges of a cover form a matching, so every cycle has a u-v
    edge: the girth is >= g exactly when gd finds no u-v edge on a cycle
    shorter than g, or every profile of gf is zero, and growth stops there.
    A trial edits one GrowState in place and builds one MultiGraph, its
    output; gf keeps B's columns for the whole trial (_edit_columns).
    """
    variant = variant.lower()
    if variant not in ("gd", "gf"):
        raise GraphError(f"unknown growth variant {variant!r}")
    if g < 3:
        raise GraphError("g must be >= 3")
    state = GrowState(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    tail, head, out, adj, uv = (state.tail, state.head, state.out,
                                state.adj, state.uv)
    columns = [[], []]          # Delta - 1 = 2 columns, as in any H23 cover
    _edit_columns(state, columns, range(state.vertex_count))

    def v_end(x):
        return tail[x] if len(out[tail[x]]) == 2 else head[x]

    for _ in range(_MAX_STEPS):
        if variant == "gd":
            hit = _short_cycle_vertices(adj, g)
            on_short = [e for e in uv if hit[v_end(e)]]
            if not on_short:
                return state.graph()
            e = on_short[rng.randrange(len(on_short))]
            others = [f for f in uv if f != e]
            da = bfs(adj, tail[e])
            db = bfs(adj, head[e])
            f = _pick_max(others, lambda f: min(
                da[tail[f]], da[head[f]], db[tail[f]], db[head[f]]), rng)
            state.surgery(e, f)
        else:
            profiles = dict(zip(uv, nb_cycle_profile(columns, uv, g - 1)))
            if not any(map(any, profiles.values())):
                return state.graph()
            e = _pick_max(uv, profiles.__getitem__, rng)
            others = [f for f in uv if f != e]
            dist = bfs(adj, v_end(e))
            dmap = {f: dist[v_end(f)] + 3 for f in others}
            if max(dmap.values()) < g:
                f = _pick_max(others, dmap.__getitem__, rng)
            else:
                far = [f for f in others if dmap[f] >= g]
                f = _pick_max(far, profiles.__getitem__, rng)
            _edit_columns(state, columns, state.surgery(e, f))
    raise TrialFailed(
        f"max_steps={_MAX_STEPS} exceeded at girth {girth(state.graph())}")


__all__ = [
    "cycles_of_length", "nb_cycle_profile",
    "high_girth_cover", "TrimState", "es_trim_step",
    "es_tree", "es_construct", "greedy_cycle", "h23_cover_map",
    "GrowState", "surgery_transform", "grow",
]
