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

from functools import reduce
from operator import and_, or_, rshift
from typing import TYPE_CHECKING

from .graphs import (GraphError, MultiGraph, TrialFailed, _spread, bfs,
                     far_sources, girth)

# bounds (es), lifts (es, 2lift), search (greedy) and cover_tree (gf) are
# imported where they run: an invocation compiles what it imports without
# cached bytecode, so a construct run compiles only what its algorithm uses.
if TYPE_CHECKING:
    from .bounds import SpanningTreeInfo
    from .lifts import LiftAssignment


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
    from .cover_tree import nb_step

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


def check_min_degree(h: MultiGraph) -> None:
    """high_girth_cover's precondition: every vertex of h has degree >= 2."""
    if min(h.degrees()) < 2:
        raise GraphError("high_girth_cover needs minimal degree >= 2")


def high_girth_cover(h: MultiGraph, g: int, rng) -> LiftAssignment:
    """A lift of h with girth >= g by iterated random 2-lifts.

    The outer loop runs once per girth level gamma: it measures the lift
    and enumerates its shortest cycles.  The inner loop accepts one 2-lift
    a round, the best of _BUDGET candidates scored by the parity of their
    edge choices along those cycles (a cycle survives as two copies iff
    the product of its fiber swaps is the identity), if it strictly
    reduces the census, and carries the census to the lift (_lift_census)
    until no cycle is left.  So a lift is built and measured only at a
    new girth level below g.

    Candidates are scored in batches of 16, 64, 256, ... bit-sliced, one
    bit per candidate; a batch is one _coin_string call, the same words
    as one call per candidate.  The first candidate with the most odd
    cycles wins, and rng is rewound to just after a candidate that
    clears every cycle, so the choices and the generator state are those
    of scoring one candidate at a time.

    Every accepted 2-lift of a connected graph is connected: it splits
    only when every cycle keeps even parity, which scores 2 phi, and a
    candidate is accepted only below phi.
    """
    from .lifts import LiftAssignment, build_lift, half_loop_elimination
    check_min_degree(h)
    a, G = LiftAssignment.identity(h, 1), h
    # a half-loop is a 1-cycle, so it must go unless g <= 1
    if g > 1 and any(map(h.is_half_loop, range(h.edge_count))):
        a = half_loop_elimination(h)
        G = build_lift(a)[0]

    while (gamma := girth(G)) < g:
        inv, cycles = G.inv, cycles_of_length(G, gamma)
        while True:
            phi = len(cycles)
            und = [e for e, f in enumerate(inv) if e <= f]
            m = len(und)
            pos = {e: i for i, e in enumerate(und)}
            # each cycle as the draws of its edges; it keeps even parity
            # iff an even number of them are "1"
            cycle_draws = [[pos[min(e, inv[e])] for e in c] for c in cycles]
            best_draws, best_phi = None, phi
            done, b = 0, 16
            while done < _BUDGET:
                b = min(b, _BUDGET - done)
                state = rng.getstate()
                draws = _coin_string(rng, m * b)   # b candidates in a row
                # column i holds draw i of candidate k in bit b - 1 - k, a
                # cycle's row its odd parities, and planes[t] bit t of the
                # count of odd cycles per candidate
                cols = [int(draws[i::m], 2) for i in range(m)]
                planes = []
                for c in cycle_draws:
                    row = 0
                    for i in c:
                        row ^= cols[i]
                    for t, plane in enumerate(planes):
                        planes[t], row = plane ^ row, plane & row
                        if not row:
                            break
                    if row:
                        planes.append(row)
                # narrow to the candidates with the most odd cycles
                top, odd = (1 << b) - 1, 0
                for t in reversed(range(len(planes))):
                    if top & planes[t]:
                        top &= planes[t]
                        odd += 1 << t
                if 2 * (phi - odd) < best_phi:
                    k = b - top.bit_length()        # the first of them
                    best_draws = draws[k * m:(k + 1) * m]
                    best_phi = 2 * (phi - odd)
                    if not best_phi:
                        # leave rng after candidate k, as if drawn alone
                        rng.setstate(state)
                        rng.getrandbits(64 * m * (k + 1))
                        break
                done += b
                b *= 4
            if best_draws is None:
                raise TrialFailed(
                    f"no 2-lift in budget {_BUDGET} reduced the census "
                    f"(girth {gamma}, {phi} shortest cycles)")
            flips = [False] * len(inv)
            # read off the string: word >> bit[e] & 1 measured no faster
            for i, e in enumerate(und):
                flips[e] = flips[inv[e]] = best_draws[i] == "1"
            a = a.double(flips)
            if not best_phi:
                break                   # no cycle of length gamma is left
            inv, cycles = _lift_census(inv, cycles, flips)
        if gamma + 1 >= g:
            return a
        G = build_lift(a)[0]
    return a


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

def _lift_adj(h: MultiGraph, perms):
    """The neighbour lists of the lift of h by perms, numbered as
    build_lift numbers it: (v, i) is i*|V(H)| + v, and its k-th neighbour
    is the head of the copy of base edge out[v][k]."""
    nv = h.vertex_count
    return [[perms[e][i] * nv + h.head[e] for e in h.out[v]]
            for i in range(len(perms[0])) for v in range(nv)]


def es_trim_step(h: MultiGraph, tree: SpanningTreeInfo, perms, g: int, far):
    """Remove the two layers holding the vertex pair far = (v, u, dist),
    dist a lower bound on their distance, of the lift of h by perms, one
    mutable list per directed edge and the identity on tree edges, and
    reconnect the deficient vertices, in place; girth >= g and the cover
    property persist when the pair is farther apart than D0 = g + 2
    diam(T).  Returns the trimmed lift's neighbour lists (_lift_adj).
    perms are unchanged when the step is refused, and unusable after the
    short-cycle guard fails.

    Layers are the connected components of the preimage of the tree, so
    vertex (v, i) lies in layer i.  Each cotree edge makes four writes to
    p = perm(e) and q = perm(e^-1); then one renumbering per permutation
    drops layers i and j."""
    nv = h.vertex_count
    d0 = tree.d0(g)
    vp, up, dist = far
    if dist <= d0:
        raise GraphError(f"diameter {dist} <= D0 {d0}: nothing to trim")
    i, j = vp // nv, up // nv
    if i == j:
        raise GraphError("farthest pair in one layer; tree normalization "
                         "or the distance precondition is broken")

    fused = []
    for e in h.undirected_edges():
        if e in tree.tree_edges:
            continue
        p, q = perms[e], perms[h.inv[e]]
        pi, pj, qi, qj = p[i], p[j], q[i], q[j]
        if {pi, pj, qi, qj} & {i, j}:
            raise GraphError(
                f"red-edge count above base edge {e} is not two; the "
                f"distance precondition did not actually hold")
        fused.append((e, pi, pj, qi, qj))
    # the edges into j and out of i fuse, as do those into i and out of j
    for e, pi, pj, qi, qj in fused:
        p, q = perms[e], perms[h.inv[e]]
        p[qj], p[qi], q[pi], q[pj] = pi, pj, qj, qi

    # drop the two layers; the kept ones keep their order
    new = [x - (x > i) - (x > j) for x in range(len(perms[0]))]
    kept = [x for x in range(len(new)) if x != i and x != j]
    for p in perms:
        p[:] = [new[p[x]] for x in kept]
    adj = _lift_adj(h, perms)
    # the rest is an induced subgraph of a girth >= g graph, so a cycle
    # shorter than g would have to use a fused edge
    t, hd = h.tail, h.head
    if any(_on_short_cycle(adj, new[x] * nv + t[e], new[y] * nv + hd[e], g)
           for e, pi, pj, qi, qj in fused
           for x, y in ((qj, pi), (qi, pj))):
        raise GraphError("trim produced a short cycle; internal invariant "
                         "violated")
    return adj


def es_tree(h: MultiGraph, g: int) -> SpanningTreeInfo:
    """The tree es_construct trims by, if g >= g0 = 2 diam(T) + 2."""
    from .bounds import spanning_tree

    tree = spanning_tree(h)
    if g < tree.g0:
        raise GraphError(f"g={g} below g0={tree.g0}")
    return tree


def es_construct(h: MultiGraph, g: int, rng):
    """Girth >= g cover of h with diameter <= D0 = g + 2 diam(T): boost
    the girth by 2-lifts, normalize the tree edges' permutations to the
    identity, then trim layers (es_trim_step) until the diameter bound
    holds.

    The trims come in passes.  A pass lists the sources more than D0
    from some vertex (far_sources); none left is the stop test.  It
    walks them in order, skips one whose layer is gone, and trims the
    next against the first vertex its BFS leaves unreached past D0, until
    a source reaches every vertex within D0.  Layer i of the pass is
    layer[i] of the trimmed lift, or -1 once dropped.

    The 2-lifts keep the lift connected (see high_girth_cover), so the
    whole lift is trimmed; were it ever disconnected, a trim or a pass
    would raise GraphError."""
    from .lifts import LiftAssignment, build_lift, normalize_tree_layers
    tree = es_tree(h, g)
    a = normalize_tree_layers(high_girth_cover(h, g, rng), tree.tree_edges)
    perms = [list(p) for p in a.perms]
    nv, d0 = h.vertex_count, tree.d0(g)
    adj = _lift_adj(h, perms)
    while far := far_sources(adj, d0):
        layer = list(range(len(perms[0])))
        for s in far:
            i = layer[s // nv]
            if i < 0:
                continue
            s = i * nv + s % nv
            dist = bfs(adj, s, d0 + 1)
            if -1 not in dist:
                break
            u = dist.index(-1)
            j = u // nv
            adj = es_trim_step(h, tree, perms, g, (s, u, d0 + 1))
            layer = [x - (x > i) - (x > j) if x not in (i, j) else -1
                     for x in layer]
    return build_lift(LiftAssignment(h, len(perms[0]), perms))


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
    one build (search.pairing_tables) and each joins into its own copy.
    """
    if variant not in ("a", "b", "c"):
        raise GraphError(f"unknown greedy variant {variant!r}")
    if n <= 0 or n % 4:
        raise GraphError("n must be a positive multiple of 4")
    if g < 3:
        raise GraphError("g must be >= 3")
    from .search import members, pairing_join, pairing_tables

    tables = pairing_tables((n // 2,), g - 2)
    ball = list(tables[0])
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
        pairing_join(tables, ball, x, y, deficient)

    # each matching edge joined vertices at distance >= g - 1, so every
    # cycle through one has length >= g, and C_n is no shorter: its
    # vertices are at most n/2 apart, so n >= 2(g - 1) >= g
    pairs = [(i, (i + 1) % n) for i in range(n)] + matching
    return MultiGraph.from_pairs(n, pairs)


# -- surgery growth (variants gd/gf) ---------------------------------------

class GrowState:
    """A cover of the half-loop base under edge surgery, edited in place.

    Undirected edge k is the directed slots 2k and 2k + 1, so the inverse
    of slot s is s ^ 1; tail, head, out and adj read as in MultiGraph.
    `order` lists the even slot of every undirected edge in the order
    MultiGraph.from_pairs numbers them, `uv` those with ends of degrees 3
    and 2, in the same order, each as its slot from the degree-3 end (so
    head[s] is the degree-2 end), and out[v] lists its slots in id order.
    """

    def __init__(self, vertex_count, pairs):
        self.vertex_count = vertex_count
        self.tail, self.head, self.order = [], [], []
        self.out = [[] for _ in range(vertex_count)]
        self.adj = [[] for _ in range(vertex_count)]
        self._link(range(0, 2 * len(pairs), 2), pairs)
        deg = list(map(len, self.out))
        self.uv = [s if deg[self.tail[s]] == 3 else s + 1
                   for s in self.order
                   if {deg[self.tail[s]], deg[self.head[s]]} == {2, 3}]

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
        """Replace the u-v edges u1 -> v1 and u2 -> v2 at slots e and f of
        `uv` by two three-edge paths through four new vertices, joined by
        one new edge between the two new degree-3 vertices; return the
        eight vertices whose edges changed.  The paths' first edges take
        the even slots of e and f, and all seven new edges go to the end of
        `order`, as surgery_transform's from_pairs numbers them; new edges
        have the largest ids, so appending keeps out[v] in id order."""
        tail, head, out, adj = self.tail, self.head, self.out, self.adj
        u1, v1, u2, v2 = tail[e], head[e], tail[f], head[f]
        for x in (e, f):
            self.uv.remove(x)
            self.order.remove(x & ~1)
        e, f = e & ~1, f & ~1
        for s in (e, e + 1, f, f + 1):
            k = out[tail[s]].index(s)
            del out[tail[s]][k], adj[tail[s]][k]
        nv, m = self.vertex_count, len(tail)
        v3, u3, v4, u4 = range(nv, nv + 4)
        self.vertex_count += 4
        out += [[] for _ in range(4)]
        adj += [[] for _ in range(4)]
        self._link([e, m, m + 2, f, m + 4, m + 6, m + 8],
                   [(u1, v3), (v3, u3), (u3, v1), (u2, v4), (v4, u4),
                    (u4, v2), (u3, u4)])
        self.uv += [e, m + 1, m + 2, f, m + 5, m + 6]
        return u1, v1, u2, v2, v3, u3, v4, u4


def surgery_transform(g: MultiGraph, e: int, f: int) -> MultiGraph:
    """Replace edges e and f (each with a degree-3 and a degree-2 end) by
    two three-edge paths through four new vertices, joined by one new edge
    between the two new degree-3 vertices: one GrowState.surgery step.
    The kept edges keep their order and the seven new edges follow.  A
    half-loop has no pair of slots, so a graph with one is refused."""
    e, f = min(e, g.inv[e]), min(f, g.inv[f])
    if e == f:
        raise GraphError("surgery needs two distinct edges")
    if any(map(g.is_half_loop, range(g.edge_count))):
        raise GraphError("surgery needs a graph without half-loops")
    und = g.undirected_edges()
    state = GrowState(g.vertex_count, [(g.tail[x], g.head[x]) for x in und])
    slot = {und[s >> 1]: s for s in state.uv}
    for x in (e, f):
        if x not in slot:
            raise GraphError(f"edge {x} endpoints must have degrees 3 and 2")
    state.surgery(slot[e], slot[f])
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
    Such a cycle through v passes both its neighbours a and b, so v is on
    one iff d(a, b) <= r = bound - 3 in G - v, iff some x is within
    ceil(r/2) of a and r // 2 of b.  The k-th of K such v starts bit k at a
    and K + k at b, cleared at v each round of graphs._spread; rows after
    r // 2 rounds and up after ceil(r/2) meet in up[x] & rows[x] >> K."""
    deg2 = [v for v, nbrs in enumerate(adj) if len(nbrs) == 2]
    K, r = len(deg2), bound - 3
    rows, keep = [0] * len(adj), [-1] * len(adj)
    for k, v in enumerate(deg2):
        rows[adj[v][0]] |= 1 << k
        rows[adj[v][1]] |= 1 << K + k
        keep[v] = ~(1 << k | 1 << K + k)
    for _ in range(r // 2):
        rows = list(map(and_, _spread(adj, rows), keep))
    up = list(map(and_, _spread(adj, rows), keep)) if r % 2 else rows
    met = reduce(or_, [x & y >> K for x, y in zip(up, rows)], 0)
    return {v: met >> k & 1 for k, v in enumerate(deg2)}


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
    The four darts at a degree-2 vertex v share one profile, so gf walks
    one per v: a closed walk through a -> v goes on to b, and its reversal
    passes b -> v at the same places.  A trial edits one GrowState in place
    and builds one MultiGraph; gf keeps B's columns (_edit_columns).
    """
    if variant not in ("gd", "gf"):
        raise GraphError(f"unknown growth variant {variant!r}")
    if g < 3:
        raise GraphError("g must be >= 3")
    state = GrowState(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    tail, head, adj, uv = state.tail, state.head, state.adj, state.uv
    columns = [[], []]          # Delta - 1 = 2 columns, as in any H23 cover
    _edit_columns(state, columns, range(state.vertex_count))

    for _ in range(_MAX_STEPS):
        if variant == "gd":
            hit = _short_cycle_vertices(adj, g)
            on_short = [e for e in uv if hit[head[e]]]
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
            darts = {head[e]: e for e in uv}    # one dart per v
            prof = nb_cycle_profile(columns, darts.values(), g - 1)
            if not any(map(any, prof)):
                return state.graph()
            by_end = dict(zip(darts, prof))
            profiles = {e: by_end[head[e]] for e in uv}
            e = _pick_max(uv, profiles.__getitem__, rng)
            others = [f for f in uv if f != e]
            dist = bfs(adj, head[e])
            dmap = {f: dist[head[f]] + 3 for f in others}
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
    "check_min_degree", "high_girth_cover", "es_trim_step",
    "es_tree", "es_construct", "greedy_cycle",
    "GrowState", "surgery_transform", "grow",
]
