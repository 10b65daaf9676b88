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

from typing import NamedTuple

from .bounds import SpanningTreeInfo, spanning_tree
from .cover_tree import nb_step
from .graphs import (GraphError, MultiGraph, TrialFailed, bfs, farthest_pair,
                     girth, h23, k4_minus_edge)
from .lifts import (CoverMap, LiftAssignment, build_lift,
                    half_loop_elimination, normalize_tree_layers, verify_cover)
from .search import members, pairing_kernel


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


def nb_cycle_profile(g: MultiGraph, edges, g_max: int):
    """The profiles (c_1, ..., c_gmax) of distinct edges, in list order:
    c_l = (B^l)[e, e], B the non-backtracking matrix, counts the closed
    non-backtracking walks of length l that start with the directed edge
    e.  All edges walk at once, edges[k] in bit field k of one count per
    end edge.  A walk has at most Delta - 1 continuations, Delta the
    largest out-degree, so no count exceeds (Delta - 1)^g_max and fields
    of its bit length never carry into each other."""
    width = ((max(map(len, g.out)) - 1) ** g_max).bit_length()
    mask = (1 << width) - 1
    counts = {e: 1 << k * width for k, e in enumerate(edges)}
    profiles = [[] for _ in edges]
    for _ in range(g_max):
        counts = nb_step(g, counts)
        for k, e in enumerate(edges):
            profiles[k].append(counts.get(e, 0) >> k * width & mask)
    return [tuple(p) for p in profiles]


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
    census zero raises the girth level.

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
        gamma = girth(G)
        if gamma >= g:
            return a
        cycles = cycles_of_length(G, gamma)
        phi = len(cycles)
        und = G.undirected_edges()
        # draw i is character i of a candidate's string, so bit m - 1 - i
        # of its value word; a cycle keeps even parity iff word & (its
        # edge mask) has an even popcount
        m = len(und)
        bit = {e: m - 1 - i for i, e in enumerate(und)}
        masks = []
        for c in cycles:
            mask = 0
            for e in c:
                mask ^= 1 << bit[min(e, G.inv[e])]
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
        flips = [False] * G.edge_count
        for i, e in enumerate(und):
            flips[e] = flips[G.inv[e]] = best_draws[i] == "1"
        a = a.double(flips)
        G = build_lift(a)[0]


# -- Erdos-Sachs layer trimming --------------------------------------------

class TrimState(NamedTuple):
    """A connected cover in tree-normalized permutation form.

    Layers are the connected components of the preimage of the spanning
    tree; with tree permutations normalized to the identity, the vertex
    (v, i) has id i*|V(H)| + v and its layer is an integer division.
    """
    assignment: LiftAssignment
    tree: SpanningTreeInfo
    graph: MultiGraph
    cover: CoverMap


def es_trim_step(state: TrimState, g: int, far) -> TrimState:
    """Remove the two layers holding the farthest vertex pair far = (v, u,
    dist) of state.graph and reconnect the deficient vertices; girth >= g
    and the cover property persist when the pair is farther apart than
    D0 = g + 2 diam(T)."""
    a = state.assignment
    h, n = a.base, a.height
    nv = h.vertex_count
    d0 = state.tree.d0(g)
    vp, up, dist = far
    if dist <= d0:
        raise GraphError(f"diameter {dist} <= D0 {d0}: nothing to trim")
    i, j = vp // nv, up // nv
    if i == j:
        raise GraphError("farthest pair in one layer; tree normalization "
                         "or the distance precondition is broken")

    # old layer -> new layer for the kept layers, which keep their order
    new = [x - (x > i) - (x > j) for x in range(n)]

    tree_set = set(state.tree.tree_edges) | {h.inv[e]
                                             for e in state.tree.tree_edges}
    perms = []
    rewired = []      # lifted ids of the new edges, one direction each
    for e in range(h.edge_count):
        if e in tree_set:
            perms.append(tuple(range(n - 2)))
            continue
        p, p_inv = a.perms[e], a.perms[h.inv[e]]
        if {p[i], p[j], p_inv[i], p_inv[j]} & {i, j}:
            raise GraphError(
                f"red-edge count above base edge {e} is not two; the "
                f"distance precondition did not actually hold")
        q = [new[p[x]] for x in range(n) if x != i and x != j]
        # the edges into j and out of i fuse, as do those into i and out of j
        q[new[p_inv[j]]] = new[p[i]]
        q[new[p_inv[i]]] = new[p[j]]
        perms.append(tuple(q))
        if e <= h.inv[e]:
            rewired += [new[p_inv[j]] * h.edge_count + e,
                        new[p_inv[i]] * h.edge_count + e]
    new_a = LiftAssignment(h, n - 2, perms)
    graph, cover = build_lift(new_a)
    # the rest of graph is an induced subgraph of state.graph, so a cycle
    # shorter than g would have to use a new edge
    if any(_on_short_cycle(graph, e, g) for e in rewired):
        raise GraphError("trim produced a short cycle; internal invariant "
                         "violated")
    return TrimState(new_a, state.tree, graph, cover)


def es_construct(h: MultiGraph, g: int, rng):
    """Girth >= g cover of h with diameter <= g + 2 diam(T): boost the
    girth by 2-lifts, then trim layers until the diameter bound holds.

    The 2-lifts keep the lift connected (see high_girth_cover), so the
    whole lift is trimmed; were it ever disconnected, farthest_pair would
    raise GraphError."""
    tree = spanning_tree(h)
    if g < tree.g0:
        raise GraphError(f"g={g} below g0={tree.g0}")
    a = normalize_tree_layers(high_girth_cover(h, g, rng),
                              tree.tree_edges)
    state = TrimState(a, tree, *build_lift(a))
    d0 = tree.d0(g)
    while True:
        far = farthest_pair(state.graph)
        if far[2] <= d0:
            return state.graph, state.cover
        state = es_trim_step(state, g, far)


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
    """
    variant = variant.lower()
    if variant not in ("a", "b", "c"):
        raise GraphError(f"unknown greedy variant {variant!r}")
    if n <= 0 or n % 4:
        raise GraphError("n must be a positive multiple of 4")
    if g < 3:
        raise GraphError("g must be >= 3")
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

def h23_cover_map(g: MultiGraph) -> CoverMap:
    """Cover map onto the two-vertex half-loop base read off the degrees:
    degree-2 vertices form the fiber of v, degree-3 of u; u-u edges lift
    the half-loop and the u-v edges 2-color along their alternating
    cycles."""
    base = h23()
    degs = g.degrees()
    if set(degs) != {2, 3}:
        raise GraphError("vertex degrees must be exactly {2, 3}")
    vmap = tuple(1 if d == 3 else 0 for d in degs)
    emap = [None] * g.edge_count
    uv = []
    for e in range(g.edge_count):
        a, b = degs[g.tail[e]], degs[g.head[e]]
        if a == 2 and b == 2:
            raise GraphError(f"edge {e} joins two degree-2 vertices")
        if a == 3 and b == 3:
            emap[e] = 4
        elif e <= g.inv[e]:
            uv.append(e)
    # alternate colors along the uv cycles; color 0 -> first parallel pair
    incident = {}
    for e in uv:
        incident.setdefault(g.tail[e], []).append(e)
        incident.setdefault(g.head[e], []).append(g.inv[e])
    colored = {}
    for e0 in uv:
        if e0 in colored or g.inv[e0] in colored:
            continue
        e, color = e0, 0
        while True:
            colored[min(e, g.inv[e])] = color
            nxt = [f for f in incident[g.head[e]]
                   if min(f, g.inv[f]) not in colored]
            if not nxt:
                break
            e, color = nxt[0], 1 - color
    for e in uv:
        color = colored[min(e, g.inv[e])]
        # base directed ids: pair A = (0: v->u, 1: u->v), pair B = (2, 3)
        down = 1 if color == 0 else 3     # u -> v
        up = 0 if color == 0 else 2       # v -> u
        if degs[g.tail[e]] == 3:
            emap[e], emap[g.inv[e]] = down, up
        else:
            emap[e], emap[g.inv[e]] = up, down
    m = CoverMap(vmap, tuple(emap))
    rep = verify_cover(g, base, m)
    if not rep.ok:
        raise GraphError(f"graph does not cover the base: {rep.violations[:3]}")
    return m


# -- surgery growth (variants gd/gf) ---------------------------------------

def _uv_edges(g: MultiGraph):
    degs = g.degrees()
    return [e for e in g.undirected_edges()
            if {degs[g.tail[e]], degs[g.head[e]]} == {2, 3}]


def surgery_transform(g: MultiGraph, e: int, f: int) -> MultiGraph:
    """Replace edges e and f (each with a degree-3 and a degree-2 end) by
    two three-edge paths through four new vertices, joined by one new edge
    between the two new degree-3 vertices."""
    degs = g.degrees()
    e, f = min(e, g.inv[e]), min(f, g.inv[f])
    if e == f:
        raise GraphError("surgery needs two distinct edges")
    ends = []
    for x in (e, f):
        a, b = g.tail[x], g.head[x]
        if {degs[a], degs[b]} != {2, 3}:
            raise GraphError(f"edge {x} endpoints must have degrees 3 and 2")
        ends.append((a, b) if degs[a] == 3 else (b, a))
    (u1, v1), (u2, v2) = ends
    nv = g.vertex_count
    v3, u3, v4, u4 = nv, nv + 1, nv + 2, nv + 3
    pairs = [(g.tail[x], g.head[x]) for x in g.undirected_edges()
             if x not in (e, f)]
    pairs += [(u1, v3), (v3, u3), (u3, v1),
              (u2, v4), (v4, u4), (u4, v2), (u3, u4)]
    return MultiGraph.from_pairs(nv + 4, pairs)


def _short_cycle_edges(g: MultiGraph, edges, bound):
    """The edges of the list that lie on a cycle shorter than bound, in
    list order.  One all-edges BFS in the style of graphs._spread: bit k
    starts at the tail of edges[k] and crosses every directed edge but
    edges[k]; after bound - 2 rounds it has reached the head iff edges[k]
    closes a cycle of length at most bound - 1.  The inverse of edges[k]
    needs no ban: it leaves the head, so no walk uses it before the head."""
    ban = [0] * g.edge_count
    rows = [0] * g.vertex_count
    for k, e in enumerate(edges):
        ban[e] |= 1 << k
        rows[g.tail[e]] |= 1 << k
    into = [[] for _ in rows]
    for x in range(g.edge_count):
        into[g.head[x]].append((g.tail[x], ~ban[x]))
    for _ in range(bound - 2):
        nxt = []
        for v, pairs in enumerate(into):
            r = rows[v]
            for t, keep in pairs:
                r |= rows[t] & keep
            nxt.append(r)
        rows = nxt
    return [e for k, e in enumerate(edges) if rows[g.head[e]] >> k & 1]


def _on_short_cycle(g: MultiGraph, e: int, bound: int) -> bool:
    """Whether edge e lies on a cycle shorter than bound: e is a loop, or
    a BFS of radius bound - 2 from its tail in g minus e reaches its head."""
    tail, head = g.tail[e], g.head[e]
    if tail == head:
        return True
    adj = list(g.adj)
    for v, w in ((tail, head), (head, tail)):
        adj[v] = list(adj[v])
        adj[v].remove(w)
    return bfs(adj, tail, bound - 1)[head] >= 0


_MAX_STEPS = 10000          # surgery steps before grow gives up


def _pick_max(items, key, rng):
    best = max(key(x) for x in items)
    pool = [x for x in items if key(x) == best]
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
    """
    variant = variant.lower()
    if variant not in ("gd", "gf"):
        raise GraphError(f"unknown growth variant {variant!r}")
    if g < 3:
        raise GraphError("g must be >= 3")
    graph = k4_minus_edge()
    for _ in range(_MAX_STEPS):
        uv = _uv_edges(graph)
        if variant == "gd":
            on_short = _short_cycle_edges(graph, uv, g)
            if not on_short:
                return graph
            e = on_short[rng.randrange(len(on_short))]
            others = [f for f in uv if f != e]
            da = bfs(graph.adj, graph.tail[e])
            db = bfs(graph.adj, graph.head[e])
            f = _pick_max(others, lambda f: min(
                da[graph.tail[f]], da[graph.head[f]],
                db[graph.tail[f]], db[graph.head[f]]), rng)
        else:
            profiles = dict(zip(uv, nb_cycle_profile(graph, uv, g - 1)))
            if not any(map(any, profiles.values())):
                return graph
            e = _pick_max(uv, lambda x: profiles[x], rng)
            degs = graph.degrees()

            def v_end(x):
                return graph.tail[x] if degs[graph.tail[x]] == 2 \
                    else graph.head[x]

            others = [f for f in uv if f != e]
            dist = bfs(graph.adj, v_end(e))
            dmap = {f: dist[v_end(f)] + 3 for f in others}
            if max(dmap.values()) < g:
                f = _pick_max(others, lambda f: dmap[f], rng)
            else:
                far = [f for f in others if dmap[f] >= g]
                f = _pick_max(far, lambda f: profiles[f], rng)
        graph = surgery_transform(graph, e, f)
    raise TrialFailed(
        f"max_steps={_MAX_STEPS} exceeded at girth {girth(graph)}")


__all__ = [
    "cycles_of_length", "nb_cycle_profile",
    "high_girth_cover", "TrimState", "es_trim_step",
    "es_construct", "greedy_cycle", "h23_cover_map", "surgery_transform",
    "grow",
]
