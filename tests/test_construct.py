import hashlib
import math
import random
from collections import deque

import networkx as nx
import pytest

from liftgirth import construct, graphs
from liftgirth.bounds import es_upper_bound, spanning_tree
from liftgirth.cover_tree import nb_columns, nb_step
from liftgirth.construct import (GrowState, TrimState, _coin_string,
                                 _on_short_cycle, _pick_max,
                                 _short_cycle_vertices, _uv_edges,
                                 cycles_of_length,
                                 es_construct, es_trim_step, greedy_cycle,
                                 grow, h23_cover_map, high_girth_cover,
                                 nb_cycle_profile, surgery_transform)
from liftgirth.graphs import (GraphError, MultiGraph, TrialFailed, diameter,
                              farthest_pair, girth)
from liftgirth.lifts import (LiftAssignment, _perm_inverse, build_lift,
                             normalize_tree_layers, serialize_cover_map,
                             verify_cover)
from liftgirth.search import pairing_kernel, pairing_tables
from test_graphs import (random_assignment, random_involution, random_lift,
                         random_loopy_lift)


@pytest.fixture(autouse=True)
def step_cap(monkeypatch):
    """A growth whose steps go wrong fails within 200 surgery steps, not
    10000: the longest growth these tests run, gd at g = 15, takes 63."""
    monkeypatch.setattr(construct, "_MAX_STEPS", 200)


def to_nx(g):
    gx = nx.MultiGraph()
    gx.add_nodes_from(range(g.vertex_count))
    gx.add_edges_from((g.tail[e], g.head[e]) for e in g.undirected_edges())
    return gx


def reference_nb_cycle_profile(g, e, g_max):
    """nb_cycle_profile by a recursive walk along every non-backtracking
    walk of at most g_max steps from e: exponential in g_max."""
    counts = [0] * (g_max + 1)
    start = g.tail[e]
    first_inv = g.inv[e]

    def walk(last, v, depth):
        if depth > g_max:
            return
        if v == start and last != first_inv:
            counts[depth] += 1
        if depth == g_max:
            return
        forbidden = g.inv[last]
        for f in g.out[v]:
            if f != forbidden:
                walk(f, g.head[f], depth + 1)

    walk(e, g.head[e], 1)
    return tuple(counts[1:])


def reference_short_cycle_through(g, e, bound):
    """Length of the shortest cycle through undirected edge e when it is
    shorter than bound, else math.inf: one BFS in g minus e between its
    endpoints that expands no vertex at depth bound - 2 or more."""
    a, b = g.tail[e], g.head[e]
    banned = {e, g.inv[e]}
    dist = {a: 0}
    q = deque([a])
    while q:
        v = q.popleft()
        if v == b:
            return dist[b] + 1
        if dist[v] >= bound - 2:
            continue            # b may still be queued at this depth
        for x in g.out[v]:
            if x in banned:
                continue
            w = g.head[x]
            if w not in dist:
                dist[w] = dist[v] + 1
                q.append(w)
    return math.inf


def reference_short_cycle_edges(g, edges, bound):
    """The edges of the list that lie on a cycle shorter than bound, in
    list order, in a MultiGraph.  One all-edges BFS in the
    style of graphs._spread: bit k starts at the tail of edges[k] and
    crosses every directed edge but edges[k]; after bound - 2 rounds it
    has reached the head iff edges[k] closes a cycle of length at most
    bound - 1.  The inverse of edges[k]
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


def v_end(g, e):
    """The degree-2 end of a u-v edge e of g."""
    return g.tail[e] if len(g.out[g.tail[e]]) == 2 else g.head[e]


def short_uv_edges(g, bound):
    """The u-v edges of g that grow's gd test finds on a cycle shorter
    than bound, in _uv_edges order."""
    hit = _short_cycle_vertices(g.adj, bound)
    return [e for e in _uv_edges(g) if hit[v_end(g, e)]]


def reference_cycles(g, length):
    """Every vertex-simple cycle of the given length, as its set of
    undirected edge ids: the closed walks from every vertex, in both
    directions, that repeat no vertex and no undirected edge."""
    found = set()

    def walk(start, v, path, visited):
        if len(path) == length:
            edges = frozenset(min(e, g.inv[e]) for e in path)
            if v == start and len(edges) == length:
                found.add(edges)
            return
        for e in g.out[v]:
            w = g.head[e]
            if w not in visited or w == start and len(path) == length - 1:
                walk(start, w, path + [e], visited | {w})

    for s in range(g.vertex_count):
        walk(s, s, [], {s})
    return found


def greedy_outcome(variant, n, g, rng):
    """greedy_cycle as (True, graph) on success and (False, None) on a
    dead end, the form of reference_greedy_cycle."""
    try:
        return True, greedy_cycle(variant, n, g, rng)
    except TrialFailed:
        return False, None


def reference_greedy_cycle(variant, n, g, rng):
    """greedy_cycle with one bounded BFS per deficient vertex at every
    matching step, over the adjacency lists of the growing graph."""
    if n < g:
        return False, None
    adj = [[(i - 1) % n, (i + 1) % n] for i in range(n)]
    matching = []
    deficient = set(range(0, n, 2))
    while deficient:
        partners = {}
        for u in sorted(deficient):
            dist = graphs.bfs(adj, u, g - 1)
            partners[u] = sorted(v for v in deficient if dist[v] < 0)
        if variant == "a":
            pairs = [(u, v) for u, vs in partners.items() for v in vs if u < v]
            if not pairs:
                return False, None
            u, v = pairs[rng.randrange(len(pairs))]
        else:
            if variant == "b":
                pool = [u for u in sorted(deficient) if partners[u]]
                if not pool:
                    return False, None
            else:
                low = min(len(vs) for vs in partners.values())
                if low == 0:
                    return False, None
                pool = [u for u in sorted(deficient)
                        if len(partners[u]) == low]
            u = pool[rng.randrange(len(pool))]
            v = partners[u][rng.randrange(len(partners[u]))]
        matching.append((u, v))
        adj[u].append(v)
        adj[v].append(u)
        deficient -= {u, v}
    pairs = [(i, (i + 1) % n) for i in range(n)] + matching
    return True, MultiGraph.from_pairs(n, pairs)


@pytest.fixture(scope="module")
def loopy_lifts():
    """Random lifts with half-loops, whole-loops and parallel edges."""
    rng = random.Random(2024)
    return [random_loopy_lift(rng) for _ in range(60)]


def reference_surgery_transform(g, e, f):
    """surgery_transform as a whole-graph rebuild: the kept edges in id
    order, then the seven new ones, through from_pairs."""
    degs = g.degrees()
    e, f = min(e, g.inv[e]), min(f, g.inv[f])
    ends = []
    for x in (e, f):
        a, b = g.tail[x], g.head[x]
        assert {degs[a], degs[b]} == {2, 3}
        ends.append((a, b) if degs[a] == 3 else (b, a))
    (u1, v1), (u2, v2) = ends
    nv = g.vertex_count
    v3, u3, v4, u4 = nv, nv + 1, nv + 2, nv + 3
    pairs = [(g.tail[x], g.head[x]) for x in g.undirected_edges()
             if x not in (e, f)]
    pairs += [(u1, v3), (v3, u3), (u3, v1),
              (u2, v4), (v4, u4), (u4, v2), (u3, u4)]
    return MultiGraph.from_pairs(nv + 4, pairs)


def reference_grow(variant, g, rng):
    """grow with a fresh MultiGraph per step: its u-v edges, profiles,
    predecessor columns and distances all recomputed from the graph.
    Returns every graph it steps through (the last one the output) and
    the (e, f) edge ids each step surgers; RNG draws as in grow."""
    graph = graphs.k4_minus_edge()
    run, choices = [graph], []
    while True:
        uv = _uv_edges(graph)
        if variant == "gd":
            on_short = reference_short_cycle_edges(graph, uv, g)
            if not on_short:
                return run, choices
            e = on_short[rng.randrange(len(on_short))]
            others = [f for f in uv if f != e]
            da = graphs.bfs(graph.adj, graph.tail[e])
            db = graphs.bfs(graph.adj, graph.head[e])
            f = _pick_max(others, lambda f: min(
                da[graph.tail[f]], da[graph.head[f]],
                db[graph.tail[f]], db[graph.head[f]]), rng)
        else:
            profiles = dict(zip(uv, nb_cycle_profile(nb_columns(graph), uv,
                                                     g - 1)))
            if not any(map(any, profiles.values())):
                return run, choices
            e = _pick_max(uv, profiles.__getitem__, rng)
            others = [f for f in uv if f != e]
            dist = graphs.bfs(graph.adj, v_end(graph, e))
            dmap = {f: dist[v_end(graph, f)] + 3 for f in others}
            if max(dmap.values()) < g:
                f = _pick_max(others, dmap.__getitem__, rng)
            else:
                far = [f for f in others if dmap[f] >= g]
                f = _pick_max(far, profiles.__getitem__, rng)
        choices.append((e, f))
        graph = reference_surgery_transform(graph, e, f)
        run.append(graph)


def slot_ids(state):
    """The edge id of every slot of a GrowState, as from_pairs of its
    `order` numbers them."""
    ids = [None] * state.edge_count
    for k, s in enumerate(state.order):
        ids[s], ids[s + 1] = 2 * k, 2 * k + 1
    return ids


def mapped_columns(state, columns):
    """A GrowState's predecessor columns as edge ids (slot_ids), the
    padding -1 and the zero slot at the end as they are."""
    ids = slot_ids(state) + [-1]
    mapped = [[None] * len(col) for col in columns]
    for new, col in zip(mapped, columns):
        for s, x in enumerate(col):
            new[ids[s]] = ids[x]
    return list(map(tuple, mapped))


def assert_grows_as_reference(variant, g, seed, reference=None):
    """grow, checked against reference_grow as it runs: before every step
    its state is the reference's graph and it surgers the same (e, f) as
    edge ids, and every gf profile call gets nb_columns of that graph
    under the slot -> id map.  The output is the reference's."""
    run, choices = reference or reference_grow(variant, g,
                                               random.Random(seed))
    states, steps, profiles = [], [], []

    class Spy(GrowState):
        def __init__(self, *args):
            super().__init__(*args)
            states.append(self)

        def surgery(self, e, f):
            ids, k = slot_ids(self), len(steps)
            assert self.graph() == run[k]
            assert (ids[e], ids[f]) == choices[k]
            steps.append(k)
            return super().surgery(e, f)

    def profile(columns, edges, g_max):
        assert mapped_columns(states[-1], columns) \
            == nb_columns(run[len(profiles)])
        profiles.append(edges)
        return nb_cycle_profile(columns, edges, g_max)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "GrowState", Spy)
        mp.setattr(construct, "nb_cycle_profile", profile)
        out = grow(variant, g, random.Random(seed))
    assert len(steps) == len(choices)
    assert len(profiles) == (len(run) if variant == "gf" else 0)
    assert out == run[-1]


GROWTH_GIRTHS = {"gf": 12, "gd": 13}


@pytest.fixture(scope="module")
def reference_growth():
    """reference_grow("gf", 12) and ("gd", 13) by (variant, seed) for
    seeds 0, 1, 2."""
    return {(variant, seed): reference_grow(variant, g, random.Random(seed))
            for variant, g in GROWTH_GIRTHS.items() for seed in (0, 1, 2)}


@pytest.fixture(scope="module")
def growth_runs(reference_growth):
    """Every graph that gf at g=12 and gd at g=13 step through, by
    (variant, seed) for seeds 0, 1, 2; the last one is the output."""
    return {key: run for key, (run, _) in reference_growth.items()}


class TestCycleCounting:
    def test_simple_counts(self, k4, petersen):
        assert len(cycles_of_length(graphs.cycle_graph(5), 5)) == 1
        assert len(cycles_of_length(k4, 3)) == 4
        assert len(cycles_of_length(petersen, 5)) == 12

    def test_short_lengths(self, h23):
        parallel = MultiGraph.build(2, [("edge", 0, 1), ("edge", 0, 1)])
        assert len(cycles_of_length(parallel, 2)) == 1
        assert len(cycles_of_length(h23, 1)) == 1   # the half-loop
        assert len(cycles_of_length(h23, 2)) == 1   # the parallel pair

    def test_matches_reference(self, loopy_lifts):
        """Lifts with half-loops, whole-loops and parallel edges: each
        cycle listed once, as a closed walk, at lengths 1..6."""
        for g in loopy_lifts:
            for length in range(1, 7):
                cycles = cycles_of_length(g, length)
                for c in cycles:
                    assert len(c) == length
                    assert all(g.head[a] == g.tail[b]
                               for a, b in zip(c, c[1:] + c[:1]))
                sets = {frozenset(min(e, g.inv[e]) for e in c)
                        for c in cycles}
                assert len(sets) == len(cycles)
                assert sets == reference_cycles(g, length)

    def test_two_loops_are_no_2_cycle(self):
        for second in ("wholeloop", "halfloop"):
            g = MultiGraph.build(1, [("wholeloop", 0), (second, 0)])
            assert len(cycles_of_length(g, 1)) == 2
            assert cycles_of_length(g, 2) == []

    def test_cycles_are_closed_walks(self, petersen):
        for c in cycles_of_length(petersen, 5):
            assert len(c) == 5
            for a, b in zip(c, c[1:]):
                assert petersen.head[a] == petersen.tail[b]
            assert petersen.head[c[-1]] == petersen.tail[c[0]]


class TestNBProfile:
    def test_c5_edge(self):
        c5 = graphs.cycle_graph(5)
        [profile] = nb_cycle_profile(nb_columns(c5), [0], 6)
        assert profile[4] == 1                      # one 5-cycle
        assert all(x == 0 for i, x in enumerate(profile) if i != 4)

    def test_k4_edge(self, k4):
        [profile] = nb_cycle_profile(nb_columns(k4), [0], 3)
        assert profile[2] == 2                      # two triangles per edge

    def test_petersen_edge(self, petersen):
        [profile] = nb_cycle_profile(nb_columns(petersen), [0], 5)
        assert profile[4] == 4

    def test_matches_reference_on_growth(self, growth_runs):
        """All u-v edges of every graph that gf and gd step through, at
        every g_max up to 12."""
        for run in growth_runs.values():
            for g in run:
                uv = _uv_edges(g)
                full = [reference_nb_cycle_profile(g, e, 12) for e in uv]
                for g_max in range(1, 13):
                    assert nb_cycle_profile(nb_columns(g), uv, g_max) \
                        == [p[:g_max] for p in full]

    def test_matches_reference_on_loopy_lifts(self, loopy_lifts):
        """Every directed edge, loops of both kinds included; the reference
        walk is exponential in the degree, which loops drive up to 14 here,
        so g_max stays small."""
        for g in loopy_lifts:
            edges = range(g.edge_count)
            full = [reference_nb_cycle_profile(g, e, 5) for e in edges]
            for g_max in range(1, 6):
                assert nb_cycle_profile(nb_columns(g), edges, g_max) \
                    == [p[:g_max] for p in full]

    def test_packed_fields(self, monkeypatch):
        """A one-vertex bouquet of whole loops and a half-loop, where the
        walks of one start edge number (Delta - 1)^l after l steps, its
        directed edges listed in shuffled order: edges[k] starts in bit
        field k of width bit_length((Delta - 1)^g_max), and the profiles
        come back in list order."""
        bouquet = MultiGraph.build(
            1, [("wholeloop", 0), ("wholeloop", 0), ("halfloop", 0)])
        delta = 5
        edges = list(range(bouquet.edge_count))
        random.Random(7).shuffle(edges)
        full = [reference_nb_cycle_profile(bouquet, e, 8) for e in edges]
        for g_max in range(1, 9):
            steps = []
            monkeypatch.setattr(construct, "nb_step", lambda columns, counts:
                                steps.append(counts)
                                or nb_step(columns, counts))
            assert nb_cycle_profile(nb_columns(bouquet), edges, g_max) \
                == [p[:g_max] for p in full]
            width = ((delta - 1) ** g_max).bit_length()
            start = [0] * (bouquet.edge_count + 1)
            for k, e in enumerate(edges):
                start[e] = 1 << k * width
            assert steps[0] == start
            # every walk continues on delta - 1 edges
            assert sum(steps[-1]) == sum(
                (delta - 1) ** (g_max - 1) << k * width
                for k in range(len(edges)))

    def test_no_steps_or_no_edges(self, h23, k4):
        """g_max = 0 gives one empty profile per edge, an empty edge list
        no profiles, on a graph with edges or none."""
        edgeless = MultiGraph(1, (), (), ())
        assert nb_cycle_profile(nb_columns(k4), [3, 0, 5], 0) \
            == [(), (), ()]
        assert nb_cycle_profile(nb_columns(h23), range(5), 0) == [()] * 5
        for g in (edgeless, h23, k4):
            for g_max in range(4):
                assert nb_cycle_profile(nb_columns(g), [], g_max) == []


class TestHighGirthCover:
    def test_already_good_enough(self, petersen, rng):
        a = high_girth_cover(petersen, 5, rng)
        assert a.height == 1
        assert build_lift(a)[0] == petersen

    def test_h23_g6(self, h23):
        rng = random.Random(5)
        g, m = build_lift(high_girth_cover(h23, 6, rng))
        assert girth(g) >= 6
        assert verify_cover(g, h23, m)
        n = g.vertex_count // 2
        assert n % 2 == 0 and n & (n - 1) == 0  # height a power of 2

    def test_determinism(self, h23):
        a = high_girth_cover(h23, 7, random.Random(42))
        b = high_girth_cover(h23, 7, random.Random(42))
        assert a.perms == b.perms

    def test_g9_budget_200_success_rate(self, h23, monkeypatch):
        monkeypatch.setattr(construct, "_BUDGET", 200)
        wins = 0
        for seed in range(10):
            try:
                g, m = build_lift(high_girth_cover(h23, 9, random.Random(seed)))
            except TrialFailed:
                continue
            assert girth(g) >= 9 and verify_cover(g, h23, m)
            wins += 1
        assert wins >= 9

    def test_carried_census_matches_fresh(self, loopy_lifts, monkeypatch):
        """At every 2-lift that leaves shortest cycles, the census carried
        to the lift is the one measured on it: the girth is unchanged, the
        cycles are closed walks of the lift, and their edge sets (so the
        masks, as a multiset, and phi) are those of cycles_of_length.
        Each step is checked as it is carried, so a wrong census stops
        the run at once."""
        lifts = []
        double = LiftAssignment.double
        monkeypatch.setattr(LiftAssignment, "double", lambda a, flips:
                            lifts.append(double(a, flips)) or lifts[-1])
        levels = []
        lift_census = construct._lift_census

        def checked(*args):
            inv, cycles = lift_census(*args)
            graph = build_lift(lifts[-1])[0]
            gamma = len(cycles[0])
            assert girth(graph) == gamma
            assert inv == list(graph.inv)
            for c in cycles:
                assert len(c) == gamma
                assert all(graph.head[e] == graph.tail[f]
                           for e, f in zip(c, c[1:] + c[:1]))

            def edge_sets(cs):
                return sorted(sorted({min(e, inv[e]) for e in c})
                              for c in cs)
            assert edge_sets(cycles) \
                == edge_sets(cycles_of_length(graph, gamma))
            levels.append(gamma)
            return inv, cycles

        monkeypatch.setattr(construct, "_lift_census", checked)
        cases = [(graphs.h23(), g, seed) for g in range(7, 14)
                 for seed in (0, 1, 2)]
        cases += [(graphs.k32(), 10, 1), (graphs.complete_graph(4), 7, 2),
                  (graphs.petersen(), 8, 0)]
        # cycle-rich loopy bases carry short cycles: twelve whole-loops
        # are seldom all flipped, and of three parallel edges two always
        # keep even parity
        cases += [(g, 6, 0) for g in loopy_lifts
                  if min(g.degrees()) >= 2 and max(g.degrees()) <= 4]
        cases += [(MultiGraph.build(1, [("wholeloop", 0)] * 12), 2, 0),
                  (MultiGraph.build(2, [("edge", 0, 1)] * 3), 5, 0)]
        for h, g, seed in cases:
            try:
                high_girth_cover(h, g, random.Random(seed))
            except TrialFailed:
                pass
        assert {1, 2, 4, 6, 10, 12} <= set(levels)

    def test_min_degree_rejected(self):
        path = MultiGraph.from_pairs(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError):
            high_girth_cover(path, 3, random.Random(0))

    def test_coin_string_matches_random(self):
        """The one-call draws equal the per-draw loop and leave the
        generator in the same state: seeds 0..49, each length 1..700 once,
        drawn one after another from one generator per side."""
        for seed in range(50):
            mine, ref = random.Random(seed), random.Random(seed)
            for m in range(seed + 1, 701, 50):
                assert _coin_string(mine, m) == "".join(
                    "1" if ref.random() < 0.5 else "0" for _ in range(m))
                assert mine.getstate() == ref.getstate()


TRIM_G = 11     # H23 lifts need trimming here; at g <= 10 they rarely do

# the bases and girths whose trims the tests follow step by step
TRIM_CASES = ([(graphs.h23(), g) for g in range(7, 12)]
              + [(graphs.k32(), 13), (graphs.petersen(), 10)])


def trim_start(h, g, seed):
    """The tree of h and the tree-normalized lift that es_construct
    starts trimming at g with seed."""
    tree = spanning_tree(h)
    a = high_girth_cover(h, g, random.Random(seed))
    return tree, normalize_tree_layers(a, tree.tree_edges)


@pytest.fixture(scope="module")
def trim_run():
    """The tree of H23, the assignment of one of its lifts at g = TRIM_G
    after each step of the in-place trim loop, and the farthest pair of
    the last one."""
    tree, a = trim_start(graphs.h23(), TRIM_G, 0)
    state = TrimState.of(a, tree)
    steps = [a]
    while True:
        far = farthest_pair(state)
        if far[2] <= tree.d0(TRIM_G):
            return tree, steps, far
        es_trim_step(state, TRIM_G, far)
        steps.append(state.assignment())


@pytest.fixture(scope="module")
def es11():
    """es_construct(H23, 11) for seeds 0, 1, 2."""
    return {s: es_construct(graphs.h23(), 11, random.Random(s))
            for s in (0, 1, 2)}


def adjacency_graph(h, adj):
    """The lift of h whose neighbour lists are adj, as build_lift builds
    it."""
    return build_lift(TrimState(h, None, adj).assignment())[0]


@pytest.fixture(scope="module")
def trim_checks():
    """Every (graph, edge, g) whose short cycles es_trim_step tests: in the
    trim steps of es_construct on TRIM_CASES, seeds 0, 1, 2, and in the
    steps from each first trim state with vertex 0 paired with the next
    16 vertices outside its layer and passed off as farther apart than
    D0; many of these rewire an edge onto a short cycle."""
    checks = []
    with pytest.MonkeyPatch.context() as mp:
        for h, g in TRIM_CASES:
            def spy(adj, v, w, bound, h=h):
                graph = adjacency_graph(h, adj)
                e = next(e for e in graph.out[v] if graph.head[e] == w)
                checks.append((graph, e, bound))
                return _on_short_cycle(adj, v, w, bound)

            mp.setattr(construct, "_on_short_cycle", spy)
            for seed in (0, 1, 2):
                es_construct(h, g, random.Random(seed))
                tree, a = trim_start(h, g, seed)
                nv = h.vertex_count
                fake = tree.d0(g) + 1
                for u in range(nv, min(nv + 16, a.height * nv)):
                    trim_outcome(in_place_trim, a, tree, g, (0, u, fake))
    return checks


def relabel_layers(a, lam):
    """Apply one layer permutation at every vertex: perm'(e) = lam o perm(e)
    o lam^-1.  Tree-identity permutations stay identity."""
    lam = tuple(lam)
    lam_inv = _perm_inverse(lam)
    perms = [tuple(lam[p[lam_inv[i]]] for i in range(a.height))
             for p in a.perms]
    return LiftAssignment(a.base, a.height, perms)


def reference_es_trim_step(a, tree, g, far):
    """Reference for construct.es_trim_step: the same step on whole
    graphs, a new assignment of the trimmed lift, guarded by the girth of
    the whole trimmed graph instead of the cycles through the rewired
    edges."""
    h = a.base
    n = a.height
    nv = h.vertex_count
    d0 = tree.d0(g)
    vp, up, dist = far
    if dist <= d0:
        raise GraphError(f"diameter {dist} <= D0 {d0}: nothing to trim")
    i, j = vp // nv, up // nv
    if i == j:
        raise GraphError("farthest pair in one layer; tree normalization "
                         "or the distance precondition is broken")
    kept = [x for x in range(n) if x != i and x != j]
    a = relabel_layers(a, _perm_inverse(kept + [j, i]))
    tree_set = set(tree.tree_edges) | {h.inv[e] for e in tree.tree_edges}
    perms = []
    for e in range(h.edge_count):
        if e in tree_set:
            perms.append(tuple(range(n - 2)))
            continue
        p, p_inv = a.perms[e], a.perms[h.inv[e]]
        touching = (p[n - 1], p[n - 2], p_inv[n - 1], p_inv[n - 2])
        if any(x >= n - 2 for x in touching):
            raise GraphError(
                f"red-edge count above base edge {e} is not two; the "
                f"distance precondition did not actually hold")
        q = list(p[:n - 2])
        q[p_inv[n - 2]] = p[n - 1]
        q[p_inv[n - 1]] = p[n - 2]
        perms.append(tuple(q))
    new_a = LiftAssignment(h, n - 2, perms)
    if girth(build_lift(new_a)[0]) < g:
        raise GraphError("trim produced a short cycle; internal invariant "
                         "violated")
    return new_a


def reference_es_construct(h, g, seed):
    """es_construct with the whole-graph loop: every step builds the lift
    of its assignment, finds its farthest pair and takes the reference
    step.  The farthest pair of each step, and the final (graph, cover)."""
    tree, a = trim_start(h, g, seed)
    pairs = []
    while True:
        graph, cover = build_lift(a)
        pairs.append(farthest_pair(graph))
        if pairs[-1][2] <= tree.d0(g):
            return pairs, (graph, cover)
        a = reference_es_trim_step(a, tree, g, pairs[-1])


def in_place_trim(a, tree, g, far):
    """es_trim_step on a fresh state of a: the trimmed assignment."""
    state = TrimState.of(a, tree)
    es_trim_step(state, g, far)
    return state.assignment()


def trim_outcome(step, a, tree, g, far):
    """The trimmed perms of one step, or its error text."""
    try:
        return step(a, tree, g, far).perms
    except GraphError as exc:
        return str(exc)


def output_digest(g, m, h):
    text = graphs.serialize_graph(g) + serialize_cover_map(m, g, h)
    return hashlib.sha256(text.encode()).hexdigest()


class TestTrim:
    def test_step_removes_two_layers(self, h23, trim_run):
        _, steps, _ = trim_run
        assert len(steps) >= 2          # at least one step ran
        for before, after in zip(steps, steps[1:]):
            assert after.height == before.height - 2
            graph, cover = build_lift(after)
            assert girth(graph) >= TRIM_G
            assert verify_cover(graph, h23, cover)

    def test_small_diameter_rejected(self, trim_run):
        tree, steps, far = trim_run
        with pytest.raises(GraphError, match="nothing to trim"):
            es_trim_step(TrimState.of(steps[-1], tree), TRIM_G, far)

    def test_pair_in_one_layer_rejected(self, trim_run):
        tree, steps, _ = trim_run
        with pytest.raises(GraphError, match="one layer"):
            es_trim_step(TrimState.of(steps[0], tree), TRIM_G,
                         (0, 1, tree.d0(TRIM_G) + 1))

    def test_step_matches_reference(self, trim_run):
        tree, steps, _ = trim_run
        for a in steps[:-1]:
            far = farthest_pair(build_lift(a)[0])
            assert trim_outcome(in_place_trim, a, tree, TRIM_G, far) \
                == trim_outcome(reference_es_trim_step, a, tree, TRIM_G, far)

    def test_guard_matches_reference(self, trim_run):
        # vertex 0 paired with every vertex of another layer and passed
        # off as farther apart than D0: most of these close a short cycle
        # through a rewired edge, a few break the red-edge count, and the
        # rest trim cleanly; a refused step leaves the state as it was
        tree, steps, _ = trim_run
        a = steps[0]
        nv = a.base.vertex_count
        fake = tree.d0(TRIM_G) + 1
        outcomes = set()
        for u in range(nv, a.height * nv):
            mine = trim_outcome(in_place_trim, a, tree, TRIM_G, (0, u, fake))
            assert mine == trim_outcome(reference_es_trim_step, a, tree,
                                        TRIM_G, (0, u, fake)), u
            kind = (mine.split(";")[0] if isinstance(mine, str)
                    else "trimmed")
            outcomes.add(kind)
            if kind.startswith("red-edge"):
                state = TrimState.of(a, tree)
                with pytest.raises(GraphError):
                    es_trim_step(state, TRIM_G, (0, u, fake))
                assert state.assignment().perms == a.perms
        assert {"trimmed", "trim produced a short cycle"} <= outcomes

    def test_local_check_matches_all_edge_pass(self, trim_checks):
        """The search around a rewired edge agrees with the all-edges
        pass at the step's g and at the bounds below and above it."""
        by_graph = {}
        for graph, e, g in trim_checks:
            by_graph.setdefault((graph, g), []).append(e)
        found = set()
        for (graph, g), edges in by_graph.items():
            for bound in range(3, g + 3):
                mine = [e for e in edges if _on_short_cycle(
                    graph.adj, graph.tail[e], graph.head[e], bound)]
                assert mine == reference_short_cycle_edges(graph, edges, bound)
                found |= {(bound == g, e in mine) for e in edges}
        assert found == {(True, True), (True, False), (False, True),
                         (False, False)}

    def test_local_check_loopy_lifts(self, loopy_lifts):
        """Every directed edge of lifts with loops, half-loops and
        parallel edges, at bounds 3..8."""
        for g in loopy_lifts:
            edges = range(g.edge_count)
            for bound in range(3, 9):
                assert [e for e in edges if _on_short_cycle(
                    g.adj, g.tail[e], g.head[e], bound)] \
                    == reference_short_cycle_edges(g, edges, bound)

    def test_es_construct_matches_reference(self, monkeypatch):
        """The in-place loop picks the farthest pair of every step as the
        whole-graph loop does and ends with the same (graph, cover), on
        TRIM_CASES with seeds 0, 1, 2."""
        pairs = []
        monkeypatch.setattr(construct, "farthest_pair", lambda state:
                            pairs.append(farthest_pair(state)) or pairs[-1])
        steps = 0
        for h, g in TRIM_CASES:
            for seed in (0, 1, 2):
                pairs.clear()
                out = es_construct(h, g, random.Random(seed))
                want_pairs, want = reference_es_construct(h, g, seed)
                assert (pairs, out) == (want_pairs, want), (h, g, seed)
                steps += len(pairs) - 1
        assert steps == 30

    def test_es_construct_postconditions(self, h23):
        for g in (4, 5, 6):
            out, m = es_construct(h23, g, random.Random(1))
            assert girth(out) >= g
            assert diameter(out) <= g + 2
            assert verify_cover(out, h23, m)
            assert out.vertex_count <= es_upper_bound(h23, g)

    def test_es_construct_trims_at_g11(self, h23, es11):
        for out, m in es11.values():
            assert girth(out) >= 11
            assert diameter(out) <= 13
            assert verify_cover(out, h23, m)
            assert out.vertex_count <= es_upper_bound(h23, 11)

    def test_es_construct_determinism(self, h23):
        a, _ = es_construct(h23, 6, random.Random(9))
        b, _ = es_construct(h23, 6, random.Random(9))
        assert a == b

    def test_regular_base(self, k4):
        out, m = es_construct(k4, 6, random.Random(3))
        assert girth(out) >= 6
        assert verify_cover(out, k4, m)
        # classical ES ball bound for a 3-regular base with diam(T) = 2
        assert out.vertex_count <= 1 + 3 * (2 ** 10 - 1)


class TestPinnedOutputs:
    """SHA-256 of serialize_graph + serialize_cover_map, recorded before
    the 2-lifts were composed as lift assignments; any relabelling of
    vertices or edges changes them."""

    ES11 = {
        0: "0c8bb0a613c39e43929c477ed8434ec12340caabd14553927883baff730af376",
        1: "748e9afacd9229724dcde55863aa11219d41a8e5f5cec7a3aa68a4ea34cb1055",
        2: "d5bfd9983e380d1ce6e4b7dc229bd4f68e77cf3908f37eb7d22b0cbbd4e6afec",
    }

    def test_es_construct_h23_g11(self, h23, es11):
        for seed, (out, m) in es11.items():
            assert output_digest(out, m, h23) == self.ES11[seed]

    @pytest.mark.parametrize("name, g, seed, height, digest", [
        ("k32", 10, 1, 8,
         "3a5bdfc9ef903d48ec419b766dda120dc5512cc31fd93505c29df24ce7ae3c67"),
        ("k4", 7, 2, 32,
         "99bcbb975aafce02eee28570cf5c57e679b0a23dafcb109bc4e60aaed46ca47b"),
    ], ids=["k32", "k4"])
    def test_high_girth_cover(self, name, g, seed, height, digest):
        h = graphs.k32() if name == "k32" else graphs.complete_graph(4)
        a = high_girth_cover(h, g, random.Random(seed))
        assert a.height == height        # three and five 2-lift rounds
        out, m = build_lift(a)
        assert output_digest(out, m, h) == digest


def graph_digest(g):
    return hashlib.sha256(graphs.serialize_graph(g).encode()).hexdigest()


class TestPinnedGrowth:
    """SHA-256 of serialize_graph for outputs that girth steers, recorded
    before girth became an all-sources BFS; the growth pins at other
    girths were recorded before the cycle profiles met in the middle and
    the short-cycle test became one all-edges pass."""

    GF12 = {
        0: "8df342922a325332b4a877da9dffec2293c8cdebaa37b909e5461b7acbb901b9",
        1: "476bb424f34a2a2d06232bf6dd4090ee46a0364329f2bca96b03acfb4d049410",
        2: "f758b9d90a2e7c39a75637bae15f2421073d81d71d93a6e2341f7a6cfd5d9638",
    }
    GD13 = {
        0: "028e9d6628dd288061d3eb530b3e513348426b8187b091cebb04f7062ad19c6d",
        1: "0dac30a99e94aae263e1943b0eaa8b14225b691659512cced0b553f3bb997987",
        2: "df35db2e06d09a9a421dae46717c6b7b6cc2a7338a4caf5e9b8f827520edc963",
    }
    C24_G8 = {
        0: "9b04bdfab360103ba091d40e2c86b791ad187598737ff8f58ece7a344d9fc417",
        1: None,
        2: None,
        3: "694d7193d2eae36a073e2f586e51561fb968f98a2e15bfbaa41a8eac302ee8be",
        4: "faada7290babbbb14bae9a2ad845688d5dd39ae89fc315ff7aa73243d051c6d9",
    }

    def test_gf_g12(self, growth_runs):
        for seed, digest in self.GF12.items():
            assert graph_digest(growth_runs["gf", seed][-1]) == digest

    def test_gd_g13(self, growth_runs):
        for seed, digest in self.GD13.items():
            assert graph_digest(growth_runs["gd", seed][-1]) == digest

    @pytest.mark.parametrize("variant, g, digest", [
        ("gf", 9,
         "9c64c6aed4390270be8f9563ddaf8916fb674e7d45cb5c8a7dde909f1327c015"),
        ("gf", 14,
         "4658dc2f26378a67cd2904cb8c0a1f118686928fcbd778b88b1f7cef6b0cbe86"),
        ("gd", 8,
         "f79443378c9e42363345a598d99c6950a06894fcc2a63080d40b46ae3065c6be"),
        ("gd", 15,
         "3c75c565c1be9ba6857468a98a9ff7852e7e08fa85cd5d3d32afb5dacd45fa32"),
    ], ids=["gf9", "gf14", "gd8", "gd15"])
    def test_other_girths(self, variant, g, digest):
        assert graph_digest(grow(variant, g, random.Random(0))) == digest

    def test_greedy_c_n24_g8(self):
        for seed, digest in self.C24_G8.items():
            ok, g = greedy_outcome("c", 24, 8, random.Random(seed))
            assert ok == (digest is not None)
            assert not ok or graph_digest(g) == digest

    def test_short_cycle_bound(self, growth_runs):
        """gd's degree-2-vertex pass picks, at every bound, the u-v edges
        that the all-edges pass picks and whose shortest cycle by the
        unbounded reference BFS is shorter, on every graph that gf and gd
        step through."""
        for run in growth_runs.values():
            for g in run:
                uv = _uv_edges(g)
                full = {e: reference_short_cycle_through(g, e, math.inf)
                        for e in uv}
                for bound in range(3, 17):
                    assert short_uv_edges(g, bound) \
                        == reference_short_cycle_edges(g, uv, bound) \
                        == [e for e in uv if full[e] < bound]


class TestShortCycleVertices:
    def test_random_h23_lifts(self, h23):
        """Random lifts of H23, with parallel u-v pairs and half-loops at
        u-vertices: the pass agrees with the all-edges pass at bounds
        3..13, and over 100 of the 660 cases have edges of both outcomes."""
        rng = random.Random(23)
        parallel, mixed = 0, 0
        for _ in range(60):
            g = random_lift(h23, rng.randint(1, 24), rng, random_involution)
            uv = _uv_edges(g)
            parallel += len(uv) > len({frozenset((g.tail[e], g.head[e]))
                                       for e in uv})
            for bound in range(3, 14):
                mine = short_uv_edges(g, bound)
                assert mine == reference_short_cycle_edges(g, uv, bound)
                mixed += 0 < len(mine) < len(uv)
        assert parallel and mixed > 100

    def test_cut_vertex_is_not_hit(self):
        """v joins two triangles and lies on no cycle; the triangles'
        degree-2 vertices are on 3-cycles."""
        # triangles a-x-y (0, 1, 2) and b-p-q (3, 4, 5), v = 6 between a, b
        g = MultiGraph.from_pairs(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5),
                                      (5, 3), (0, 6), (6, 3)])
        for bound in range(3, 12):
            on_triangle = int(bound > 3)
            assert _short_cycle_vertices(g.adj, bound) == dict.fromkeys(
                (1, 2, 4, 5), on_triangle) | {6: 0}


class TestGreedyCycle:
    def test_n4_g3_is_k4_minus_edge(self, h23, k4me):
        for seed in range(20):
            ok, g = greedy_outcome("a", 4, 3, random.Random(seed))
            if ok:
                assert nx.is_isomorphic(to_nx(g), to_nx(k4me))
                return
        pytest.fail("no success in 20 seeds at the easiest cell")

    @pytest.mark.parametrize("variant", ["a", "b", "c"])
    def test_n8_g5_success_exists(self, variant, h23):
        for seed in range(200):
            ok, g = greedy_outcome(variant, 8, 5, random.Random(seed))
            if ok:
                assert girth(g) >= 5 and g.vertex_count == 8
                assert verify_cover(g, h23, h23_cover_map(g))
                return
        pytest.fail(f"variant {variant} never succeeded at n=8, g=5")

    def test_n12_g7_always_fails(self):
        for seed in range(100):
            ok, _ = greedy_outcome("a", 12, 7, random.Random(seed))
            assert not ok

    def test_bad_arguments(self):
        # a bad argument is a precondition error, never a failed trial
        bad = [("x", 8, 5), ("a", 7, 5), ("a", 0, 3), ("a", -4, 3)]
        for variant, n, g in bad:
            with pytest.raises(GraphError) as info:
                greedy_cycle(variant, n, g, random.Random(0))
            assert not isinstance(info.value, TrialFailed)

    def test_matches_reference(self):
        """Same result and the same draws as the per-vertex BFS, which
        leaves both generators in the same state: n = 4..40, g = 3..13,
        every variant, seeds 0..5."""
        for variant in "abc":
            for n in range(4, 44, 4):
                for g in range(3, 14):
                    for seed in range(6):
                        mine, ref = random.Random(seed), random.Random(seed)
                        assert greedy_outcome(variant, n, g, mine) \
                            == reference_greedy_cycle(variant, n, g, ref)
                        assert mine.random() == ref.random()

    def test_trials_share_unwritten_start_rows(self):
        """The trials of one (n, g) share one build of the start rows and
        no trial's join writes them: after 50 seeded c trials they equal a
        fresh build and seed 0 gives the same graph again, and another
        (n, g) gets rows of its own."""
        first = greedy_outcome("c", 24, 8, random.Random(0))
        tables = pairing_tables((12,), 6)
        builds = pairing_tables.cache_info().misses
        for seed in range(50):
            greedy_outcome("c", 24, 8, random.Random(seed))
        assert pairing_tables.cache_info().misses == builds
        assert pairing_tables((12,), 6) is tables
        assert tables == pairing_tables.__wrapped__((12,), 6)
        assert greedy_outcome("c", 24, 8, random.Random(0)) == first
        other = greedy_outcome("c", 16, 6, random.Random(0))
        assert pairing_tables((8,), 4) \
            == pairing_tables.__wrapped__((8,), 4) != tables
        assert greedy_outcome("c", 24, 8, random.Random(0)) == first
        assert greedy_outcome("c", 16, 6, random.Random(0)) == other

    def test_kernels_copy_the_rows(self):
        """Each kernel's ball is its own copy: a join on one leaves the
        shared rows and a second kernel's ball as built."""
        ball, join = pairing_kernel([12], 6)
        other, _ = pairing_kernel([12], 6)
        join(0, 6, (1 << 12) - 1 & ~(1 | 1 << 6))
        assert ball != other
        assert other == list(pairing_tables((12,), 6)[0]) \
            == list(pairing_tables.__wrapped__((12,), 6)[0])

    @pytest.mark.parametrize("variant", ["a", "b", "c"])
    def test_base_cycle_shorter_than_g_fails(self, variant):
        for n, g in ((4, 5), (8, 9), (12, 13), (20, 21)):
            for seed in range(5):
                assert greedy_outcome(variant, n, g, random.Random(seed)) \
                    == (False, None)


class TestCoverByStructure:
    def test_on_two_lift(self, h23, k4me):
        assert verify_cover(k4me, h23, h23_cover_map(k4me))

    def test_rejects_wrong_degrees(self, petersen):
        with pytest.raises(GraphError):
            h23_cover_map(petersen)

    def test_rejects_a_non_cover(self, k32):
        # degrees 3 and 2, but a degree-3 vertex has no u-u edge
        with pytest.raises(GraphError, match="does not cover"):
            h23_cover_map(k32)

    def test_rejects_an_edge_between_degree_2_vertices(self):
        # K4 minus an edge, its 0-1 edge replaced by the path 0-4-5-1
        g = MultiGraph.from_pairs(6, [(0, 4), (4, 5), (5, 1), (0, 2),
                                      (0, 3), (1, 2), (1, 3)])
        with pytest.raises(GraphError, match="joins two degree-2 vertices"):
            h23_cover_map(g)

    def test_random_lifts(self, h23):
        """Random connected lifts, with u-u edges and half-loops over the
        half-loop and parallel u-v edges."""
        rng = random.Random(11)
        checked = 0
        while checked < 40:
            a = random_assignment(h23, rng.randint(1, 10), rng,
                                  random_involution)
            g = build_lift(a)[0]
            if graphs.is_connected(g):
                assert verify_cover(g, h23, h23_cover_map(g))
                checked += 1


def test_g13_witness_on_80_vertices(h23):
    """The smallest girth-13 voltage lift of H23 known: a Z_10 voltage
    lift of the height-4 lift H' with u-vertices 0..3 and v-vertices
    4..7.  Vertex (x, c) is 10 x + c, and joins (y, c + voltage) along
    x-y.  The minimum is 76 (test_search's test_g13_minimum_witness), a
    lift with no nontrivial deck transformation."""
    edges = ([(i, 4 + i) for i in range(4)]
             + [(i, 4 + (i + 1) % 4) for i in range(4)] + [(0, 1), (2, 3)])
    voltage = {(3, 4): 1, (0, 1): 2, (2, 3): 4}
    g = MultiGraph.from_pairs(80, [
        (10 * x + c, 10 * y + (c + voltage.get((x, y), 0)) % 10)
        for x, y in edges for c in range(10)])
    assert g.vertex_count == 80 and graphs.is_connected(g)
    assert girth(g) == 13 and diameter(g) == 9
    assert verify_cover(g, h23, h23_cover_map(g))


class TestSurgery:
    def uv_pairs(self, g):
        degs = g.degrees()
        out = []
        for e in g.undirected_edges():
            a, b = g.tail[e], g.head[e]
            if {degs[a], degs[b]} == {2, 3}:
                out.append(e)
        return out

    def test_all_pairs_keep_cover(self, h23, k4me):
        edges = self.uv_pairs(k4me)
        for e in edges:
            for f in edges:
                if f == e or f == k4me.inv[e]:
                    continue
                out = surgery_transform(k4me, e, f)
                assert out.vertex_count == k4me.vertex_count + 4
                assert verify_cover(out, h23, h23_cover_map(out))

    def test_matches_rebuild(self, k4me, growth_runs):
        """Every pair of u-v edges of K4 minus an edge, and random pairs
        from the graphs growth steps through, either edge given in either
        direction."""
        uv = self.uv_pairs(k4me)
        cases = [(k4me, x, f) for e in uv for f in uv if f != e
                 for x in (e, k4me.inv[e])]
        rng = random.Random(5)
        for run in growth_runs.values():
            for g in run[::3]:
                for _ in range(4):
                    e, f = rng.sample(self.uv_pairs(g), 2)
                    cases.append((g, rng.choice((e, g.inv[e])), f))
        for g, e, f in cases:
            assert surgery_transform(g, e, f) \
                == reference_surgery_transform(g, e, f)

    def test_refuses_half_loops(self, h23):
        with pytest.raises(GraphError, match="half-loops"):
            surgery_transform(h23, 0, 2)

    def test_in_place_matches_reference(self, reference_growth):
        for (variant, seed), ref in reference_growth.items():
            assert_grows_as_reference(variant, GROWTH_GIRTHS[variant], seed,
                                      ref)

    @pytest.mark.parametrize("variant", ["gd", "gf"])
    def test_in_place_matches_reference_small_girths(self, variant):
        for g in range(6, 10):
            for seed in range(20):
                assert_grows_as_reference(variant, g, seed)

    def test_one_graph_per_trial(self, monkeypatch):
        """grow builds one MultiGraph, its output, and gf gets every
        profile from nb_cycle_profile, one call per graph it steps
        through."""
        built, calls = [], []
        init = MultiGraph.__init__
        monkeypatch.setattr(MultiGraph, "__init__", lambda self, *args:
                            built.append(1) or init(self, *args))
        monkeypatch.setattr(construct, "nb_cycle_profile", lambda *args:
                            calls.append(1) or nb_cycle_profile(*args))
        for variant in ("gd", "gf"):
            built.clear()
            out = grow(variant, 10, random.Random(0))
            assert len(built) == 1
        assert len(calls) == 1 + (out.vertex_count - 4) // 4

    def test_grow_g3_immediate(self, k4me):
        g = grow("gd", 3, random.Random(0))
        assert g.vertex_count == 4
        assert nx.is_isomorphic(to_nx(g), to_nx(k4me))

    @pytest.mark.parametrize("variant", ["gd", "gf"])
    def test_grow_outputs_cover(self, variant, h23):
        g = grow(variant, 6, random.Random(2))
        assert girth(g) >= 6
        assert verify_cover(g, h23, h23_cover_map(g))

    def test_grow_stops_at_girth(self, growth_runs):
        """grow stops on its own short-cycle test: every graph it steps
        through has whole-graph girth below g, and its output reaches g."""
        for (variant, _), run in growth_runs.items():
            g = GROWTH_GIRTHS[variant]
            assert all(girth(x) < g for x in run[:-1])
            assert girth(run[-1]) >= g

    def test_gf_g6_reaches_minimum(self, h23):
        best = min(grow("gf", 6, random.Random(seed)).vertex_count
                   for seed in range(20))
        assert best == 12

    def test_unknown_variant(self):
        with pytest.raises(GraphError):
            grow("zz", 5, random.Random(0))
