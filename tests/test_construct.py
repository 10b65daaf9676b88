import hashlib
import math
import random
from collections import deque

import networkx as nx
import pytest

from liftgirth import construct, graphs
from liftgirth.bounds import es_upper_bound, spanning_tree
from liftgirth.cover_tree import nb_step
from liftgirth.construct import (TrimState, _coin_string, _on_short_cycle,
                                 _short_cycle_edges, _uv_edges,
                                 cycles_of_length,
                                 es_construct, es_trim_step, greedy_cycle,
                                 grow, h23_cover_map, high_girth_cover,
                                 nb_cycle_profile, surgery_transform)
from liftgirth.graphs import (GraphError, MultiGraph, TrialFailed, diameter,
                              farthest_pair, girth)
from liftgirth.lifts import (LiftAssignment, _perm_inverse, build_lift,
                             normalize_tree_layers, serialize_cover_map,
                             verify_cover)
from test_graphs import random_loopy_lift


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


GROWTH_GIRTHS = {"gf": 12, "gd": 13}


@pytest.fixture(scope="module")
def growth_runs():
    """Every graph that grow("gf", 12) and grow("gd", 13) step through, as
    each step lists its u-v edges, by (variant, seed) for seeds 0, 1, 2;
    the last one is the output."""
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        for variant, g in GROWTH_GIRTHS.items():
            for seed in (0, 1, 2):
                seen = runs[variant, seed] = []
                mp.setattr(construct, "_uv_edges",
                           lambda x, seen=seen: seen.append(x) or _uv_edges(x))
                out = grow(variant, g, random.Random(seed))
                assert seen[-1] is out
    return runs


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
        [profile] = nb_cycle_profile(c5, [0], 6)
        assert profile[4] == 1                      # one 5-cycle
        assert all(x == 0 for i, x in enumerate(profile) if i != 4)

    def test_k4_edge(self, k4):
        [profile] = nb_cycle_profile(k4, [0], 3)
        assert profile[2] == 2                      # two triangles per edge

    def test_petersen_edge(self, petersen):
        [profile] = nb_cycle_profile(petersen, [0], 5)
        assert profile[4] == 4

    def test_matches_reference_on_growth(self, growth_runs):
        """All u-v edges of every graph that gf and gd step through, at
        every g_max up to 12."""
        for run in growth_runs.values():
            for g in run:
                uv = _uv_edges(g)
                full = [reference_nb_cycle_profile(g, e, 12) for e in uv]
                for g_max in range(1, 13):
                    assert nb_cycle_profile(g, uv, g_max) \
                        == [p[:g_max] for p in full]

    def test_matches_reference_on_loopy_lifts(self, loopy_lifts):
        """Every directed edge, loops of both kinds included; the reference
        walk is exponential in the degree, which loops drive up to 14 here,
        so g_max stays small."""
        for g in loopy_lifts:
            edges = range(g.edge_count)
            full = [reference_nb_cycle_profile(g, e, 5) for e in edges]
            for g_max in range(1, 6):
                assert nb_cycle_profile(g, edges, g_max) \
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
            monkeypatch.setattr(construct, "nb_step", lambda g, counts:
                                steps.append(counts) or nb_step(g, counts))
            assert nb_cycle_profile(bouquet, edges, g_max) \
                == [p[:g_max] for p in full]
            width = ((delta - 1) ** g_max).bit_length()
            assert steps[0] == {e: 1 << k * width for k, e in enumerate(edges)}
            # every walk continues on delta - 1 edges
            assert sum(steps[-1].values()) == sum(
                (delta - 1) ** (g_max - 1) << k * width
                for k in range(len(edges)))


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


@pytest.fixture(scope="module")
def trim_run():
    """The trim states of one H23 lift at g = TRIM_G, and the farthest
    pair of the last one."""
    h23 = graphs.h23()
    tree = spanning_tree(h23)
    a = normalize_tree_layers(high_girth_cover(h23, TRIM_G, random.Random(0)),
                              tree.tree_edges)
    states = [TrimState(a, tree, *build_lift(a))]
    while True:
        far = farthest_pair(states[-1].graph)
        if far[2] <= tree.d0(TRIM_G):
            return states, far
        states.append(es_trim_step(states[-1], TRIM_G, far))


@pytest.fixture(scope="module")
def es11():
    """es_construct(H23, 11) for seeds 0, 1, 2."""
    return {s: es_construct(graphs.h23(), 11, random.Random(s))
            for s in (0, 1, 2)}


@pytest.fixture(scope="module")
def trim_checks():
    """Every (graph, edge, g) whose short cycles es_trim_step tests: in the
    trim steps of es_construct on H23 at g = 7..11, K32 at g = 13 and
    Petersen at g = 10, seeds 0, 1, 2, and in the steps from each first
    trim state with vertex 0 paired with the next 16 vertices outside its
    layer and passed off as farther apart than D0; many of these rewire an
    edge onto a short cycle."""
    checks = []
    cases = [(graphs.h23(), g) for g in range(7, 12)]
    cases += [(graphs.k32(), 13), (graphs.petersen(), 10)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "_on_short_cycle", lambda graph, e, bound:
                   checks.append((graph, e, bound))
                   or _on_short_cycle(graph, e, bound))
        for h, g in cases:
            tree = spanning_tree(h)
            for seed in (0, 1, 2):
                es_construct(h, g, random.Random(seed))
                a = normalize_tree_layers(
                    high_girth_cover(h, g, random.Random(seed)),
                    tree.tree_edges)
                state = TrimState(a, tree, *build_lift(a))
                nv = h.vertex_count
                fake = tree.d0(g) + 1
                for u in range(nv, min(nv + 16, state.graph.vertex_count)):
                    trim_outcome(es_trim_step, state, g, (0, u, fake))
    return checks


def relabel_layers(a, lam):
    """Apply one layer permutation at every vertex: perm'(e) = lam o perm(e)
    o lam^-1.  Tree-identity permutations stay identity."""
    lam = tuple(lam)
    lam_inv = _perm_inverse(lam)
    perms = [tuple(lam[p[lam_inv[i]]] for i in range(a.height))
             for p in a.perms]
    return LiftAssignment(a.base, a.height, perms)


def reference_es_trim_step(state, g, far):
    """Reference for construct.es_trim_step: the same step, guarded by the
    girth of the whole trimmed graph instead of the cycles through the
    rewired edges."""
    h = state.assignment.base
    n = state.assignment.height
    nv = h.vertex_count
    d0 = state.tree.d0(g)
    vp, up, dist = far
    if dist <= d0:
        raise GraphError(f"diameter {dist} <= D0 {d0}: nothing to trim")
    i, j = vp // nv, up // nv
    if i == j:
        raise GraphError("farthest pair in one layer; tree normalization "
                         "or the distance precondition is broken")
    kept = [x for x in range(n) if x != i and x != j]
    a = relabel_layers(state.assignment, _perm_inverse(kept + [j, i]))
    tree_set = set(state.tree.tree_edges) | {h.inv[e]
                                             for e in state.tree.tree_edges}
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
    graph, cover = build_lift(new_a)
    if girth(graph) < g:
        raise GraphError("trim produced a short cycle; internal invariant "
                         "violated")
    return TrimState(new_a, state.tree, graph, cover)


def trim_outcome(step, state, g, far):
    """The trimmed (perms, graph, cover) of one step, or its error text."""
    try:
        out = step(state, g, far)
    except GraphError as exc:
        return str(exc)
    return out.assignment.perms, out.graph, out.cover


def output_digest(g, m, h):
    text = graphs.serialize_graph(g) + serialize_cover_map(m, g, h)
    return hashlib.sha256(text.encode()).hexdigest()


class TestTrim:
    def test_step_removes_two_layers(self, h23, trim_run):
        states, _ = trim_run
        assert len(states) >= 2          # at least one step ran
        for before, after in zip(states, states[1:]):
            assert after.graph.vertex_count \
                == before.graph.vertex_count - 2 * h23.vertex_count
            assert girth(after.graph) >= TRIM_G
            assert verify_cover(after.graph, h23, after.cover)

    def test_small_diameter_rejected(self, trim_run):
        states, far = trim_run
        with pytest.raises(GraphError, match="nothing to trim"):
            es_trim_step(states[-1], TRIM_G, far)

    def test_pair_in_one_layer_rejected(self, trim_run):
        states, _ = trim_run
        state = states[0]
        with pytest.raises(GraphError, match="one layer"):
            es_trim_step(state, TRIM_G, (0, 1, state.tree.d0(TRIM_G) + 1))

    def test_step_matches_reference(self, trim_run):
        states, _ = trim_run
        for state in states[:-1]:
            far = farthest_pair(state.graph)
            assert trim_outcome(es_trim_step, state, TRIM_G, far) \
                == trim_outcome(reference_es_trim_step, state, TRIM_G, far)

    def test_guard_matches_reference(self, trim_run):
        # vertex 0 paired with every vertex of another layer and passed
        # off as farther apart than D0: most of these close a short cycle
        # through a rewired edge, a few break the red-edge count, and the
        # rest trim cleanly
        state = trim_run[0][0]
        nv = state.assignment.base.vertex_count
        fake = state.tree.d0(TRIM_G) + 1
        outcomes = set()
        for u in range(nv, state.graph.vertex_count):
            mine = trim_outcome(es_trim_step, state, TRIM_G, (0, u, fake))
            assert mine == trim_outcome(reference_es_trim_step, state,
                                        TRIM_G, (0, u, fake)), u
            outcomes.add(mine.split(";")[0] if isinstance(mine, str)
                         else "trimmed")
        assert {"trimmed", "trim produced a short cycle"} <= outcomes

    def test_local_check_matches_all_edge_pass(self, trim_checks):
        """The search around a rewired edge agrees with the all-edges
        pass at the step's g and at the bounds below and above it."""
        by_graph = {}
        for graph, e, g in trim_checks:
            by_graph.setdefault(id(graph), (graph, g, []))[2].append(e)
        found = set()
        for graph, g, edges in by_graph.values():
            for bound in range(3, g + 3):
                mine = [e for e in edges if _on_short_cycle(graph, e, bound)]
                assert mine == _short_cycle_edges(graph, edges, bound)
                found |= {(bound == g, e in mine) for e in edges}
        assert found == {(True, True), (True, False), (False, True),
                         (False, False)}

    def test_local_check_loopy_lifts(self, loopy_lifts):
        """Every directed edge of lifts with loops, half-loops and
        parallel edges, at bounds 3..8."""
        for g in loopy_lifts:
            edges = range(g.edge_count)
            for bound in range(3, 9):
                assert [e for e in edges if _on_short_cycle(g, e, bound)] \
                    == _short_cycle_edges(g, edges, bound)

    def test_es_construct_matches_reference(self, h23, es11, monkeypatch):
        monkeypatch.setattr(construct, "es_trim_step",
                            reference_es_trim_step)
        for seed, (out, m) in es11.items():
            assert es_construct(h23, 11, random.Random(seed)) == (out, m)

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
        """The all-edges pass picks, at every bound, the u-v edges whose
        shortest cycle by the unbounded reference BFS is shorter, on every
        graph that gf and gd step through."""
        for run in growth_runs.values():
            for g in run:
                uv = _uv_edges(g)
                full = {e: reference_short_cycle_through(g, e, math.inf)
                        for e in uv}
                for bound in range(3, 17):
                    assert _short_cycle_edges(g, uv, bound) \
                        == [e for e in uv if full[e] < bound]

    def test_short_cycle_loopy_lifts(self, loopy_lifts):
        """Loops, half-loops and parallel edges, with the edges given in
        reverse order: the result keeps the order it was given."""
        for g in loopy_lifts:
            edges = g.undirected_edges()[::-1]
            for bound in range(3, 11):
                assert _short_cycle_edges(g, edges, bound) == [
                    e for e in edges
                    if reference_short_cycle_through(g, e, bound) < bound]


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
