import math
import os
import random
import subprocess
import sys
from collections import deque

import networkx as nx
import pytest

from liftgirth import graphs
from liftgirth.graphs import (GraphError, MultiGraph, ParseError, admissible,
                              bfs, diameter, distance, far_sources,
                              farthest_pair, file_edge_ids, girth,
                              is_connected, parse_graph, serialize_graph)
from liftgirth.construct import high_girth_cover
from liftgirth.lifts import LiftAssignment, build_lift


def dense_nb_matrix(g):
    """The non-backtracking matrix from its definition, as dense rows:
    B[f][e] = 1 iff a walk may continue from e to f, that is tail(f) =
    head(e) and f != inv(e)."""
    m = g.edge_count
    return [[int(g.tail[f] == g.head[e] and f != g.inv[e]) for e in range(m)]
            for f in range(m)]


def reference_admissible(h):
    """Admissibility read off B, built from its definition: B has an arc
    and is strongly connected, some edge has at least two continuations,
    and no vertex is isolated."""
    dense = dense_nb_matrix(h)
    arcs = nx.DiGraph()
    arcs.add_nodes_from(range(h.edge_count))
    arcs.add_edges_from((e, f) for f, row in enumerate(dense)
                        for e, x in enumerate(row) if x)
    return (arcs.number_of_edges() > 0 and nx.is_strongly_connected(arcs)
            and any(d >= 2 for _, d in arcs.out_degree())
            and min(h.degrees()) > 0)


def oracle_girth(g, cap=12):
    """Independent girth oracle: any loop is a 1-cycle; otherwise the
    smallest L with a cyclically non-backtracking closed walk of length L,
    found by integer powers of the non-backtracking matrix."""
    if any(g.tail[e] == g.head[e] for e in range(g.edge_count)):
        return 1
    dense = dense_nb_matrix(g)
    m = g.edge_count
    power = dense
    for length in range(2, cap + 1):
        power = [[sum(row[k] * dense[k][e] for k in range(m))
                  for e in range(m)] for row in power]
        if any(power[e][e] for e in range(m)):
            return length
    return None


def random_involution(n, rng):
    p = list(range(n))
    free = list(range(n))
    rng.shuffle(free)
    while len(free) >= 2:
        a, b = free.pop(), free.pop()
        if rng.random() < 0.7:
            p[a], p[b] = b, a
    return tuple(p)


def random_loopy_lift(rng):
    """A random lift of a random base with parallel edges, whole-loops and
    half-loops; its half-loops may lift to half-loops, whole-loops or
    edges, so the lift keeps loops of both kinds."""
    nv = rng.randint(1, 4)
    directives = [("edge", rng.randrange(nv), rng.randrange(nv))
                  for _ in range(rng.randint(0, 5))]
    directives += [("wholeloop", rng.randrange(nv))
                   for _ in range(rng.randint(0, 2))]
    directives += [("halfloop", rng.randrange(nv))
                   for _ in range(rng.randint(0, 2))]
    base = MultiGraph.build(nv, directives)
    return random_lift(base, rng.randint(1, 6), rng, random_involution)


def random_matching(n, rng):
    """A fixed-point-free involution of range(n), n even."""
    free = list(range(n))
    rng.shuffle(free)
    p = [None] * n
    for a, b in zip(free[::2], free[1::2]):
        p[a], p[b] = b, a
    return tuple(p)


def random_lift(base, n, rng, involution):
    """A height-n lift of base with uniform permutations on its edges and
    involution(n, rng) on its half-loops."""
    return build_lift(random_assignment(base, n, rng, involution))[0]


def random_assignment(base, n, rng, involution):
    """The LiftAssignment that random_lift builds."""
    perms = [None] * base.edge_count
    for e in base.undirected_edges():
        if base.is_half_loop(e):
            perms[e] = involution(n, rng)
        else:
            p = list(range(n))
            rng.shuffle(p)
            perms[e] = tuple(p)
            perms[base.inv[e]] = tuple(sorted(range(n), key=p.__getitem__))
    return LiftAssignment(base, n, perms)


def reference_girth(g):
    """Per-root BFS with parent-edge avoidance, one root at a time: the
    loop girth ran before the all-sources BFS."""
    if any(g.is_loop(e) for e in range(g.edge_count)):
        return 1
    pairs = [tuple(sorted((g.tail[e], g.head[e])))
             for e in g.undirected_edges()]
    if len(set(pairs)) < len(pairs):
        return 2
    best = math.inf
    for s in range(g.vertex_count):
        dist = [-1] * g.vertex_count
        parent_edge = [-1] * g.vertex_count
        dist[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            if 2 * dist[u] >= best:
                break
            pe = parent_edge[u]
            for e in g.out[u]:
                if pe >= 0 and e == g.inv[pe]:
                    continue
                w = g.head[e]
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent_edge[w] = e
                    q.append(w)
                elif e != parent_edge[w]:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def reference_farthest_pair(g):
    """One BFS per source: the first source of largest eccentricity and
    the first vertex at that distance from it."""
    best = (-1, None, None)
    for u in range(g.vertex_count):
        dist = bfs(g.adj, u)
        if min(dist) < 0:
            raise GraphError("the graph is not connected")
        d = max(dist)
        if d > best[0]:
            best = (d, u, dist.index(d))
    d, u, v = best
    return u, v, d


def to_nx(g):
    gx = nx.MultiGraph()
    gx.add_nodes_from(range(g.vertex_count))
    gx.add_edges_from((g.tail[e], g.head[e]) for e in g.undirected_edges())
    return gx


class TestStructure:
    def test_h23_shape(self, h23):
        assert h23.vertex_count == 2
        assert h23.edge_count == 5
        assert h23.degrees() == (2, 3)
        assert h23.is_half_loop(4)

    def test_degree_sum_is_directed_edge_count(self, h23, k32, petersen):
        for g in (h23, k32, petersen):
            assert sum(g.degrees()) == g.edge_count

    def test_involution_validation(self):
        with pytest.raises(GraphError):
            MultiGraph(2, (0, 1), (1, 0), (0, 1))
        with pytest.raises(GraphError):
            MultiGraph(1, (0,), (0,), (1,))

    def test_build_directives(self):
        """A whole-loop at a is the edge a a, with the same ids; a
        directive with the wrong number of ends raises."""
        rest = [("edge", 0, 1), ("halfloop", 0)]
        assert MultiGraph.build(2, [("wholeloop", 1), *rest]) \
            == MultiGraph.build(2, [("edge", 1, 1), *rest])
        for bad in (("edge", 0), ("wholeloop", 0, 1), ("halfloop", 0, 1)):
            with pytest.raises(ValueError):
                MultiGraph.build(2, [bad])
        with pytest.raises(GraphError):
            MultiGraph.build(2, [("loop", 0)])

    def test_from_pairs_matches_edge_directives(self):
        """from_pairs gives pair k the ids 2k and 2k + 1, as build gives
        edge directives, on seeded pair lists with loops and parallel
        pairs; a vertex out of range still raises."""
        rng = random.Random(22)
        loops = parallel = 0
        for _ in range(300):
            nv = rng.randint(1, 5)
            pairs = [(rng.randrange(nv), rng.randrange(nv))
                     for _ in range(rng.randint(0, 8))]
            pairs += rng.sample(pairs, min(2, len(pairs)))
            rng.shuffle(pairs)
            loops += any(a == b for a, b in pairs)
            parallel += len(set(map(frozenset, pairs))) < len(pairs)
            g = MultiGraph.from_pairs(nv, pairs)
            ref = MultiGraph.build(nv, [("edge", a, b) for a, b in pairs])
            assert g == ref
            assert (g.out, g.adj, g.degrees()) \
                == (ref.out, ref.adj, ref.degrees())
        assert loops and parallel
        with pytest.raises(GraphError, match="out of range"):
            MultiGraph.from_pairs(2, [(0, 1), (1, 2)])

    def test_admissibility(self, h23, k4):
        assert admissible(h23) and admissible(k4)
        assert not admissible(graphs.cycle_graph(5))
        two_triangles = MultiGraph.from_pairs(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not is_connected(two_triangles)
        assert not admissible(two_triangles)
        pendant = MultiGraph.from_pairs(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        assert is_connected(pendant) and not admissible(pendant)


class TestGirth:
    def test_small_cases(self, k4me, h23):
        assert girth(k4me) == 3
        assert girth(graphs.cycle_graph(20)) == 20
        assert girth(h23) == 1
        assert girth(MultiGraph.build(1, [("wholeloop", 0)])) == 1
        parallel = MultiGraph.build(2, [("edge", 0, 1), ("edge", 0, 1)])
        assert girth(parallel) == 2

    def test_forest_is_infinite(self):
        path = MultiGraph.from_pairs(3, [(0, 1), (1, 2)])
        assert girth(path) == float("inf")

    def test_against_walk_oracle(self, h23, k32, k4, k4me, petersen):
        cases = [h23, k32, k4, k4me, petersen,
                 graphs.cycle_graph(7), graphs.cycle_graph(12),
                 MultiGraph.build(2, [("edge", 0, 1), ("edge", 0, 1),
                                      ("halfloop", 1), ("halfloop", 0)])]
        for g in cases:
            assert girth(g) == oracle_girth(g), g


class TestMetrics:
    def test_distance_and_diameter(self, k4me):
        assert distance(k4me, 0, 0) == 0
        assert diameter(graphs.cycle_graph(20)) == 10
        assert diameter(k4me) == 2

    def test_eccentricity_and_farthest_pair(self, petersen):
        assert max(bfs(petersen.adj, 0)) == 2
        u, v, d = farthest_pair(graphs.cycle_graph(6).adj)
        assert d == 3 and distance(graphs.cycle_graph(6), u, v) == 3

    def test_bfs_against_networkx(self, h23, k32, k4, k4me, petersen):
        rng = random.Random(2024)
        cases = [h23, k32, k4, k4me, petersen, graphs.cycle_graph(9)]
        cases += [random_loopy_lift(rng) for _ in range(60)]
        assert any(g.is_half_loop(e) for g in cases for e in range(g.edge_count))
        assert any(g.is_loop(e) and not g.is_half_loop(e)
                   for g in cases for e in range(g.edge_count))
        for g in cases:
            gx = to_nx(g)
            for s in range(g.vertex_count):
                for cutoff in (None, 1, 2, 3, 5):
                    ref = nx.single_source_shortest_path_length(
                        gx, s, cutoff=None if cutoff is None else cutoff - 1)
                    want = [ref.get(v, -1) for v in range(g.vertex_count)]
                    assert bfs(g.adj, s, cutoff) == want, (g, s, cutoff)

    def test_farthest_pair_tie_break(self, h23, k32, k4me, petersen):
        rng = random.Random(7)
        cases = [h23, k32, k4me, petersen, graphs.cycle_graph(8)]
        cases += [g for g in (random_loopy_lift(rng) for _ in range(60))
                  if is_connected(g)]
        for g in cases:
            lengths = dict(nx.all_pairs_shortest_path_length(to_nx(g)))
            d = max(max(row.values()) for row in lengths.values())
            first = min((u, v) for u in lengths for v in lengths[u]
                        if lengths[u][v] == d)
            assert farthest_pair(g.adj) == (*first, d)

    def test_disconnected_raises(self):
        g = MultiGraph.from_pairs(4, [(0, 1), (2, 3)])
        assert not is_connected(g)
        assert distance(g, 0, 2) == float("inf")
        with pytest.raises(GraphError):
            farthest_pair(g.adj)


LIFT_HEIGHTS = (1, 2, 3, 4, 6, 9, 14, 22, 35, 55, 80)


@pytest.fixture(scope="module")
def kernel_cases():
    """Graphs for the all-sources kernels: the 60 random loopy lifts,
    seeded random lifts of H23 (half-loop on a matching), K32, Petersen
    and K4 up to height 80, lifts of girth 6 to 10, cycles, forests, a
    single vertex, and disconnected graphs, some with a cycle in one
    component only."""
    rng = random.Random(2024)
    cases = [random_loopy_lift(rng) for _ in range(60)]
    rng = random.Random(80)
    for base in (graphs.h23(), graphs.k32(), graphs.petersen(),
                 graphs.complete_graph(4)):
        for n in LIFT_HEIGHTS:
            cases.append(random_lift(base, n + n % 2, rng, random_matching))
    for base, g, seed in ((graphs.h23(), 8, 0), (graphs.h23(), 9, 1),
                          (graphs.k32(), 8, 1), (graphs.petersen(), 7, 0),
                          (graphs.complete_graph(4), 6, 2)):
        cases.append(build_lift(high_girth_cover(base, g,
                                                 random.Random(seed)))[0])
    cases += [
        graphs.cycle_graph(7), graphs.cycle_graph(11),
        # a 4-cycle and a 5-cycle on edge 0-1: girth 4, an odd hit in
        # the same round as the even one
        MultiGraph.from_pairs(7, [(0, 1), (1, 2), (2, 3), (3, 0),
                                  (1, 4), (4, 5), (5, 6), (6, 0)]),
        MultiGraph(1, (), (), ()),
        MultiGraph.from_pairs(2, [(0, 1)]),
        MultiGraph.from_pairs(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
        MultiGraph.from_pairs(7, [(3, v) for v in range(7) if v != 3]),
        MultiGraph.from_pairs(9, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5),
                                  (5, 6), (5, 7), (7, 8)]),
        MultiGraph.from_pairs(4, [(0, 1), (2, 3)]),
        MultiGraph.from_pairs(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                  (5, 6)]),
        MultiGraph.from_pairs(12, [(i, (i + 1) % 9) for i in range(9)]
                              + [(8, 9), (9, 10), (10, 11), (11, 9)]),
        MultiGraph.from_pairs(13, [(i, (i + 1) % 9) for i in range(9)]
                              + [(9, 10), (10, 11), (11, 12), (12, 9)]),
    ]
    return cases


def outcome(fn, g):
    try:
        return fn(g)
    except GraphError as exc:
        return str(exc)


def check_far_sources(g, pair):
    """far_sources against one BFS per source at radii diameter - 3 ..
    diameter, given reference_farthest_pair's outcome on g; on a
    disconnected graph, radius |V| raises as farthest_pair does."""
    if isinstance(pair, str):
        assert outcome(lambda g: far_sources(g.adj, g.vertex_count),
                       g) == pair, serialize_graph(g)
        return
    ecc = [max(bfs(g.adj, s)) for s in range(g.vertex_count)]
    for radius in range(max(0, pair[2] - 3), pair[2] + 1):
        want = [s for s, e in enumerate(ecc) if e > radius]
        assert far_sources(g.adj, radius) == want, (radius,
                                                    serialize_graph(g))


class TestAllSourcesKernels:
    """girth, farthest_pair and far_sources against one BFS per root or
    source."""

    def test_cases_cover_every_shape(self, kernel_cases):
        girths = {reference_girth(g) for g in kernel_cases}
        assert {1, 2, 3, 4, 5, 6, 7, 8, 10, 11, math.inf} <= girths
        assert any(g.vertex_count >= 800 for g in kernel_cases)
        assert any(not is_connected(g) and reference_girth(g) < math.inf
                   for g in kernel_cases)

    def test_girth_matches_reference(self, kernel_cases):
        for g in kernel_cases:
            assert girth(g) == reference_girth(g), serialize_graph(g)

    def test_farthest_pair_matches_reference(self, kernel_cases):
        for g in kernel_cases:
            want = outcome(reference_farthest_pair, g)
            assert outcome(farthest_pair, g.adj) == want, serialize_graph(g)
            check_far_sources(g, want)

    def test_disconnected_diameter_is_inf(self, kernel_cases):
        for g in kernel_cases:
            if not is_connected(g):
                assert diameter(g) == math.inf

    @pytest.mark.parametrize("width", [1, 3, 7])
    def test_blocks_of_sources(self, kernel_cases, monkeypatch, width):
        """Several blocks: the first block of largest eccentricity keeps
        the pair, the girth is the minimum over blocks, and the far
        sources are their union."""
        small = [g for g in kernel_cases if g.vertex_count <= 60]
        monkeypatch.setattr(graphs, "_BLOCK", width)
        for g in small:
            assert girth(g) == reference_girth(g), serialize_graph(g)
            want = outcome(reference_farthest_pair, g)
            assert outcome(farthest_pair, g.adj) == want, serialize_graph(g)
            check_far_sources(g, want)


class TestFileFormat:
    def test_h23_text(self, h23):
        text = "vertices 2\nedge 0 1\nedge 0 1\nhalfloop 1\n"
        assert parse_graph(text) == h23

    def test_wholeloop_girth_one(self):
        g = parse_graph("vertices 1\nwholeloop 0\n")
        assert g.degrees() == (2,) and girth(g) == 1

    def test_round_trip_k32(self, k32):
        assert parse_graph(serialize_graph(k32)) == k32

    def test_round_trip_fixtures(self, h23, k4, k4me, petersen):
        for g in (h23, k4, k4me, petersen):
            assert parse_graph(serialize_graph(g)) == g

    def test_file_edge_ids_follow_the_round_trip(self):
        """Edge ids[e] of the reparsed file is edge e: same tail and
        head, and its inverse is ids[inv e]."""
        rng = random.Random(2024)
        for _ in range(300):
            g = random_loopy_lift(rng)
            f = parse_graph(serialize_graph(g))
            ids = file_edge_ids(g)
            assert sorted(ids) == list(range(g.edge_count))
            for e, i in enumerate(ids):
                assert (f.tail[i], f.head[i]) == (g.tail[e], g.head[e])
                assert f.inv[i] == ids[g.inv[e]]

    def test_comments_and_blank_lines(self):
        text = "# a graph\nvertices 2\n\nedge 0 1  # the only edge\n"
        g = parse_graph(text)
        assert g.vertex_count == 2 and g.edge_count == 2

    def test_parse_errors(self):
        for bad in ("edge 0 1\n",
                    "vertices 2\nedge 0\n",
                    "vertices 2\nfoo 0 1\n",
                    "vertices two\n",
                    "vertices 2\nvertices 2\n",
                    "vertices 0\n",
                    "vertices 2\nedge 0 5\n",
                    "vertices 2\nhalfloop -1\n"):
            with pytest.raises(ParseError):
                parse_graph(bad)


def test_cli_import_leaves_networkx_out():
    """networkx is a test dependency only; the CLI must not import it."""
    src = os.path.dirname(os.path.dirname(graphs.__file__))
    code = "import sys, liftgirth.cli; assert 'networkx' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_cli_import_leaves_process_pool_out():
    """concurrent.futures is imported only by construct --jobs > 1."""
    src = os.path.dirname(os.path.dirname(graphs.__file__))
    code = ("import sys, liftgirth.cli; "
            "assert 'concurrent.futures' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_cli_import_leaves_dataclasses_out():
    """The records are named tuples: importing the CLI adds neither
    dataclasses nor the inspect module it pulls in to what a bare
    interpreter has loaded."""
    src = os.path.dirname(os.path.dirname(graphs.__file__))
    code = ("import sys; bare = set(sys.modules); import liftgirth.cli; "
            "assert not {'dataclasses', 'inspect'} & (set(sys.modules) - bare)")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("tail, head, inv, message", [
    ([0, 1], [1, 0], [1], "length mismatch"),
    ([0, 1, 1], [1, 0, 1], [1, 2, 0], "edge 0: inverse is not an involution"),
])
def test_multigraph_refuses_bad_edge_lists(tail, head, inv, message):
    with pytest.raises(GraphError, match=message):
        MultiGraph(2, tail, head, inv)
