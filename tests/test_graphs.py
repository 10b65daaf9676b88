import os
import random
import subprocess
import sys

import networkx as nx
import pytest

from liftgirth import graphs
from liftgirth.graphs import (GraphError, MultiGraph, ParseError, bfs,
                              diameter, distance, eccentricity, farthest_pair,
                              girth, is_connected, parse_graph,
                              serialize_graph, validate)
from liftgirth.lifts import LiftAssignment, build_lift
from liftgirth.spectral import build_nb_matrix


def oracle_girth(g, cap=12):
    """Independent girth oracle: any loop is a 1-cycle; otherwise the
    smallest L with a cyclically non-backtracking closed walk of length L,
    found by integer powers of the non-backtracking matrix."""
    if any(g.tail[e] == g.head[e] for e in range(g.edge_count)):
        return 1
    b = build_nb_matrix(g)
    m = b.dimension
    dense = [[b.entry(f, e) for e in range(m)] for f in range(m)]
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
    n = rng.randint(1, 6)
    perms = [None] * base.edge_count
    for e in base.undirected_edges():
        if base.is_half_loop(e):
            perms[e] = random_involution(n, rng)
        else:
            p = list(range(n))
            rng.shuffle(p)
            perms[e] = tuple(p)
            perms[base.inv[e]] = tuple(sorted(range(n), key=p.__getitem__))
    return build_lift(LiftAssignment(base, n, perms))[0]


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

    def test_admissibility(self, h23, k4):
        c = validate(h23)
        assert c.connected and c.min_degree == 2 and c.max_degree == 3
        assert c.admissible
        assert not validate(graphs.cycle_graph(5)).admissible
        assert validate(k4).admissible
        two_triangles = MultiGraph.from_pairs(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not validate(two_triangles).connected


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
        assert eccentricity(petersen, 0) == 2
        u, v, d = farthest_pair(graphs.cycle_graph(6))
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
            assert farthest_pair(g) == (*first, d)

    def test_disconnected_raises(self):
        g = MultiGraph.from_pairs(4, [(0, 1), (2, 3)])
        assert not is_connected(g)
        assert distance(g, 0, 2) == float("inf")
        with pytest.raises(GraphError):
            eccentricity(g, 0)


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
