import random

import pytest

from liftgirth import graphs
from liftgirth.construct import high_girth_cover
from liftgirth.cover_tree import (ball_size_edge_two_sided, ball_size_vertex,
                                  layer_counts, nb_columns, nb_step)
from liftgirth.graphs import MultiGraph, bfs, girth
from liftgirth.lifts import build_lift

U = 1  # degree-3 vertex of H23
V = 0


def bfs_ball_oracle(g, v, r):
    """Ball sizes in the universal cover by explicit walk expansion.

    States are non-backtracking walks from v, tracked as (endpoint,
    arriving edge) with multiplicity; this only rebuilds the layer sums so
    it stays an independent check of the matrix-free recursion.
    """
    total = 1
    frontier = {}
    for e in g.out[v]:
        frontier[e] = frontier.get(e, 0) + 1
    for _ in range(r):
        total += sum(frontier.values())
        nxt = {}
        for e, k in frontier.items():
            for f in g.out[g.head[e]]:
                if f != g.inv[e]:
                    nxt[f] = nxt.get(f, 0) + k
        frontier = nxt
    return total


def reference_nb_step(g, counts):
    """One step of B over walk counts in a dict keyed by the directed edge
    the walk ends on, edge by edge: a walk ending on e continues on every
    edge out of head(e) except e^-1.  Each entry sums its predecessors in
    the order of counts; edges no walk reaches are absent."""
    nxt = {}
    for e, c in counts.items():
        for f in g.out[g.head[e]]:
            if f != g.inv[e]:
                nxt[f] = nxt.get(f, 0) + c
    return nxt


def random_multigraph(rng):
    """A seeded multigraph on 1-5 vertices: edges (parallel pairs among
    them), whole-loops and half-loops, often a vertex of degree 0 or 1."""
    nv = rng.randint(1, 5)
    directives = []
    for _ in range(rng.randint(0, 7)):
        kind = rng.choice(("edge", "edge", "wholeloop", "halfloop"))
        directives.append((kind, rng.randrange(nv), rng.randrange(nv))
                          if kind == "edge" else (kind, rng.randrange(nv)))
    return MultiGraph.build(nv, directives)


class TestNBStep:
    def test_matches_reference(self):
        """Three chained steps against the dict step, on seeded random
        multigraphs and an edgeless one, for int and float counts: the
        column step sums predecessors in increasing id, as the dict step
        does over a vector keyed in id order, so floats agree bit for
        bit."""
        rng = random.Random(19)
        cases = [MultiGraph(1, (), (), ())]
        cases += [random_multigraph(rng) for _ in range(400)]
        # the seeded cases hold every feature the step must handle
        ends = [[(g.tail[e], g.head[e], g.inv[e] == e)
                 for e in g.undirected_edges()] for g in cases]
        assert any(min(g.degrees()) == 1 for g in cases)
        assert any((v, v, True) in es for es in ends for v in range(5))
        assert any((v, v, False) in es for es in ends for v in range(5))
        assert any(len(set(es)) < len(es) for es in ends)   # parallel pairs
        for g in cases:
            m = g.edge_count
            columns = nb_columns(g)
            assert all(len(col) == m + 1 and col[m] == -1 for col in columns)
            for draw, zero in ((lambda: rng.randrange(10 ** 20), 0),
                               (lambda: rng.uniform(-1.0, 1.0), 0.0)):
                counts = [draw() for _ in range(m)] + [zero]
                for _ in range(3):
                    ref = reference_nb_step(g, dict(enumerate(counts[:m])))
                    counts = nb_step(columns, counts)
                    want = [ref.get(f, zero) for f in range(m)] + [zero]
                    key = float.hex if isinstance(zero, float) else int
                    assert list(map(key, counts)) == list(map(key, want))


class TestVertexBalls:
    def test_h23_layers_from_u(self, h23):
        assert layer_counts(h23, U, 2) == [3, 4]
        assert ball_size_vertex(h23, U, 2) == 8
        assert ball_size_vertex(h23, U, 3) == 14

    def test_r_zero(self, h23, petersen):
        assert ball_size_vertex(h23, V, 0) == 1
        assert ball_size_vertex(petersen, 3, 0) == 1

    def test_k32_degree_three_root(self, k32):
        assert ball_size_vertex(k32, 0, 2) == 7

    def test_regular_layers(self, petersen):
        assert layer_counts(petersen, 0, 5) == [3 * 2 ** i for i in range(5)]

    def test_matches_walk_oracle(self, h23, k32, k4, petersen):
        for g in (h23, k32, k4, petersen):
            for v in range(g.vertex_count):
                for r in range(21):
                    assert ball_size_vertex(g, v, r) == bfs_ball_oracle(g, v, r)


class TestEdgeBalls:
    def test_r_zero_is_two(self, h23):
        for e in range(h23.edge_count):
            assert ball_size_edge_two_sided(h23, e, 0) == 2

    def test_h23_half_loop_edge(self, h23):
        assert ball_size_edge_two_sided(h23, 4, 1) == 6
        assert ball_size_edge_two_sided(h23, 4, 2) == 10


class TestBallsInLifts:
    """Ball sizes against BFS in a high-girth lift, counting no walks: below
    the girth, the radius-r ball around a lifted vertex (or edge) is a copy
    of the one in the universal cover."""

    BASES = [
        (graphs.h23(), 11),
        (graphs.k32(), 10),
        (graphs.petersen(), 9),
        (graphs.complete_graph(5), 6),
        (MultiGraph.build(2, [("wholeloop", 0), ("wholeloop", 1),
                              ("edge", 0, 1), ("edge", 0, 1)]), 6),
    ]

    @pytest.mark.parametrize("h, g", BASES)
    def test_vertex_and_edge_balls(self, h, g):
        G, m = build_lift(high_girth_cover(h, g, random.Random(1)))
        gamma = girth(G)
        assert gamma >= g
        for x in range(0, G.vertex_count, max(1, G.vertex_count // 32)):
            r = 0
            while gamma > 2 * r + 1:
                reached = sum(d >= 0 for d in bfs(G.adj, x, r + 1))
                assert reached == ball_size_vertex(h, m.vertex_map[x], r)
                r += 1
        for e in range(0, G.edge_count, max(1, G.edge_count // 32)):
            r = 0
            while gamma > 2 * r + 2:
                da = bfs(G.adj, G.tail[e], r + 1)
                db = bfs(G.adj, G.head[e], r + 1)
                reached = sum(a >= 0 or b >= 0 for a, b in zip(da, db))
                assert reached == ball_size_edge_two_sided(h, m.edge_map[e], r)
                r += 1


class TestGrowth:
    def test_sandwich_ratio_stability(self, h23):
        # ball growth ratios settle near the Perron radius for 5 <= r <= 40
        sizes = [ball_size_vertex(h23, U, r) for r in range(41)]
        for r in range(5, 40):
            ratio = sizes[r + 1] / sizes[r]
            assert 1.0 < ratio < 2.0
        late = sizes[40] / sizes[39]
        assert abs(late - 1.5214) < 0.02


@pytest.mark.parametrize("rmax", [-1, -3])
def test_negative_radius(h23, rmax):
    with pytest.raises(graphs.GraphError, match="rmax must be >= 0"):
        layer_counts(h23, U, rmax)
