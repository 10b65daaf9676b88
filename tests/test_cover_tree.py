import random

import pytest

from liftgirth import graphs
from liftgirth.construct import high_girth_cover
from liftgirth.cover_tree import (ball_size_edge_two_sided, ball_size_vertex,
                                  layer_counts)
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
