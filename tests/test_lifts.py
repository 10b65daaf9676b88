import random

import networkx as nx
import pytest

from liftgirth import graphs
from liftgirth.graphs import (GraphError, MultiGraph, ParseError, girth,
                              is_connected)
from liftgirth.lifts import (CoverMap, LiftAssignment, build_lift,
                             half_loop_elimination, normalize_tree_layers,
                             serialize_cover_map, parse_cover_map,
                             verify_cover)
from liftgirth.bounds import spanning_tree
from liftgirth.construct import cycles_of_length
from test_construct import relabel_layers
from test_graphs import random_assignment, random_involution, random_loopy_lift

IDENT = (0, 1)
SWAP = (1, 0)


def random_two_lift_assignment(g, rng):
    """Independent identity/swap choice per undirected edge (one choice per
    whole-loop; both S2 elements are involutions)."""
    for e in range(g.edge_count):
        if g.is_half_loop(e):
            raise GraphError(
                f"edge {e} is a half-loop; apply half_loop_elimination first")
    flips = [False] * g.edge_count
    for e in g.undirected_edges():
        flips[e] = flips[g.inv[e]] = rng.random() < 0.5
    return LiftAssignment.identity(g, 1).double(flips)


def random_two_lift(g, rng):
    return build_lift(random_two_lift_assignment(g, rng))[0]


def assignment_from_cover(g, h, m):
    """Express an arbitrary cover as a LiftAssignment over h.

    Fibers are labelled in increasing vertex-id order; edge fibers inherit
    the tail labelling.  Returns (assignment, relabel) where relabel maps
    each vertex of g to its (base vertex, layer) id in the rebuilt lift.
    """
    rep = verify_cover(g, h, m)
    if not rep.ok:
        raise GraphError(f"not a cover: {rep.violations[:3]}")
    n = g.vertex_count // h.vertex_count
    layer = [0] * g.vertex_count
    counter = [0] * h.vertex_count
    for v in range(g.vertex_count):
        b = m.vertex_map[v]
        layer[v] = counter[b]
        counter[b] += 1
    # lifted edge over base e leaving layer i of t(e): find it per vertex
    perms = [[None] * n for _ in range(h.edge_count)]
    for ge in range(g.edge_count):
        be = m.edge_map[ge]
        perms[be][layer[g.tail[ge]]] = layer[g.head[ge]]
    a = LiftAssignment(h, n, [tuple(p) for p in perms])
    relabel = tuple(layer[v] * h.vertex_count + m.vertex_map[v]
                    for v in range(g.vertex_count))
    return a, relabel


def to_nx(g):
    gx = nx.MultiGraph()
    gx.add_nodes_from(range(g.vertex_count))
    gx.add_edges_from((g.tail[e], g.head[e]) for e in g.undirected_edges())
    return gx


def h23_assignment(h, n, pa, pb, mu):
    """Perms for the two u-v pairs (directed 0->1) and the half-loop."""
    inv = lambda p: tuple(sorted(range(len(p)), key=p.__getitem__))
    return LiftAssignment(h, n, [pa, inv(pa), pb, inv(pb), mu])


class TestBuildLift:
    def test_height_one_identity(self, k32):
        a = LiftAssignment(k32, 1, [(0,)] * k32.edge_count)
        g, m = build_lift(a)
        assert g == k32
        assert verify_cover(g, k32, m)

    def test_k4_minus_edge_is_a_two_lift(self, h23, k4me):
        g, m = build_lift(h23_assignment(h23, 2, IDENT, SWAP, SWAP))
        assert g.vertex_count == 4 and girth(g) == 3
        assert nx.is_isomorphic(to_nx(g), to_nx(k4me))
        assert verify_cover(g, h23, m)

    def test_identity_pairs_double_the_edges(self, h23):
        # with identity on both u-v pairs the parallel edges survive
        g, m = build_lift(h23_assignment(h23, 2, IDENT, IDENT, SWAP))
        assert g.vertex_count == 4 and girth(g) == 2
        assert verify_cover(g, h23, m)

    def test_all_two_lifts_cover(self, h23):
        for pa in (IDENT, SWAP):
            for pb in (IDENT, SWAP):
                g, m = build_lift(h23_assignment(h23, 2, pa, pb, SWAP))
                assert verify_cover(g, h23, m)
                assert girth(g) >= girth(h23)

    def test_degrees_are_preserved(self, h23, rng):
        a = random_two_lift_assignment(graphs.k4_minus_edge(), rng)
        g, m = build_lift(a)
        for v in range(g.vertex_count):
            assert g.degree(v) == a.base.degree(m.vertex_map[v])

    def test_bad_assignment_rejected(self, h23):
        with pytest.raises(GraphError):
            # half-loop permutation must be an involution
            LiftAssignment(h23, 3, [(0, 1, 2), (0, 1, 2), (0, 1, 2),
                                    (0, 1, 2), (1, 2, 0)])


class TestVerifyCover:
    def test_identity_map_accepts(self, h23):
        m = CoverMap(tuple(range(2)), tuple(range(5)))
        assert verify_cover(h23, h23, m)

    def test_label_swap_rejected(self, h23):
        g, m = build_lift(h23_assignment(h23, 2, IDENT, SWAP, SWAP))
        flip = {0: 1, 1: 0}
        bad = CoverMap(tuple(flip[v] for v in m.vertex_map), m.edge_map)
        report = verify_cover(g, h23, bad)
        assert not report
        assert report.violations

    def test_wrong_fiber_sizes_rejected(self, h23):
        g, m = build_lift(h23_assignment(h23, 2, IDENT, SWAP, SWAP))
        vmap = list(m.vertex_map)
        vmap[0] = 1 - vmap[0]
        assert not verify_cover(g, h23, CoverMap(tuple(vmap), m.edge_map))


class TestTwoLifts:
    def test_identity_two_lift_disconnects(self, petersen):
        ident = tuple(IDENT for _ in range(petersen.edge_count))
        g, _ = build_lift(LiftAssignment(petersen, 2, list(ident)))
        assert not is_connected(g)
        assert g.vertex_count == 20

    def test_single_swap_on_cycle_doubles_it(self):
        c5 = graphs.cycle_graph(5)
        perms = [IDENT] * c5.edge_count
        perms[0] = perms[c5.inv[0]] = SWAP
        g, _ = build_lift(LiftAssignment(c5, 2, perms))
        assert is_connected(g) and girth(g) == 10

    def test_thousand_seeded_two_lifts(self, k4me):
        rng = random.Random(99)
        for _ in range(1000):
            a = random_two_lift_assignment(k4me, rng)
            g, m = build_lift(a)
            assert girth(g) >= 3
            assert verify_cover(g, k4me, m)

    def test_half_loop_base_rejected(self, h23, rng):
        with pytest.raises(GraphError):
            random_two_lift(h23, rng)

    def test_triangle_survival_rate(self, k4me):
        # each of the 2 triangles survives a uniform 2-lift with
        # probability 1/2, each survivor contributing 2 lifted triangles,
        # so the mean lifted census is 2; allow a wide 5 sigma band
        rng = random.Random(7)
        samples = 2000
        total = sum(len(cycles_of_length(random_two_lift(k4me, rng), 3))
                    for _ in range(samples))
        mean = total / samples
        assert abs(mean - 2.0) < 5 * 2.0 / samples ** 0.5


class TestHalfLoopElimination:
    def test_h23_output(self, h23):
        a = half_loop_elimination(h23)
        assert a.perms == (IDENT, IDENT, IDENT, IDENT, SWAP)
        g, m = build_lift(a)
        # identity on the parallel u-v pairs keeps them parallel, so the
        # result is a 4-vertex girth-2 multigraph (not K4 minus an edge)
        assert g.vertex_count == 4
        assert girth(g) == 2
        assert verify_cover(g, h23, m)

    def test_no_half_loops_gives_two_copies(self, k4me):
        g, _ = build_lift(half_loop_elimination(k4me))
        assert g.vertex_count == 8 and not is_connected(g)

    def test_two_half_loops_on_a_point(self):
        base = MultiGraph.build(1, [("halfloop", 0), ("halfloop", 0)])
        g, m = build_lift(half_loop_elimination(base))
        assert g.vertex_count == 2 and g.edge_count == 4
        assert girth(g) == 2
        assert verify_cover(g, base, m)


class TestCoverAlgebra:
    def test_double_is_a_two_lift_of_the_built_graph(self, h23, rng):
        a = h23_assignment(h23, 2, IDENT, SWAP, SWAP)
        for _ in range(3):
            g1, m1 = build_lift(a)
            a2 = random_two_lift_assignment(g1, rng)
            g2, m2 = build_lift(a2)
            a = a.double([p == SWAP for p in a2.perms])
            g, m = build_lift(a)
            # same ids as the graph-level 2-lift, projected through g1
            assert g == g2
            assert m.vertex_map == tuple(m1.vertex_map[v]
                                         for v in m2.vertex_map)
            assert m.edge_map == tuple(m1.edge_map[e] for e in m2.edge_map)
            assert verify_cover(g, h23, m)
        assert a.height == 16

    def test_assignment_round_trip(self, h23, rng):
        g, m = build_lift(h23_assignment(h23, 4, (1, 2, 3, 0),
                                         (2, 3, 0, 1), (1, 0, 3, 2)))
        a, relabel = assignment_from_cover(g, h23, m)
        g2, _ = build_lift(a)
        assert nx.is_isomorphic(to_nx(g), to_nx(g2))

    def test_relabel_preserves_cover(self, h23):
        a = h23_assignment(h23, 4, (1, 2, 3, 0), (2, 3, 0, 1), (1, 0, 3, 2))
        b = relabel_layers(a, (2, 0, 3, 1))
        g, m = build_lift(b)
        assert verify_cover(g, h23, m)

    def test_normalize_tree_layers(self, h23):
        a = h23_assignment(h23, 4, (1, 2, 3, 0), (2, 3, 0, 1), (1, 0, 3, 2))
        b = normalize_tree_layers(a, (0,))
        assert b.perms[0] == (0, 1, 2, 3)
        g1, _ = build_lift(a)
        g2, _ = build_lift(b)
        assert nx.is_isomorphic(to_nx(g1), to_nx(g2))

    def test_normalize_multi_edge_trees(self, k32, petersen, k4me):
        """Spanning trees of several edges, on fixtures and on a base
        with half-loops, whole-loops and parallel edges: every tree edge
        lifts by the identity and the lift keeps its shape."""
        loopy = random_loopy_lift(random.Random(43))
        rng = random.Random(5)
        for base in (k32, petersen, k4me, loopy):
            tree = spanning_tree(base).tree_edges
            assert len(tree) > 1
            for n in (2, 3, 5):
                a = random_assignment(base, n, rng, random_involution)
                b = normalize_tree_layers(a, tree)
                for e in tree:
                    assert b.perms[e] == b.perms[base.inv[e]] \
                        == tuple(range(n))
                g2, m2 = build_lift(b)
                assert verify_cover(g2, base, m2)
                assert nx.is_isomorphic(to_nx(build_lift(a)[0]), to_nx(g2))


class TestLiftFiles:
    def test_cover_map_round_trip(self, h23):
        g, m = build_lift(h23_assignment(h23, 2, IDENT, SWAP, SWAP))
        text = serialize_cover_map(m, g, h23)
        g2 = graphs.parse_graph(graphs.serialize_graph(g))
        m2 = parse_cover_map(text, g2, h23)
        assert verify_cover(g2, h23, m2)

    def test_cover_map_parse_errors(self, h23):
        g, m = build_lift(h23_assignment(h23, 2, IDENT, SWAP, SWAP))
        good = serialize_cover_map(m, g, h23)
        for bad in ("vmap 1 0 7\n",          # too many arguments
                    "vmap 1\n",              # too few
                    "vmap 1 x\n",            # not an integer
                    "vmap 9 0\n",            # vertex out of range
                    "emap 0 5\n",            # base edge out of range
                    "vamp 1 0\n"):           # unknown directive
            with pytest.raises(ParseError):
                parse_cover_map(good + bad, g, h23)
        with pytest.raises(ParseError):
            parse_cover_map(good.split("emap", 1)[0], g, h23)   # unmapped
