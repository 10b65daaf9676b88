"""Property tests over generated multigraphs; skipped without hypothesis."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import networkx as nx

from liftgirth.graphs import (MultiGraph, admissible, is_connected,
                              parse_graph, serialize_graph)
from liftgirth.lifts import (CoverMap, LiftAssignment, build_lift,
                             parse_cover_map, serialize_cover_map,
                             verify_cover)
from test_graphs import (random_assignment, random_involution,
                         reference_admissible)
from test_lifts import assignment_from_cover

SETTINGS = hypothesis.settings(max_examples=200, deadline=None,
                               database=None)


@st.composite
def multigraphs(draw):
    """1-6 vertices with edges (a loop when both ends agree), whole-loops
    and half-loops; vertices no directive names stay isolated."""
    nv = draw(st.integers(1, 6))
    vertex = st.integers(0, nv - 1)
    directives = draw(st.lists(st.one_of(
        st.tuples(st.just("edge"), vertex, vertex),
        st.tuples(st.just("wholeloop"), vertex),
        st.tuples(st.just("halfloop"), vertex)), max_size=12))
    return MultiGraph.build(nv, directives)


def to_nx(g):
    """g as a networkx multigraph; networkx has no half-edges, so each
    vertex counts its half-loops in a `half` attribute."""
    gx = nx.MultiGraph()
    gx.add_nodes_from(range(g.vertex_count), half=0)
    for e in g.undirected_edges():
        if g.is_half_loop(e):
            gx.nodes[g.tail[e]]["half"] += 1
        else:
            gx.add_edge(g.tail[e], g.head[e])
    return gx


@SETTINGS
@hypothesis.given(multigraphs())
def test_admissible_reads_b(h):
    assert admissible(h) == reference_admissible(h)


@SETTINGS
@hypothesis.given(multigraphs())
def test_graph_text_round_trip(h):
    assert parse_graph(serialize_graph(h)) == h


# fewer examples: about half the draws miss the filter or the assume
@hypothesis.settings(SETTINGS, max_examples=100)
@hypothesis.given(multigraphs().filter(admissible), st.integers(1, 4),
                  st.randoms(use_true_random=False))
def test_cover_files_round_trip(h, n, rng):
    """A connected lift and its cover map, written and parsed back,
    still verify as a cover."""
    g, m = build_lift(random_assignment(h, n, rng, random_involution))
    hypothesis.assume(is_connected(g))
    g2 = parse_graph(serialize_graph(g))
    m2 = parse_cover_map(serialize_cover_map(m, g, h), g2, h)
    assert verify_cover(g2, h, m2)


@SETTINGS
@hypothesis.given(multigraphs(), st.integers(1, 3),
                  st.randoms(use_true_random=False))
def test_double_is_the_graph_level_two_lift(h, n, rng):
    a = random_assignment(h, n, rng, random_involution)
    g1 = build_lift(a)[0]
    flips = [False] * g1.edge_count
    for e in g1.undirected_edges():
        flips[e] = flips[g1.inv[e]] = rng.random() < 0.5
    g2 = build_lift(LiftAssignment.identity(g1, 1).double(flips))[0]
    assert nx.is_isomorphic(to_nx(build_lift(a.double(flips))[0]), to_nx(g2),
                            node_match=lambda x, y: x["half"] == y["half"])


@SETTINGS
@hypothesis.given(multigraphs(), st.integers(1, 4),
                  st.randoms(use_true_random=False))
def test_assignment_from_cover_round_trip(h, n, rng):
    """A lift with its vertex and edge ids shuffled, read back as an
    assignment and built again, is the same lift: relabel renames the
    vertices, and a lifted edge becomes the copy of its base edge in the
    layer of its tail."""
    g0, m0 = build_lift(random_assignment(h, n, rng, random_involution))
    pv = list(range(g0.vertex_count))
    pe = list(range(g0.edge_count))
    rng.shuffle(pv)
    rng.shuffle(pe)
    tail, head, inv = ([0] * g0.edge_count for _ in range(3))
    vmap, emap = [0] * g0.vertex_count, [0] * g0.edge_count
    for v in range(g0.vertex_count):
        vmap[pv[v]] = m0.vertex_map[v]
    for e in range(g0.edge_count):
        tail[pe[e]], head[pe[e]] = pv[g0.tail[e]], pv[g0.head[e]]
        inv[pe[e]], emap[pe[e]] = pe[g0.inv[e]], m0.edge_map[e]
    g = MultiGraph(g0.vertex_count, tail, head, inv)
    m = CoverMap(tuple(vmap), tuple(emap))

    a, relabel = assignment_from_cover(g, h, m)
    g2, m2 = build_lift(a)
    assert sorted(relabel) == list(range(g.vertex_count))
    nv, ne = h.vertex_count, h.edge_count
    edge = [relabel[g.tail[e]] // nv * ne + m.edge_map[e]
            for e in range(g.edge_count)]
    assert sorted(edge) == list(range(g.edge_count))
    for e, e2 in enumerate(edge):
        assert g2.tail[e2] == relabel[g.tail[e]]
        assert g2.head[e2] == relabel[g.head[e]]
        assert g2.inv[e2] == edge[g.inv[e]]
        assert m2.edge_map[e2] == m.edge_map[e]
    for v in range(g.vertex_count):
        assert m2.vertex_map[relabel[v]] == m.vertex_map[v]
