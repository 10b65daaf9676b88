import itertools

import networkx as nx
import pytest

from liftgirth.graphs import GraphError, girth, is_connected, k4_minus_edge
from liftgirth.lifts import verify_cover
from liftgirth.search import (PermLiftH23, SearchCounter, canonical_enumerate,
                              certify_lower_bound, minimum_size)


def to_nx(g):
    gx = nx.MultiGraph()
    gx.add_nodes_from(range(g.vertex_count))
    gx.add_edges_from((g.tail[e], g.head[e]) for e in g.undirected_edges())
    return gx


def iso_classes(lifts):
    """One networkx graph per isomorphism class among the lifts' graphs."""
    classes = []
    for lift in lifts:
        gx = to_nx(lift.graph_and_cover()[0])
        if not any(nx.is_isomorphic(gx, seen) for seen in classes):
            classes.append(gx)
    return classes


def fpf_involutions(elements):
    """All fixed-point-free involutions of the given list, as image maps."""
    elements = list(elements)
    if not elements:
        yield {}
        return
    first = elements[0]
    for j in elements[1:]:
        rest = [x for x in elements[1:] if x != j]
        for sub in fpf_involutions(rest):
            sub = dict(sub)
            sub[first], sub[j] = j, first
            yield sub


def brute_class_count(n, g):
    """All (sigma2, mu) pairs, filtered and deduped by isomorphism."""
    classes = []
    for sigma2 in itertools.permutations(range(n)):
        for mu_map in fpf_involutions(range(n)):
            mu = tuple(mu_map[i] for i in range(n))
            graph, _ = PermLiftH23(n, sigma2, mu).graph_and_cover()
            if girth(graph) < g or not is_connected(graph):
                continue
            gx = to_nx(graph)
            if not any(nx.is_isomorphic(gx, seen) for seen in classes):
                classes.append(gx)
    return len(classes)


class TestPermLift:
    def test_k4_minus_edge(self):
        lift = PermLiftH23(2, (1, 0), (1, 0))
        graph, cover = lift.graph_and_cover()
        assert graph.vertex_count == 4 and girth(graph) == 3
        assert nx.is_isomorphic(to_nx(graph), to_nx(k4_minus_edge()))

    def test_covers_base(self):
        lift = PermLiftH23(4, (1, 2, 3, 0), (1, 0, 3, 2))
        graph, cover = lift.graph_and_cover()
        assert verify_cover(graph, lift.assignment().base, cover)

    def test_mu_must_be_fpf_involution(self):
        with pytest.raises(GraphError):
            PermLiftH23(2, (0, 1), (0, 1)).assignment()


class TestEnumeration:
    def test_n2_g3_single_class(self):
        classes = iso_classes(canonical_enumerate(2, 3))
        assert len(classes) == 1
        assert nx.is_isomorphic(classes[0], to_nx(k4_minus_edge()))

    def test_n4_g5_nonempty(self):
        assert list(canonical_enumerate(4, 5))

    def test_n8_g7_empty(self):
        assert not list(canonical_enumerate(8, 7))

    def test_yields_valid_lifts(self):
        for lift in canonical_enumerate(6, 5):
            graph, cover = lift.graph_and_cover()
            assert girth(graph) >= 5 and is_connected(graph)
            assert verify_cover(graph, lift.assignment().base, cover)

    def test_matches_brute_force(self):
        for n in (2, 4):
            for g in range(3, n + 3):
                mine = len(iso_classes(canonical_enumerate(n, g)))
                assert mine == brute_class_count(n, g), (n, g)

    def test_counter_records_nodes(self):
        counter = SearchCounter()
        list(canonical_enumerate(4, 5, counter))
        assert counter.nodes > 0


class TestMinimumSize:
    def test_known_minima(self):
        expected = {3: 4, 4: 8, 5: 8, 6: 12, 7: 20, 8: 20, 9: 28}
        for g, size in expected.items():
            out = minimum_size(g, 16)
            assert out.resolved and out.size == size, g
            graph, cover = out.witness.graph_and_cover()
            assert girth(graph) >= g and is_connected(graph)
            assert verify_cover(graph, out.witness.assignment().base, cover)

    def test_monotone_in_g(self):
        sizes = [minimum_size(g, 16).size for g in range(3, 10)]
        assert sizes == sorted(sizes)

    def test_unresolved(self):
        out = minimum_size(9, 12)
        assert not out.resolved and out.size is None


class TestCertificates:
    def test_refutations(self):
        for g, n in ((7, 8), (9, 12)):
            cert = certify_lower_bound(g, n)
            assert cert.refuted and cert.counterexample is None
            assert cert.line() == f"g,{g},refuted_up_to,{n},nodes,{cert.nodes}"

    def test_counterexample_when_not_refuted(self):
        cert = certify_lower_bound(6, 8)
        assert not cert.refuted
        graph, _ = cert.counterexample.graph_and_cover()
        assert girth(graph) >= 6 and graph.vertex_count <= 16
