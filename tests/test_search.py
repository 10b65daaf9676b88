import hashlib
import itertools

import networkx as nx
import pytest

from liftgirth.graphs import (GraphError, bfs, girth, h23, is_connected,
                              k4_minus_edge, serialize_graph)
from liftgirth.lifts import (LiftAssignment, _perm_inverse, build_lift,
                             verify_cover)
from liftgirth.search import (SearchCounter, _first_pair_reps, _partitions,
                              _sigma_from_partition, canonical_enumerate,
                              certify_lower_bound, minimum_size)


def to_nx(g):
    gx = nx.MultiGraph()
    gx.add_nodes_from(range(g.vertex_count))
    gx.add_edges_from((g.tail[e], g.head[e]) for e in g.undirected_edges())
    return gx


def h23_lift(n, sigma2, mu):
    """The height-n lift of H23 with sigma1 the identity, as the search
    builds it."""
    ident = tuple(range(n))
    return LiftAssignment(h23(), n,
                          [ident, ident, _perm_inverse(sigma2), sigma2, mu])


def iso_classes(n, pairs):
    """One networkx graph per isomorphism class among the graphs of the
    height-n lifts given as (sigma2, mu) pairs."""
    classes = []
    for sigma2, mu in pairs:
        gx = to_nx(build_lift(h23_lift(n, sigma2, mu))[0])
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
            graph, _ = build_lift(h23_lift(n, sigma2, mu))
            if girth(graph) < g or not is_connected(graph):
                continue
            gx = to_nx(graph)
            if not any(nx.is_isomorphic(gx, seen) for seen in classes):
                classes.append(gx)
    return len(classes)


def cycle_type(perm):
    """The cycle lengths of perm, non-increasing."""
    seen = set()
    lengths = []
    for start in range(len(perm)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = perm[x]
            length += 1
        if length:
            lengths.append(length)
    return sorted(lengths, reverse=True)


def centralizer_generators(parts):
    """Generators of the centralizer of the canonical partition
    permutation: one rotation per cycle plus swaps of adjacent
    equal-length cycle blocks."""
    n = sum(parts)
    gens = []
    base = 0
    blocks = []
    for length in parts:
        blocks.append((base, length))
        rot = list(range(n))
        for k in range(length):
            rot[base + k] = base + (k + 1) % length
        gens.append(tuple(rot))
        base += length
    for (b1, l1), (b2, l2) in zip(blocks, blocks[1:]):
        if l1 == l2:
            swap = list(range(n))
            for k in range(l1):
                swap[b1 + k], swap[b2 + k] = b2 + k, b1 + k
            gens.append(tuple(swap))
    return gens


def orbit_first_pair_reps(parts):
    """Reference for search._first_pair_reps: the smallest j of each
    centralizer orbit of the unordered pair {0, j}, by closing the orbit
    under the generators."""
    n = sum(parts)
    gens = centralizer_generators(parts)
    reps = []
    seen = set()
    for j in range(1, n):
        if j in seen:
            continue
        reps.append(j)
        frontier = [(0, j)]
        orbit = {(0, j)}
        while frontier:
            a, b = frontier.pop()
            for gperm in gens:
                img = (min(gperm[a], gperm[b]), max(gperm[a], gperm[b]))
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        for a, b in orbit:
            if a == 0:
                seen.add(b)
    return reps


def reference_enumerate(n, g):
    """Reference for search.canonical_enumerate: the enumerator it
    replaced.  Each frame pairs the first unpaired u-vertex i with every
    later unpaired j outside one bounded BFS ball from i, and the first
    pair comes from the orbit search.  Yields (sigma2, mu, connected) for
    every leaf, connected telling whether one BFS over the reference's own
    adj reaches every vertex."""
    for parts in _partitions(n, (g + 1) // 2):
        sigma2 = _sigma_from_partition(parts)
        adj = [[] for _ in range(2 * n)]
        for i in range(n):
            adj[i] += [n + i, n + sigma2[i]]
            adj[n + i].append(i)
            adj[n + sigma2[i]].append(i)
        first_reps = orbit_first_pair_reps(parts)
        mu = [-1] * n

        def extend(unpaired):
            if not unpaired:
                yield tuple(mu), -1 not in bfs(adj, 0)
                return
            i = unpaired[0]
            near = bfs(adj, i, g - 1)
            for j in first_reps if i == 0 else unpaired[1:]:
                if mu[j] >= 0 or j == i or near[j] >= 0:
                    continue
                mu[i], mu[j] = j, i
                adj[i].append(j)
                adj[j].append(i)
                yield from extend([x for x in unpaired if x not in (i, j)])
                adj[i].pop()
                adj[j].pop()
                mu[i] = mu[j] = -1

        for m, connected in extend(list(range(n))):
            yield sigma2, m, connected


def check_search_lift(lift, n, g):
    """The normal form the search promises (sigma1 the identity, sigma2
    canonical for its cycle type, mu a fixed-point-free involution), and a
    connected girth >= g cover of H23."""
    assert lift.height == n
    ident, ident2, inv_sigma2, sigma2, mu = lift.perms
    assert ident == ident2 == tuple(range(n))
    assert sigma2 == _sigma_from_partition(cycle_type(sigma2))
    assert inv_sigma2 == _perm_inverse(sigma2)
    assert all(mu[mu[i]] == i != mu[i] for i in range(n))
    graph, cover = build_lift(lift)
    assert girth(graph) >= g and is_connected(graph)
    assert verify_cover(graph, lift.base, cover)


class TestPermLift:
    def test_k4_minus_edge(self):
        graph, cover = build_lift(h23_lift(2, (1, 0), (1, 0)))
        assert graph.vertex_count == 4 and girth(graph) == 3
        assert nx.is_isomorphic(to_nx(graph), to_nx(k4_minus_edge()))

    def test_covers_base(self):
        lift = h23_lift(4, (1, 2, 3, 0), (1, 0, 3, 2))
        graph, cover = build_lift(lift)
        assert verify_cover(graph, lift.base, cover)


class TestEnumeration:
    def test_n2_g3_single_class(self):
        classes = iso_classes(2, canonical_enumerate(2, 3))
        assert len(classes) == 1
        assert nx.is_isomorphic(classes[0], to_nx(k4_minus_edge()))

    def test_n4_g5_nonempty(self):
        assert list(canonical_enumerate(4, 5))

    def test_n8_g7_empty(self):
        assert not list(canonical_enumerate(8, 7))

    def test_yields_valid_lifts(self):
        for n, g in ((4, 3), (6, 5), (8, 5), (10, 6)):
            pairs = list(canonical_enumerate(n, g))
            assert pairs, (n, g)
            for sigma2, mu in pairs:
                check_search_lift(h23_lift(n, sigma2, mu), n, g)

    def test_height_must_be_positive(self):
        with pytest.raises(GraphError):
            list(canonical_enumerate(0, 3))

    def test_first_pair_reps_match_orbits(self):
        for n in range(2, 25, 2):
            for parts in _partitions(n, 2):
                assert _first_pair_reps(parts) == \
                    orbit_first_pair_reps(parts), parts

    def test_matches_brute_force(self):
        for n in (2, 4):
            for g in range(3, n + 3):
                mine = len(iso_classes(n, canonical_enumerate(n, g)))
                assert mine == brute_class_count(n, g), (n, g)

    def test_counter_records_nodes(self):
        counter = SearchCounter()
        list(canonical_enumerate(4, 5, counter))
        assert counter.nodes == 2

    @pytest.mark.parametrize("n", range(2, 13, 2))
    def test_matches_per_candidate_reference(self, n):
        for g in range(3, 10):
            pairs = list(canonical_enumerate(n, g))
            leaves = list(reference_enumerate(n, g))
            assert len(set(pairs)) == len(pairs), g
            assert set(pairs) == {(s, m) for s, m, ok in leaves if ok}, g
            # building and checking every lift costs ~20 s at n = 12,
            # where the equality with the reference already covers girth
            # and connectivity
            for sigma2, mu in pairs if n <= 10 else pairs[::10]:
                check_search_lift(h23_lift(n, sigma2, mu), n, g)
            if n <= 10:
                # the BFS over adj agrees with the lift built as a graph;
                # building every leaf costs ~10 s at n = 12
                assert all(
                    ok == is_connected(build_lift(h23_lift(n, s, m))[0])
                    for s, m, ok in leaves), g


class TestMinimumSize:
    def test_known_minima(self):
        expected = {3: 4, 4: 8, 5: 8, 6: 12, 7: 20, 8: 20, 9: 28}
        for g, size in expected.items():
            out = minimum_size(g, 16)
            assert out.size == size, g
            check_search_lift(out.witness, size // 2, g)

    def test_monotone_in_g(self):
        sizes = [minimum_size(g, 16).size for g in range(3, 10)]
        assert sizes == sorted(sizes)

    def test_unresolved(self):
        out = minimum_size(9, 12)
        assert out.witness is None and out.size is None

    @pytest.mark.parametrize("g, n_max, size, nodes, sha", [
        (10, 40, 32, 106, "92c4182aac55f8caa626d9dba0fdf269"
                          "b4ccaad2954d12083b921e123f2c02e5"),
        (11, 40, 48, 4657, "cdf7b4ccc0b3b540d1a63883affebfbd"
                           "81c07d0a6e3bd296f172ecba47f00b2a"),
        (12, 30, 52, 14184, "5b7dca3e83c9e8892c2f1df4a26bbbda"
                            "d682b0d19f3ab408a94b819636579673"),
    ], ids=["g10", "g11", "g12"])
    def test_pinned_minima(self, g, n_max, size, nodes, sha):
        out = minimum_size(g, n_max)
        assert (out.size, out.nodes) == (size, nodes)
        graph, cover = build_lift(out.witness)
        assert hashlib.sha256(
            serialize_graph(graph).encode()).hexdigest() == sha
        assert girth(graph) == g and is_connected(graph)
        assert verify_cover(graph, out.witness.base, cover)


class TestCertificates:
    def test_refutations(self):
        for g, n, nodes in ((7, 8, 6), (9, 12, 13), (11, 22, 4560)):
            cert = certify_lower_bound(g, n)
            assert cert.witness is None and cert.nodes == nodes

    def test_g13_refuted_to_height_30(self):
        # n(H23, 13) >= 64: no lift of height <= 30 (60 vertices, the
        # Moore bound) has girth 13
        cert = certify_lower_bound(13, 30)
        assert cert.witness is None and cert.nodes == 67250

    def test_counterexample_when_not_refuted(self):
        cert = certify_lower_bound(6, 8)
        assert (cert.size, cert.nodes) == (12, 3)
        graph, _ = build_lift(cert.witness)
        assert girth(graph) >= 6 and graph.vertex_count == 12
