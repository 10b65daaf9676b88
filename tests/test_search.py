import hashlib
import itertools
import random

import networkx as nx
import pytest

from liftgirth.graphs import (GraphError, bfs, diameter, girth, h23,
                              is_connected, k4_minus_edge, serialize_graph)
from liftgirth.lifts import (LiftAssignment, _perm_inverse, build_lift,
                             verify_cover)
from liftgirth.search import (SearchCounter, _partitions,
                              _sigma_from_partition, canonical_enumerate,
                              certify_lower_bound, members, minimum_size,
                              orbit_partners, pairing_tables)
from test_construct import h23_cover_map
from test_graphs import to_nx


H23 = h23()


def h23_lift(n, sigma2, mu):
    """The height-n lift of H23 with sigma1 the identity, as the search
    builds it."""
    ident = tuple(range(n))
    return LiftAssignment(H23, n,
                          [ident, ident, _perm_inverse(sigma2), sigma2, mu])


def iso_classes(n, pairs):
    """One networkx graph per isomorphism class among the graphs of the
    height-n lifts given as (sigma2, mu) pairs.  Only graphs with the same
    multiset of per-vertex distance multisets are compared."""
    buckets = {}
    for sigma2, mu in pairs:
        graph = build_lift(h23_lift(n, sigma2, mu))[0]
        key = tuple(sorted(tuple(sorted(bfs(graph.adj, v)))
                           for v in range(graph.vertex_count)))
        bucket = buckets.setdefault(key, [])
        gx = to_nx(graph)
        if not any(nx.is_isomorphic(gx, seen) for seen in bucket):
            bucket.append(gx)
    return [gx for bucket in buckets.values() for gx in bucket]


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


def centralizer_generators(parts, paired=()):
    """Generators of the part of the centralizer of the canonical
    partition permutation that fixes every paired vertex: one rotation
    per untouched cycle (no paired vertex) plus swaps of consecutive
    untouched cycles of equal length.  With none paired, the
    centralizer."""
    n = sum(parts)
    gens = []
    base = 0
    last = {}         # length -> base of the last untouched such cycle
    for length in parts:
        if not any(base <= x < base + length for x in paired):
            rot = list(range(n))
            for k in range(length):
                rot[base + k] = base + (k + 1) % length
            gens.append(tuple(rot))
            if length in last:
                swap = list(range(n))
                for k in range(length):
                    swap[last[length] + k], swap[base + k] = \
                        base + k, last[length] + k
                gens.append(tuple(swap))
            last[length] = base
        base += length
    return gens


def partner_orbits(gens, n, i):
    """The partners j != i of i, grouped by the orbit of the unordered
    pair {i, j} under the group gens generate, by closing each orbit
    under the generators; in order of their smallest j."""
    orbits = []
    seen = set()
    for j in range(n):
        if j == i or j in seen:
            continue
        frontier = [(min(i, j), max(i, j))]
        orbit = set(frontier)
        while frontier:
            a, b = frontier.pop()
            for gperm in gens:
                img = (min(gperm[a], gperm[b]), max(gperm[a], gperm[b]))
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        partners = {a + b - i for a, b in orbit if i in (a, b)}
        seen |= partners
        orbits.append(partners)
    return orbits


def orbit_first_pair_reps(parts):
    """The smallest j of each centralizer orbit of the unordered pair
    {0, j}, in increasing order."""
    return [min(orbit) for orbit in
            partner_orbits(centralizer_generators(parts), sum(parts), 0)]


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

    def test_orbit_partners_match_orbits(self):
        """One kept partner per orbit of the legal pairs {i, j}, for
        seeded random paired vertices, i and legal partners (a union of
        orbits, as the girth condition is invariant); at the root, the
        legal members of orbit_first_pair_reps."""
        rng = random.Random(18)
        for n in range(1, 17):
            for parts in _partitions(n, 1):
                for p in (0.1, 0.3, 0.6):
                    paired = {x for x in range(n) if rng.random() < p}
                    if len(paired) == n:
                        continue
                    i = rng.choice(sorted(set(range(n)) - paired))
                    orbits = partner_orbits(
                        centralizer_generators(parts, paired), n, i)
                    chosen = [rng.random() < 0.7 for _ in orbits]
                    legal = sum(1 << j for orbit, pick in zip(orbits, chosen)
                                if pick for j in orbit)
                    unpaired = (1 << n) - 1 - sum(1 << x for x in paired)
                    kept = orbit_partners(parts, unpaired, i, legal)
                    assert kept & ~legal == 0, (parts, paired, i)
                    assert [sum(kept >> j & 1 for j in orbit)
                            for orbit in orbits] == chosen, \
                        (parts, paired, i)
        # at the root first-fail picks vertex 0
        for g in range(3, 12):
            for n in range(2, 17, 2):
                for parts in _partitions(n, (g + 1) // 2):
                    ball = pairing_tables(tuple(parts), g - 2)[0]
                    legal = [(1 << n) - 1 & ~ball[x] for x in range(n)]
                    assert min(range(n),
                               key=lambda x: legal[x].bit_count()) == 0
                    kept = orbit_partners(parts, (1 << n) - 1, 0, legal[0])
                    assert members(kept) == [
                        j for j in orbit_first_pair_reps(parts)
                        if legal[0] >> j & 1], (g, parts)

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
            connected = [(s, m) for s, m, ok in leaves if ok]
            assert len(set(pairs)) == len(pairs), g
            assert set(pairs) <= set(connected), g
            # checking every lift costs ~11 s at n = 12, where the subset
            # of the reference already covers girth and connectivity
            for sigma2, mu in pairs if n <= 10 else pairs[::4]:
                check_search_lift(h23_lift(n, sigma2, mu), n, g)
            # the class counts where they take under a second; the others
            # (n = 10, g <= 6; n = 12, g <= 7) take from one second to
            # minutes each
            if n <= 8 or g >= {10: 7, 12: 8}[n]:
                assert len(iso_classes(n, pairs)) == \
                    len(iso_classes(n, connected)), g
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
        (10, 40, 32, 75, "92c4182aac55f8caa626d9dba0fdf269"
                         "b4ccaad2954d12083b921e123f2c02e5"),
        (11, 40, 48, 2002, "cdf7b4ccc0b3b540d1a63883affebfbd"
                           "81c07d0a6e3bd296f172ecba47f00b2a"),
        (12, 30, 52, 4980, "5b7dca3e83c9e8892c2f1df4a26bbbda"
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

    # the height-38 witness of n(H23, 13) = 76: sigma2 is i -> i + 1 mod 38
    G13_SIGMA2 = tuple((i + 1) % 38 for i in range(38))
    G13_MU = (6, 16, 33, 28, 10, 20, 0, 13, 34, 23, 4, 17, 31, 7, 27, 22, 1,
              11, 35, 26, 5, 30, 15, 9, 37, 32, 19, 14, 3, 36, 21, 12, 25, 2,
              8, 18, 29, 24)

    def test_g13_minimum_witness(self):
        """n(H23, 13) = 76.  `search --g 13 --max-n 38 --certify` refutes
        every height up to 36 and then returns this height-38 lift, after
        8,108,387 nodes (minutes, so the run is not repeated here); the
        sha256 is that of its `--out` file."""
        lift = h23_lift(38, self.G13_SIGMA2, self.G13_MU)
        check_search_lift(lift, 38, 13)
        graph, _ = build_lift(lift)
        assert graph.vertex_count == 76 and girth(graph) == 13
        assert verify_cover(graph, H23, h23_cover_map(graph))
        assert hashlib.sha256(serialize_graph(graph).encode()).hexdigest() \
            == ("eb6b3e81f22e4c6ca92b467e55ddc720"
                "c8c1cb5f410bacd701f322dfbc290705")

    def test_g13_witness_is_the_first_leaf_at_height_38(self):
        """The search's own run at height 38: its first cycle type, one
        38-cycle, yields the pinned witness after 150,744 nodes."""
        counter = SearchCounter()
        assert next(canonical_enumerate(38, 13, counter)) \
            == (self.G13_SIGMA2, self.G13_MU)
        assert counter.nodes == 150744

    # a height-50 lift of girth 14: n(H23, 14) <= 100, found by a seeded
    # restart search (frames of canonical_enumerate on the type [50], kept
    # partners shuffled by Random(1), 50,000 nodes per restart) on its
    # restart 155; no CLI command reproduces that search
    G14_SIGMA2 = tuple((i + 1) % 50 for i in range(50))
    G14_MU = (7, 13, 18, 26, 44, 22, 30, 0, 38, 45, 32, 21, 42, 1, 46, 23,
              36, 31, 2, 39, 48, 11, 5, 15, 40, 33, 3, 37, 47, 41, 6, 17, 10,
              25, 49, 43, 16, 27, 8, 19, 24, 29, 12, 35, 4, 9, 14, 28, 20, 34)

    def test_g14_witness_on_100_vertices(self):
        """n(H23, 14) <= 100: the pinned height-50 lift is connected, has
        girth 14 and diameter 10, and check_search_lift (build_lift's map)
        and h23_cover_map both give a cover map verify_cover accepts."""
        lift = h23_lift(50, self.G14_SIGMA2, self.G14_MU)
        check_search_lift(lift, 50, 14)
        graph, _ = build_lift(lift)
        assert graph.vertex_count == 100 and girth(graph) == 14
        assert diameter(graph) == 10
        assert verify_cover(graph, H23, h23_cover_map(graph))
        assert hashlib.sha256(serialize_graph(graph).encode()).hexdigest() \
            == ("dd108d68e0f115b056d106f9c7d45999"
                "471f03d82954acaff7de1b505e87f6ed")


class TestCertificates:
    def test_refutations(self):
        for g, n, nodes in ((7, 8, 6), (9, 12, 13), (11, 22, 1905)):
            cert = certify_lower_bound(g, n)
            assert cert.witness is None and cert.nodes == nodes

    def test_g13_refuted_to_height_30(self):
        # n(H23, 13) >= 64: no lift of height <= 30 (60 vertices, the
        # Moore bound) has girth 13
        cert = certify_lower_bound(13, 30)
        assert cert.witness is None and cert.nodes == 13012

    def test_counterexample_when_not_refuted(self):
        cert = certify_lower_bound(6, 8)
        assert (cert.size, cert.nodes) == (12, 3)
        graph, _ = build_lift(cert.witness)
        assert girth(graph) >= 6 and graph.vertex_count == 12


@pytest.mark.parametrize("n, g", [(4, 2), (2, 1), (5, 3), (7, 5)])
def test_nothing_to_enumerate(n, g):
    """g < 3 is refused, and an odd height, where mu would need a fixed
    point, yields no lift and tries no pair."""
    counter = SearchCounter()
    if g < 3:
        with pytest.raises(GraphError, match="g must be >= 3"):
            list(canonical_enumerate(n, g, counter))
    else:
        assert list(canonical_enumerate(n, g, counter)) == []
    assert counter.nodes == 0
