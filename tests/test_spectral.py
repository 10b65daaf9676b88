import math
import random
from collections import Counter

import pytest

from liftgirth import graphs, spectral
from liftgirth.graphs import GraphError
from liftgirth.lifts import build_lift
from liftgirth.spectral import (_EQUALITY_TOL, _TOL, avg_degree, lambda_ahl,
                                rho_lambda_equality, spectral_radius,
                                summarize)
from test_cover_tree import reference_nb_step
from test_graphs import dense_nb_matrix, reference_admissible
from test_lifts import random_two_lift

# edge-type quotients of the non-backtracking matrices, used as known
# small fixtures: H23 collapses to 3 directed edge types and K32 to 2
H23_QUOTIENT = [[0, 2, 1], [0, 0, 1], [1, 0, 0]]
K32_QUOTIENT = [[0, 1], [2, 0]]


def dense_radius(m, iters=3000):
    dim = len(m)
    x = [1.0] * dim
    lam = 0.0
    for _ in range(iters):
        y = [sum((row[j] + (i == j)) * x[j] for j in range(dim))
             for i, row in enumerate(m)]
        lam = max(abs(v) for v in y)
        x = [v / lam for v in y]
    return lam - 1.0


def reference_spectral_radius(h):
    """spectral_radius's power iteration on B + I with B applied by the
    dict step over a vector keyed in id order."""
    n = h.edge_count
    x = [1.0] * n
    it = 0
    while True:
        it += 1
        bx = reference_nb_step(h, dict(enumerate(x)))
        y = [x[i] + bx[i] for i in range(n)]
        norm = max(abs(v) for v in y)
        residual = max(abs(x[i] + bx[i] - norm * x[i]) for i in range(n)) \
            / max(abs(v) for v in x)
        x = [v / norm for v in y]
        if residual <= _TOL * norm:
            return norm - 1.0, it, residual


class TestRadius:
    def test_bit_for_bit_with_dict_step(self, h23, k32, petersen, k4me):
        """The column step keeps the float sums, so rho, the iteration
        count and the residual equal the dict step's exactly."""
        for h in (h23, k32, petersen, k4me):
            rho, iters, residual = spectral_radius(h)
            ref_rho, ref_iters, ref_residual = reference_spectral_radius(h)
            assert (rho.hex(), iters, residual.hex()) \
                == (ref_rho.hex(), ref_iters, ref_residual.hex())

    def test_h23(self, h23):
        rho, _, _ = spectral_radius(h23)
        assert abs(rho - 1.5214) < 1e-4

    def test_k32(self, k32):
        rho, _, _ = spectral_radius(k32)
        assert abs(rho - math.sqrt(2)) < 1e-9

    def test_regular(self, k4, petersen):
        for g, k in ((k4, 3), (petersen, 3), (graphs.complete_graph(5), 4)):
            rho, _, _ = spectral_radius(g)
            assert abs(rho - (k - 1)) < 1e-9

    def test_c4_permutation_like(self):
        c4 = graphs.cycle_graph(4)
        dense = dense_nb_matrix(c4)
        assert all(sum(row) == 1 for row in dense)
        assert abs(dense_radius(dense) - 1.0) < 1e-9
        # the matrix splits into the two directed cycles, which the Perron
        # power iteration cannot take: C4 is a cycle, so not admissible
        with pytest.raises(GraphError):
            spectral_radius(c4)
        # a single half-loop has the 1x1 zero matrix (and degree 1)
        with pytest.raises(GraphError):
            spectral_radius(graphs.MultiGraph.build(1, [("halfloop", 0)]))

    def test_quotient_fixtures_agree(self, h23, k32):
        for g, q in ((h23, H23_QUOTIENT), (k32, K32_QUOTIENT)):
            rho, _, _ = spectral_radius(g)
            assert abs(rho - dense_radius(q)) < 1e-6

    def test_residual_reported(self, h23):
        rho, iters, residual = spectral_radius(h23)
        assert iters >= 1 and residual < 1e-9

    def test_no_convergence_raises(self, h23, monkeypatch):
        # H23 needs 23 iterations
        monkeypatch.setattr(spectral, "_MAX_ITER", 1)
        with pytest.raises(GraphError, match="did not converge"):
            spectral_radius(h23)


class TestDegreeInvariants:
    def test_lambda_values(self, h23, k32, petersen):
        assert abs(lambda_ahl(h23) - 2 ** 0.6) < 1e-12
        assert abs(lambda_ahl(k32) - math.sqrt(2)) < 1e-12
        assert abs(lambda_ahl(petersen) - 2.0) < 1e-12

    def test_avg_degree(self, h23, k32, k4):
        assert avg_degree(h23) == 2.5
        assert avg_degree(k32) == 2.4
        assert avg_degree(k4) == 3.0

    def test_chain_inequality(self, h23, k32, k4, petersen):
        for g in (h23, k32, k4, petersen):
            rho, _, _ = spectral_radius(g)
            lam = lambda_ahl(g)
            assert rho >= lam - 1e-9
            assert lam >= avg_degree(g) - 1 - 1e-9

    def test_lambda_needs_min_degree_two(self):
        path = graphs.MultiGraph.from_pairs(2, [(0, 1)])
        with pytest.raises(GraphError):
            lambda_ahl(path)


class TestEquality:
    def test_k32_equal(self, k32):
        assert rho_lambda_equality(k32)

    def test_h23_not_equal(self, h23):
        assert not rho_lambda_equality(h23)
        rho, _, _ = spectral_radius(h23)
        assert rho > lambda_ahl(h23)

    def test_regular_equal(self, k4, petersen):
        for g in (k4, petersen):
            assert rho_lambda_equality(g)

    def test_matches_chain_reference(self):
        rng = random.Random(21)
        kinds, answers = set(), Counter()
        checked = 0
        while checked < 3000:
            h = random_chain_graph(rng)
            if not graphs.admissible(h):
                continue
            checked += 1
            equal = rho_lambda_equality(h)
            assert equal == reference_rho_lambda_equality(h)
            answers[equal] += 1
            kinds |= edge_kinds(h)
        assert min(answers[True], answers[False]) >= 500
        assert kinds == {"half", "whole", "parallel", "chain"}


def reference_chains(h):
    """Maximal non-backtracking paths whose internal vertices have degree
    two and whose endpoints are branch vertices (degree > 2), one per
    direction pair: (edges, vertices)."""
    seen = set()
    for start in range(h.edge_count):
        if h.degree(h.tail[start]) <= 2:
            continue
        edges = [start]
        e = start
        while h.degree(h.head[e]) == 2:
            v = h.head[e]
            e = next(f for f in h.out[v] if f != h.inv[e])
            edges.append(e)
        key = min(tuple(edges), tuple(h.inv[e] for e in reversed(edges)))
        if key in seen:
            continue
        seen.add(key)
        vertices = [h.tail[start]] + [h.head[e] for e in edges]
        yield tuple(edges), tuple(vertices)


def reference_rho_lambda_equality(h):
    """rho_lambda_equality as the product of (deg v - 1) over every vertex
    of each chain, inner ones included."""
    lam = lambda_ahl(h)
    for edges, vertices in reference_chains(h):
        prod = 1.0
        for v in vertices:
            prod *= h.degree(v) - 1
        if abs(prod ** (1.0 / (2 * len(edges))) - lam) > _EQUALITY_TOL:
            return False
    return True


def random_chain_graph(rng):
    """Branch vertices of degree 3-6, regular, bipartite biregular or
    irregular, joined by random stub pairing (whole-loops, half-loops and
    parallel pairs), then edges and half-loops subdivided into degree-two
    chains, all by the same number of vertices or each by its own; the
    regular and biregular bases with uniform chains have rho = Lambda.  May
    be disconnected."""
    shape = rng.choice(("regular", "biregular", "irregular"))
    if shape == "biregular":
        a, b, p, q = rng.choice([(a, b, p, q) for a in range(1, 5)
                                 for b in range(1, 5) for p in range(3, 7)
                                 for q in range(3, 7) if a * p == b * q])
        left = [v for v in range(a) for _ in range(p)]
        right = [v for v in range(a, a + b) for _ in range(q)]
        rng.shuffle(right)
        ends = list(zip(left, right))
        nv = a + b
    else:
        nv = rng.randint(1, 4)
        k = rng.randint(3, 5)
        stubs = [v for v in range(nv)
                 for _ in range(k if shape == "regular"
                                else rng.randint(3, 5))]
        rng.shuffle(stubs)
        halves = rng.choice((len(stubs) % 2, len(stubs) % 2 + 2))
        ends = [(v,) for v in stubs[:halves]]
        ends += list(zip(stubs[halves::2], stubs[halves + 1::2]))
    uniform = rng.choice((None, 0, 1, 2))
    directives = []
    for pair in ends:
        inner = rng.randint(0, 2) if uniform is None else uniform
        path = [pair[0], *range(nv, nv + inner)]
        nv += inner
        directives += [("edge", x, y) for x, y in zip(path, path[1:])]
        if len(pair) == 2:
            directives.append(("edge", path[-1], pair[1]))
        else:
            directives.append(("halfloop", path[-1]))
    rng.shuffle(directives)
    return graphs.MultiGraph.build(nv, directives)


def edge_kinds(h):
    """The kinds among half-loops, whole-loops, parallel pairs and
    degree-two vertices that h has."""
    kinds = set()
    ends = Counter()
    for e in h.undirected_edges():
        if h.is_half_loop(e):
            kinds.add("half")
        elif h.is_loop(e):
            kinds.add("whole")
        else:
            ends[frozenset((h.tail[e], h.head[e]))] += 1
    if max(ends.values(), default=0) > 1:
        kinds.add("parallel")
    if 2 in h.degrees():
        kinds.add("chain")
    return kinds


class TestIrreducibility:
    def test_fixtures(self, h23, k4):
        for h, expected in ((h23, True), (k4, True),
                            (graphs.cycle_graph(6), False)):
            assert graphs.admissible(h) == reference_admissible(h) == expected

    def test_radius_beyond_admissible(self):
        """spectral_radius refuses every inadmissible base, also the two
        where B is one cyclic permutation, so irreducible (its refusals of
        C4 and of one half-loop are in TestRadius)."""
        build = graphs.MultiGraph.build
        for h in (build(1, [("halfloop", 0), ("halfloop", 0)]),
                  build(2, [("halfloop", 0), ("edge", 0, 1),
                            ("halfloop", 1)])):
            assert not graphs.admissible(h)
            with pytest.raises(GraphError, match="admissible"):
                spectral_radius(h)

    def test_agrees_with_admissibility(self):
        # random multigraphs with half-loops, whole-loops, parallel edges
        # and isolated vertices, against the reading of B; spectral_radius
        # converges on each admissible one, to rho >= Lambda (Alon, Hoory
        # and Linial), and refuses the others
        rng = random.Random(8)
        seen = set()
        for _ in range(2000):
            nv = rng.randint(1, 5)
            directives = [("edge", rng.randrange(nv), rng.randrange(nv))
                          for _ in range(rng.randint(0, 7))]
            directives += [("wholeloop", rng.randrange(nv))
                           for _ in range(rng.randint(0, 2))]
            directives += [("halfloop", rng.randrange(nv))
                           for _ in range(rng.randint(0, 3))]
            rng.shuffle(directives)
            h = graphs.MultiGraph.build(nv, directives)
            admissible = graphs.admissible(h)
            assert reference_admissible(h) == admissible
            seen.add(admissible)
            if admissible:
                rho, _, residual = spectral_radius(h)
                assert residual <= _TOL * (rho + 1)
                assert rho >= lambda_ahl(h) - 1e-9
            else:
                with pytest.raises(GraphError):
                    spectral_radius(h)
        assert seen == {False, True}

    def test_summarize_rejects_cycle(self):
        with pytest.raises(GraphError):
            summarize(graphs.cycle_graph(6))


class TestAHLInequality:
    def test_walk_counts_dominate_lambda_power(self, h23, k32, petersen):
        for g in (h23, k32, petersen):
            b = dense_nb_matrix(g)
            lam = lambda_ahl(g)
            x = [1] * len(b)
            for r in range(1, 21):
                x = [sum(bfe * xe for bfe, xe in zip(row, x)) for row in b]
                assert sum(x) / len(b) >= lam ** r - 1e-9


class TestLiftInvariance:
    def test_rho_constant_along_lifts(self, k4me):
        rho0, _, _ = spectral_radius(k4me)
        rng = random.Random(31)
        g = k4me
        for _ in range(5):  # heights 2, 4, 8, 16, 32 over the start graph
            g = random_two_lift(g, rng)
            rho, _, _ = spectral_radius(g)
            assert abs(rho - rho0) < 1e-6

    def test_h23_two_lift_matches_base(self, h23, k4me):
        rho_base, _, _ = spectral_radius(h23)
        rho_lift, _, _ = spectral_radius(k4me)
        assert abs(rho_base - rho_lift) < 1e-6


class TestSummary:
    def test_h23_summary(self, h23):
        s = summarize(h23)
        assert abs(s.rho - 1.5214) < 1e-4
        assert abs(s.lam - 2 ** 0.6) < 1e-9
        assert s.avg_degree_minus_one == 1.5
        assert not s.equality_rho_lambda

    def test_k32_summary(self, k32):
        s = summarize(k32)
        assert abs(s.rho - math.sqrt(2)) < 1e-9
        assert s.equality_rho_lambda
        assert abs(s.avg_degree_minus_one - 1.4) < 1e-12


@pytest.mark.parametrize("pairs", [[(0, 1), (1, 2), (2, 0)],
                                   [(0, 1), (1, 2), (2, 0), (2, 3)]])
def test_equality_needs_an_admissible_base(pairs):
    """A cycle (no branch vertex) and a triangle with a pendant vertex."""
    h = graphs.MultiGraph.from_pairs(1 + max(map(max, pairs)), pairs)
    with pytest.raises(GraphError, match="needs an admissible graph"):
        rho_lambda_equality(h)
