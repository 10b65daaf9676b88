import math
import random

import pytest

from liftgirth import graphs
from liftgirth.graphs import GraphError
from liftgirth.lifts import build_lift
from liftgirth.spectral import (avg_degree, lambda_ahl, rho_lambda_equality,
                                spectral_radius, summarize)
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


class TestRadius:
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
        # the matrix splits into the two directed cycles, so the Perron
        # power iteration refuses it
        with pytest.raises(GraphError):
            spectral_radius(c4)
        # a single half-loop has the 1x1 zero matrix, which is reducible
        with pytest.raises(GraphError):
            spectral_radius(graphs.MultiGraph.build(1, [("halfloop", 0)]))

    def test_quotient_fixtures_agree(self, h23, k32):
        for g, q in ((h23, H23_QUOTIENT), (k32, K32_QUOTIENT)):
            rho, _, _ = spectral_radius(g)
            assert abs(rho - dense_radius(q)) < 1e-6

    def test_residual_reported(self, h23):
        rho, iters, residual = spectral_radius(h23)
        assert iters >= 1 and residual < 1e-9


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
        equal, _ = rho_lambda_equality(k32)
        assert equal

    def test_h23_not_equal(self, h23):
        equal, _ = rho_lambda_equality(h23)
        assert not equal
        rho, _, _ = spectral_radius(h23)
        assert rho > lambda_ahl(h23)

    def test_regular_equal(self, k4, petersen):
        for g in (k4, petersen):
            equal, _ = rho_lambda_equality(g)
            assert equal


class TestIrreducibility:
    def test_fixtures(self, h23, k4):
        for h, expected in ((h23, True), (k4, True),
                            (graphs.cycle_graph(6), False)):
            assert graphs.admissible(h) == reference_admissible(h) == expected

    def test_radius_beyond_admissible(self):
        """spectral_radius checks B itself, so it accepts two inadmissible
        bases where B is one cyclic permutation (its refusals of C4 and of
        one half-loop are in TestRadius)."""
        build = graphs.MultiGraph.build
        for h in (build(1, [("halfloop", 0), ("halfloop", 0)]),
                  build(2, [("halfloop", 0), ("edge", 0, 1),
                            ("halfloop", 1)])):
            assert not graphs.admissible(h)
            assert spectral_radius(h)[0] == 1.0

    def test_agrees_with_admissibility(self):
        # random multigraphs with half-loops, whole-loops, parallel edges
        # and isolated vertices, against the reading of B
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
