import pytest

from liftgirth import graphs
from liftgirth.bounds import (CSV_HEADER, ahl_moore_polynomial, bounds_table,
                              es_upper_bound, lift_size_step, moore_lift_bound,
                              spanning_tree, table_to_csv)
from liftgirth.cover_tree import layer_counts
from liftgirth.graphs import GraphError, MultiGraph
from liftgirth.spectral import lambda_ahl


class TestSpanningTree:
    def test_h23(self, h23):
        t = spanning_tree(h23)
        assert t.diam == 1 and t.g0 == 4
        assert len(t.tree_edges) == 1

    def test_tree_input_is_itself(self):
        path = MultiGraph.from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        t = spanning_tree(path)
        assert t.diam == 3
        assert len(t.tree_edges) == 3

    def test_k4_star(self, k4):
        t = spanning_tree(k4)
        assert t.diam == 2
        assert len(t.tree_edges) == 3


CHEAP_STEPS = 200_000   # heights up to which the stepping reference runs


def stepped_sizes(h, g, raw):
    """Reference for the closed forms: walk the admissible heights one at
    a time (even heights when a half-loop forces an involution, g >= 2)
    and return (smallest size >= raw, largest size <= raw or raw)."""
    has_half_loop = any(h.is_half_loop(e) for e in range(h.edge_count))
    step = 2 if has_half_loop and g >= 2 else 1
    nv = h.vertex_count
    n = step
    while n * nv < raw:
        n += step
    up = n * nv
    down = None
    n = step
    while n * nv <= raw:
        down = n * nv
        n += step
    return up, raw if down is None else down


def whole_loop_base():
    return MultiGraph.build(2, [("wholeloop", 0), ("edge", 0, 1),
                                ("edge", 0, 1), ("wholeloop", 1)])


class TestLiftSizeStep:
    def test_half_loop_base_even_heights(self, h23):
        assert lift_size_step(h23, 5) == 4

    def test_plain_base_all_heights(self, k4me):
        assert lift_size_step(k4me, 5) == 4

    def test_half_loop_free_below_girth_2(self, h23):
        assert lift_size_step(h23, 1) == 2

    @pytest.mark.parametrize("make", [graphs.h23, graphs.k32,
                                      graphs.k4_minus_edge, graphs.petersen,
                                      whole_loop_base],
                             ids=["h23", "k32", "k4me", "petersen",
                                  "whole_loop"])
    def test_closed_forms_match_stepping(self, make):
        h = make()
        tree = spanning_tree(h)
        es_checked = 0
        for g in range(3, 31):
            raw, adjusted = moore_lift_bound(h, g)
            if raw <= CHEAP_STEPS * h.vertex_count:
                assert adjusted == stepped_sizes(h, g, raw)[0]
            if g < tree.g0:
                continue
            radius = tree.d0(g)
            es_raw = 1 + min(sum(layer_counts(h, v, radius))
                             for v in range(h.vertex_count))
            if es_raw <= CHEAP_STEPS * h.vertex_count:
                assert es_upper_bound(h, g, tree) \
                    == stepped_sizes(h, g, es_raw)[1]
                es_checked += 1
        assert es_checked >= 1

    def test_pinned_g40(self, h23):
        assert es_upper_bound(h23, 40) == 214049460
        assert moore_lift_bound(h23, 40) == (18098, 18100)


class TestMooreBound:
    def test_h23_spot_values(self, h23):
        assert moore_lift_bound(h23, 5) == (8, 8)
        assert moore_lift_bound(h23, 7) == (14, 16)
        expected = {3: 4, 4: 8, 6: 12, 8: 20, 10: 32, 20: 272, 30: 2220}
        for g, adj in expected.items():
            assert moore_lift_bound(h23, g)[1] == adj

    def test_regular_base_classical_moore(self, petersen):
        raw, adjusted = moore_lift_bound(petersen, 5)
        assert raw == 10 and adjusted == 10

    def test_monotone_in_g(self, h23):
        vals = [moore_lift_bound(h23, g)[1] for g in range(3, 31)]
        assert vals == sorted(vals)


class TestESBound:
    def test_spot_values(self, h23):
        assert es_upper_bound(h23, 4) == 52
        assert es_upper_bound(h23, 7) == 200
        assert es_upper_bound(h23, 10) == 724

    def test_below_g0_rejected(self, h23):
        with pytest.raises(GraphError):
            es_upper_bound(h23, 3)

    def test_dominates_moore(self, h23):
        for g in range(4, 31):
            assert es_upper_bound(h23, g) >= moore_lift_bound(h23, g)[1]

    def test_feasible_size(self, h23):
        for g in range(4, 31):
            n = es_upper_bound(h23, g)
            assert n % 4 == 0  # even height times |V(H23)| = 2


class TestAHLPolynomial:
    def test_two_regular(self):
        # degree 2, i.e. x = 1: both geometric sums degenerate to g/2
        assert ahl_moore_polynomial(2.0, 6) == 6

    def test_petersen_value(self):
        # degree 3: (1+2+4) + (1+2), the classic bound met by Petersen
        assert ahl_moore_polynomial(3.0, 5) == 10

    def test_below_raw_moore(self, h23):
        val = ahl_moore_polynomial(lambda_ahl(h23) + 1, 13)
        assert val < moore_lift_bound(h23, 13)[0] == 60


class TestTable:
    def test_rows_and_csv(self, h23):
        rows = bounds_table(h23, 3, 22, best_known={3: 4, 12: 52})
        by_g = {r.g: r for r in rows}
        assert by_g[3].moore_adjusted == 4 and by_g[3].es_bound is None
        assert by_g[12].moore_adjusted == 48 and by_g[12].es_bound == 1684
        assert by_g[22].moore_adjusted == 412 and by_g[22].es_bound == 112260
        assert by_g[12].best_known == 52 and by_g[22].best_known is None
        csv = table_to_csv(rows)
        lines = csv.splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("3,4,4,,")
        assert lines[1].endswith(",4")
        assert len(lines) == 21
