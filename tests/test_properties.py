"""Property tests over generated multigraphs; skipped without hypothesis."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from liftgirth.graphs import MultiGraph, admissible
from test_graphs import reference_admissible


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


@hypothesis.settings(max_examples=200, deadline=None, database=None)
@hypothesis.given(multigraphs())
def test_admissible_reads_b(h):
    assert admissible(h) == reference_admissible(h)
