"""Girth bounds and small high-girth lifts of base multigraphs."""

from .graphs import (GraphError, MultiGraph, ParseError, diameter, girth,
                     h23, k32, parse_graph, serialize_graph)
from .lifts import CoverMap, LiftAssignment, build_lift, verify_cover
from .bounds import bounds_table, es_upper_bound, moore_lift_bound
from .spectral import lambda_ahl, spectral_radius, summarize
from .construct import es_construct, greedy_cycle, grow, high_girth_cover
from .search import certify_lower_bound, minimum_size

__version__ = "0.1.0"

__all__ = [
    "GraphError", "ParseError", "MultiGraph", "girth", "diameter",
    "parse_graph", "serialize_graph", "h23", "k32",
    "LiftAssignment", "CoverMap", "build_lift", "verify_cover",
    "moore_lift_bound", "es_upper_bound", "bounds_table",
    "spectral_radius", "lambda_ahl", "summarize",
    "high_girth_cover", "es_construct", "greedy_cycle", "grow",
    "minimum_size", "certify_lower_bound",
    "__version__",
]
