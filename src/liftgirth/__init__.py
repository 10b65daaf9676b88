"""Girth bounds and small high-girth lifts of base multigraphs.

The public names load their module on first access (PEP 562), so
`import liftgirth` compiles none of the submodules and each CLI command
compiles only the ones it runs.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    **dict.fromkeys(("GraphError", "ParseError", "MultiGraph", "girth",
                     "diameter", "parse_graph", "serialize_graph", "h23",
                     "k32"), "graphs"),
    **dict.fromkeys(("LiftAssignment", "CoverMap", "build_lift",
                     "verify_cover"), "lifts"),
    **dict.fromkeys(("moore_lift_bound", "es_upper_bound", "bounds_table"),
                    "bounds"),
    **dict.fromkeys(("spectral_radius", "lambda_ahl", "summarize"),
                    "spectral"),
    **dict.fromkeys(("high_girth_cover", "es_construct", "greedy_cycle",
                     "grow"), "construct"),
    **dict.fromkeys(("minimum_size", "certify_lower_bound"), "search"),
}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
