"""Girth bounds and small high-girth lifts of base multigraphs.

`import liftgirth` loads no submodule; each name is imported from its
submodule (`from liftgirth.graphs import girth`), and each CLI command
loads only the submodules it runs.
"""

__version__ = "0.1.0"
