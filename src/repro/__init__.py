"""repro: reproduction of "High Performance Parallel Graph Coloring on
GPGPUs" (Li et al., IPPS 2016).

Speculative-greedy graph coloring in topology-driven and data-driven GPU
formulations, executed functionally in NumPy and priced on a simulated
Kepler-class GPGPU (see DESIGN.md for the hardware-substitution rationale).

Quickstart::

    from repro import color_graph, rmat_er
    g = rmat_er(scale=14)
    result = color_graph(g, method="data-ldg")
    print(result.summary())
"""

from .coloring import (
    EVALUATED_SCHEMES,
    SCHEMES,
    ColoringResult,
    color_graph,
    scheme_options,
)
from .distributed import Topology, color_distributed
from .engine import ExecutionContext, RunConfig, color_many
from .graph import CSRGraph, from_edges
from .graph.generators import load_graph, load_suite, rmat_er, rmat_g, rmat_graph
from .obs import Tracer
from .parallel import ColorJob, JobFailure, ResultCache, color_sharded

__version__ = "1.0.0"

__all__ = [
    "CSRGraph",
    "ColorJob",
    "ColoringResult",
    "EVALUATED_SCHEMES",
    "ExecutionContext",
    "JobFailure",
    "ResultCache",
    "RunConfig",
    "SCHEMES",
    "Topology",
    "Tracer",
    "__version__",
    "color_distributed",
    "color_graph",
    "color_many",
    "color_sharded",
    "from_edges",
    "load_graph",
    "load_suite",
    "rmat_er",
    "rmat_g",
    "rmat_graph",
    "scheme_options",
]
