"""repro — a from-scratch reproduction of

    FLASH: A Framework for Programming Distributed Graph Processing
    Algorithms (Li et al., ICDE 2023)

The package provides the FLASH programming model
(:class:`~repro.core.engine.FlashEngine` with ``vertex_map`` /
``edge_map`` over :class:`~repro.core.subset.VertexSubset`), the
FLASHWARE simulated-distributed middleware, the paper's 14 evaluation
applications (plus optimized variants) in :mod:`repro.algorithms`, and
from-scratch implementations of the four baseline frameworks (Pregel+,
PowerGraph/GAS, Gemini, Ligra) in :mod:`repro.baselines`.

Quickstart::

    from repro import FlashEngine, load_dataset
    from repro.algorithms import bfs

    graph = load_dataset("OR", scale=0.2)
    result = bfs(graph, root=0, num_workers=4)
    print(result.values[:10], result.engine.metrics.summary())
"""

from repro.core import (
    CTRUE,
    DSU,
    EngineConfig,
    FlashEngine,
    VertexSubset,
    bind,
    ctrue,
    current_config,
    edges_from,
    join,
    reverse,
    use_config,
)
from repro.errors import FlashUsageError, InexpressibleError, ReproError
from repro.graph import (
    Graph,
    load_dataset,
    random_graph,
    road_network,
    social_network,
    web_graph,
)
from repro.runtime import ClusterSpec, CostModel, FlashwareOptions

__version__ = "0.1.0"

__all__ = [
    "CTRUE",
    "ClusterSpec",
    "CostModel",
    "DSU",
    "EngineConfig",
    "FlashEngine",
    "FlashUsageError",
    "FlashwareOptions",
    "Graph",
    "InexpressibleError",
    "ReproError",
    "VertexSubset",
    "bind",
    "ctrue",
    "current_config",
    "edges_from",
    "join",
    "load_dataset",
    "random_graph",
    "reverse",
    "road_network",
    "social_network",
    "use_config",
    "web_graph",
]
