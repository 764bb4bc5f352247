"""The FLASH programming model (paper §III).

Public surface:

* :class:`~repro.core.engine.FlashEngine` — owns the graph, the vertex
  properties and the FLASHWARE middleware; exposes the three primary
  primitives ``vertex_map`` / ``edge_map`` (+ explicit ``edge_map_dense``
  / ``edge_map_sparse``) and ``size``;
* :class:`~repro.core.subset.VertexSubset` — the global-perspective
  vertex-set type with ``union``/``minus``/``intersect``/``add``/
  ``contain``;
* :mod:`~repro.core.edgeset` — edge-set constructors ``E`` (via
  ``engine.E``), ``reverse``, ``join`` (two-hop, target-filtered and
  property/virtual edges) and ``edges_from``;
* ``ctrue`` and ``bind`` — the default condition function and the
  global-variable binder from the paper's listings;
* :class:`~repro.core.dsu.DSU` — the pre-defined disjoint-set helper
  used by BCC and MSF;
* :class:`~repro.core.config.EngineConfig` — every engine setting in
  one frozen record, scoped ambiently by ``use_config`` and read by
  ``current_config``.
"""

from repro.core.config import EngineConfig, current_config, use_config
from repro.core.dsu import DSU
from repro.core.edgeset import (
    EdgeSet,
    edges_from,
    join,
    reverse,
)
from repro.core.engine import FlashEngine
from repro.core.primitives import CTRUE, bind, ctrue
from repro.core.subset import VertexSubset
from repro.core.vertex import VertexView

__all__ = [
    "DSU",
    "EdgeSet",
    "EngineConfig",
    "FlashEngine",
    "VertexSubset",
    "VertexView",
    "CTRUE",
    "bind",
    "ctrue",
    "current_config",
    "edges_from",
    "join",
    "reverse",
    "use_config",
]
