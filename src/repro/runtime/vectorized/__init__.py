"""Vectorized (NumPy columnar) execution tier.

This package is the second execution backend underneath
:class:`~repro.core.engine.FlashEngine`, over the same dtype-inferred
NumPy property columns (:class:`~repro.runtime.state.VertexState`)
every engine holds:

* :mod:`~repro.runtime.vectorized.specs` — declarative kernel specs that
  algorithms attach to ``vertex_map``/``edge_map`` calls;
* :mod:`~repro.runtime.vectorized.kernels` — the one set of push/pull
  EDGEMAP and VERTEXMAP kernels (``min``/``max``/``sum``/``or``/``last``
  reductions), accounting-equivalent to the interpreted path, written as
  folds over arc batches;
* :mod:`~repro.runtime.vectorized.arcs` — the arc-source seam those
  kernels read arcs through: the resident CSR here, the block store in
  :mod:`repro.runtime.oocore`;
* :mod:`~repro.runtime.vectorized.dispatch` — the backend names
  (selected per engine through :class:`~repro.core.config.EngineConfig`).

Any superstep whose spec cannot be applied (non-``E`` edge sets, a
property demoted to an object column, a missing spec) transparently falls
back to the interpreted path — results and metrics are identical either
way.
"""

from repro.runtime.vectorized.dispatch import BACKENDS
from repro.runtime.vectorized.specs import NOT_SET, EdgeMapSpec, VertexMapSpec

__all__ = [
    "BACKENDS",
    "EdgeMapSpec",
    "NOT_SET",
    "VertexMapSpec",
]
