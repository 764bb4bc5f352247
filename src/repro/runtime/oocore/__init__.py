"""Out-of-core block execution backend (``backend="oocore"``).

Streams the graph's arcs from memory-mapped edge-block shards (see
:mod:`repro.graph.blocks`) through the columnar kernels of
:mod:`repro.runtime.vectorized.kernels`, one batch per block — the same
code the vectorized backend runs over the resident CSR, so results and
charged accounting are bit-identical — while keeping only O(|V|) vertex
columns resident.
"""

from repro.runtime.oocore.runtime import OocoreRuntime

__all__ = ["OocoreRuntime"]
