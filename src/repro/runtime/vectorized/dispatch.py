"""The execution backends an engine can run its supersteps on.

An engine picks its backend once, at construction: the ``backend``
keyword layered over the ambient
:class:`~repro.core.config.EngineConfig`.  Algorithms that build their
engine internally inherit the ambient record, which callers scope with
:func:`~repro.core.config.use_config`::

    with use_config(backend="vectorized"):
        result = bfs(graph, root=0)

Backends
--------
``interp``
    The per-vertex interpreted kernels (pure Python) on every superstep.
``vectorized``
    Vectorized kernels for supersteps that carry a matching spec;
    everything else falls back to the interpreted kernels within the
    same run.  Every backend holds the same typed column store.
``oocore``
    Out-of-core block execution: only vertex columns stay resident and
    edge blocks stream from memory-mapped block files through the
    same columnar kernels, one batch per block (bit-identical to
    ``vectorized``).
    Kernels without a spec fall back to the interpreted path — over
    block-paged adjacency when the graph itself is out of core.  Budget
    and block-size knobs are the ``oocore_*`` settings of the same
    record.
"""

BACKENDS = ("interp", "vectorized", "oocore")
