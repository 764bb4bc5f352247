"""Process-wide backend selection.

The engine picks its execution backend at construction time
(``FlashEngine(..., backend=...)``).  Algorithms that build nested
engines internally (BC, SCC, BCC build sub-engines per phase) inherit
the ambient default instead, which callers set with
:func:`use_backend`::

    with use_backend("vectorized"):
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
    and block-size knobs are scoped with
    :func:`repro.runtime.oocore.use_oocore`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

BACKENDS = ("interp", "vectorized", "oocore")

_default_backend = "interp"


def validate_backend(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {', '.join(BACKENDS)}"
        )
    return name


def default_backend() -> str:
    """The backend new engines use when none is passed explicitly."""
    return _default_backend


@contextmanager
def use_backend(name: str) -> Iterator[str]:
    """Temporarily change the default backend for engines constructed
    inside the ``with`` block (including engines nested inside
    algorithms).  Under an active ambient tracer the switch is marked
    on the trace timeline (a ``backend.switch`` instant), so a trace
    shows which portions of a run executed under which default."""
    from repro.runtime.tracing import current_tracer

    global _default_backend
    validate_backend(name)
    prev = _default_backend
    _default_backend = name
    tracer = current_tracer()
    if tracer.enabled and name != prev:
        tracer.instant("backend.switch", "dispatch", to=name, was=prev)
    try:
        yield name
    finally:
        _default_backend = prev
