"""One engine configuration: the frozen record every engine resolves once.

An :class:`EngineConfig` holds every setting a
:class:`~repro.core.engine.FlashEngine` runs under.  The ambient record
lives in one :class:`~contextvars.ContextVar`, scoped by
:func:`use_config`, so engines built where no keyword reaches them
inherit it and a scope on one thread never leaks into another::

    with use_config(backend="vectorized", num_workers=2):
        result = bfs(graph, root=0)

An engine layers its keywords over :func:`current_config` (or the record
it is handed) at construction and never reads the ambient record again.
Every invalid setting raises :class:`~repro.errors.FlashUsageError`.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterator, Optional

from repro.errors import FlashUsageError
from repro.runtime.vectorized.dispatch import BACKENDS

if TYPE_CHECKING:
    from repro.runtime.flashware import FlashwareOptions
    from repro.runtime.tracing import Tracer

EXECUTORS = ("inline", "mp")


@dataclass(frozen=True)
class EngineConfig:
    """Every setting of one engine (``FlashEngine`` keywords of the same
    names; docs/programming_model.md lists what each one does).

    ``dense_threshold=None`` is Ligra's ``|arcs| / 20``, ``tracer=None``
    the no-op tracer, and ``oocore_*=None`` the out-of-core defaults of
    :mod:`repro.graph.blocks`."""

    num_workers: int = 4
    options: Optional[FlashwareOptions] = None
    dense_threshold: Optional[int] = None
    partition_strategy: str = "hash"
    backend: str = "interp"
    executor: str = "inline"
    tracer: Optional[Tracer] = None
    oocore_budget: Optional[int] = None
    oocore_interval: Optional[int] = None
    oocore_dir: Optional[str] = None

    def __post_init__(self) -> None:
        for kind, name, allowed in (("backend", self.backend, BACKENDS),
                                    ("executor", self.executor, EXECUTORS)):
            if name not in allowed:
                raise FlashUsageError(
                    f"unknown {kind} {name!r}; expected one of {', '.join(allowed)}"
                )
        if self.executor == "mp":
            if self.num_workers < 2:
                raise FlashUsageError(
                    "executor='mp' needs at least 2 workers: a ClusterSpec with "
                    "nodes=1 (or num_workers=1) has no partitions to distribute "
                    "over — use executor='inline' for single-process runs"
                )
            if self.backend != "interp":
                raise FlashUsageError(
                    "executor='mp' runs the interpreted kernels on the worker "
                    f"processes; backend must be 'interp', not {self.backend!r}"
                )

    def override(self, **fields) -> "EngineConfig":
        """This record with each field not passed as ``None`` replaced."""
        for name in fields.keys() - self.__dataclass_fields__:
            if name not in _RETIRED or fields.pop(name) != _RETIRED[name]:
                raise FlashUsageError(f"unknown or removed engine setting {name!r} (every "
                                      "engine runs the static pass and kernel compiler)")
        given = {name: value for name, value in fields.items() if value is not None}
        return replace(self, **given) if given else self


#: Removed settings the frozen benchmark (``perf/``) still passes, accepted only at
#: the value that is now the one behaviour; they go when its definition drops them.
_RETIRED = {"auto_analyze": True, "analysis": "static", "remote_promotion": True}

_CONFIG: ContextVar[EngineConfig] = ContextVar("repro_engine_config", default=EngineConfig())


def current_config() -> EngineConfig:
    """The ambient record new engines layer their keywords over."""
    return _CONFIG.get()


@contextmanager
def use_config(base: Optional[EngineConfig] = None, /, **fields) -> Iterator[EngineConfig]:
    """Scope the ambient record: ``base`` (default: the current record)
    with each field not passed as ``None`` replaced.  Under an enabled
    tracer a backend change is marked on the trace timeline (a
    ``backend.switch`` instant)."""
    prev = _CONFIG.get()
    config = (prev if base is None else base).override(**fields)
    tracer = config.tracer
    if tracer is not None and tracer.enabled and config.backend != prev.backend:
        tracer.instant("backend.switch", "dispatch", to=config.backend, was=prev.backend)
    token = _CONFIG.set(config)
    try:
        yield config
    finally:
        _CONFIG.reset(token)
