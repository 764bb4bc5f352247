"""Serialization for the multi-process executor: shipping user functions
and graphs to worker processes.

FLASH kernels take arbitrary Python callables — usually closures defined
inside the algorithm driver, capturing the engine, subsets, constants and
helper functions.  Plain ``pickle`` cannot ship those (closures have no
importable name), so :func:`dump_payload` pickles with two extensions:

* **functions by value** — non-importable functions are encoded as their
  marshalled code object plus defaults, closure cell values and the
  subset of module globals the code references (collected recursively
  through nested code objects).  Functions that *write* to captured
  driver variables (``nonlocal``) are rejected at ship time with
  :class:`~repro.errors.DistributedShipError`: the write would mutate a
  worker-local cell invisibly to the driver.
* **driver-object substitution** — engine, graph, subsets and tracers
  reachable from a shipped function are replaced by persistent-id tokens
  that the worker resolves against its own session (worker-local engine
  proxy, the shared graph, a rebuilt subset, the no-op tracer).

Only the user functions of a kernel request go through this pickler;
the request's ids, edge mode and temps ride the plain wire pickle, so
the per-object :meth:`_ShippingPickler.persistent_id` callback runs a
number of times that does not grow with the graph.

Graphs ship once per (pool, graph) through
:mod:`multiprocessing.shared_memory` where available: the CSR arrays,
weights and edge endpoints are packed into one segment that every worker
maps read-only, so the graph is never copied per worker.  A pickle
fallback covers platforms without ``/dev/shm``.
"""

from __future__ import annotations

import dis
import functools
import importlib
import io
import marshal
import pickle
import sys
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.subset import VertexSubset
from repro.errors import DistributedShipError

#: Module roots whose functions are shipped by reference (importable in
#: any worker).  Everything else — test modules, ``__main__``, notebooks
#: — ships by value, so drivers defined anywhere still work.
_BY_REF_ROOTS = frozenset({"repro", "numpy"}) | set(
    getattr(sys, "stdlib_module_names", ())
)


def _lookup_qualname(module: str, qualname: str) -> Any:
    try:
        obj: Any = sys.modules.get(module) or importlib.import_module(module)
    except Exception:
        return None
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _importable_by_ref(fn: types.FunctionType) -> bool:
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        return False
    if module.split(".")[0] not in _BY_REF_ROOTS:
        return False
    return _lookup_qualname(module, qualname) is fn


def _nested_codes(code: types.CodeType) -> List[types.CodeType]:
    """``code`` plus every code object reachable through its constants."""
    out = [code]
    stack = [code]
    while stack:
        for const in stack.pop().co_consts:
            if isinstance(const, types.CodeType):
                out.append(const)
                stack.append(const)
    return out


def closure_writes(fn: types.FunctionType) -> List[str]:
    """Names of captured (free) variables the function writes to —
    ``nonlocal`` assignments, detected from the bytecode of the function
    and its nested functions."""
    free = set(fn.__code__.co_freevars)
    if not free:
        return []
    written = set()
    for code in _nested_codes(fn.__code__):
        for ins in dis.get_instructions(code):
            if ins.opname in ("STORE_DEREF", "DELETE_DEREF") and ins.argval in free:
                written.add(ins.argval)
    return sorted(written)


def _referenced_globals(fn: types.FunctionType) -> Dict[str, Any]:
    """The subset of the function's module globals its code (including
    nested code objects) references by name."""
    fn_globals = fn.__globals__
    out: Dict[str, Any] = {}
    for code in _nested_codes(fn.__code__):
        for name in code.co_names:
            if name in fn_globals and name not in out:
                out[name] = fn_globals[name]
    return out


def _rebuild_function(code_blob: bytes, name: str, module: str) -> types.FunctionType:
    """Worker-side twin of the by-value function encoding: a skeleton
    function with *empty* closure cells and globals.  Cell values,
    defaults and referenced globals arrive via :func:`_fill_function` —
    the two-phase split lets the pickler memoize the function before its
    captured state is serialized, which is what makes self-referential
    closures (recursive inner functions like kclique's ``counting``)
    round-trip instead of recursing forever."""
    import builtins

    code = marshal.loads(code_blob)
    fn_globals: Dict[str, Any] = {"__builtins__": builtins, "__name__": module}
    closure = tuple(types.CellType() for _ in code.co_freevars) or None
    return types.FunctionType(code, fn_globals, name, None, closure)


def _fill_function(fn: types.FunctionType, state: tuple) -> types.FunctionType:
    """Apply the captured state of a by-value function (pickle
    ``state_setter`` — runs after the skeleton is memoized)."""
    defaults, kwdefaults, cell_values, globs = state
    fn.__defaults__ = defaults
    if kwdefaults:
        fn.__kwdefaults__ = kwdefaults
    if cell_values is not None:
        for cell, (filled, value) in zip(fn.__closure__ or (), cell_values):
            if filled:
                cell.cell_contents = value
    fn.__globals__.update(globs)
    return fn


#: Types :meth:`_ShippingPickler.persistent_id` passes straight to plain
#: pickle: the bulk of a payload (captured constants, containers).
_PLAIN_TYPES = frozenset(
    {int, float, bool, str, bytes, tuple, list, dict, set, frozenset, type(None)}
)


@functools.lru_cache(maxsize=None)
def _token_types() -> Tuple[Tuple[type, str], ...]:
    """``(class, token)`` for the driver objects shipped as a token,
    resolved on first use: this module is imported by the worker before
    any engine exists, and must not create import cycles."""
    from repro.core.engine import FlashEngine
    from repro.graph.graph import Graph
    from repro.runtime.flashware import Flashware
    from repro.runtime.tracing import Tracer

    return (
        (FlashEngine, "engine"),
        (Flashware, "flashware"),
        (Graph, "graph"),
        (Tracer, "tracer"),
    )


class _ShippingPickler(pickle.Pickler):
    """Pickler with driver-object substitution and by-value functions."""

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._tokens = _token_types()

    def persistent_id(self, obj: Any):
        # Called for every object pickled, so plain values leave first.
        if type(obj) in _PLAIN_TYPES:
            return None
        for cls, token in self._tokens:
            if isinstance(obj, cls):
                return (token,)
        if isinstance(obj, VertexSubset):
            # the ids as one array: a persistent id's elements are
            # pickled one by one, so a tuple costs a callback per id
            return ("subset", obj.as_array())
        if isinstance(obj, types.ModuleType):
            return ("module", obj.__name__)
        return None

    def reducer_override(self, obj: Any):
        if isinstance(obj, types.FunctionType):
            if _importable_by_ref(obj):
                return NotImplemented  # plain by-reference pickle
            written = closure_writes(obj)
            if written:
                raise DistributedShipError(
                    f"user function {obj.__qualname__!r} writes to captured "
                    f"driver variable(s) {written}: a 'nonlocal' write inside "
                    f"a kernel would mutate worker-local state invisibly to "
                    f"the driver process.  Communicate through vertex "
                    f"properties (or engine.collect) instead."
                )
            closure_cells = None
            if obj.__closure__:
                cells = []
                for cell in obj.__closure__:
                    try:
                        cells.append((True, cell.cell_contents))
                    except ValueError:  # empty cell
                        cells.append((False, None))
                closure_cells = tuple(cells)
            # Six-element reduce: captured state rides in the *state*
            # slot (with _fill_function as setter) so it is pickled after
            # the skeleton is memoized — self-referential closures and
            # recursive globals then hit the memo instead of recursing.
            return (
                _rebuild_function,
                (
                    marshal.dumps(obj.__code__),
                    obj.__name__,
                    getattr(obj, "__module__", None) or "shipped",
                ),
                (
                    obj.__defaults__,
                    obj.__kwdefaults__,
                    closure_cells,
                    _referenced_globals(obj),
                ),
                None,
                None,
                _fill_function,
            )
        return NotImplemented


class _ShippingUnpickler(pickle.Unpickler):
    """Worker-side unpickler resolving substitution tokens against one
    worker session (see :class:`repro.runtime.distributed.worker`)."""

    def __init__(self, file, session):
        super().__init__(file)
        self._session = session

    def persistent_load(self, pid):
        from repro.runtime.tracing import NULL_TRACER

        kind = pid[0]
        if kind == "engine":
            return self._session.proxy
        if kind == "flashware":
            return self._session.proxy.flashware
        if kind == "graph":
            return self._session.graph
        if kind == "subset":
            return VertexSubset(self._session.proxy, pid[1])
        if kind == "tracer":
            return NULL_TRACER
        if kind == "module":
            return importlib.import_module(pid[1])
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def dump_payload(obj: Any) -> bytes:
    """Serialize a kernel payload (user functions + captured context) for
    shipping to workers."""
    buf = io.BytesIO()
    try:
        _ShippingPickler(buf).dump(obj)
    except DistributedShipError:
        raise
    except Exception as exc:
        raise DistributedShipError(
            f"cannot ship kernel payload to workers: {exc!r}.  Kernel "
            f"functions must only capture picklable driver state."
        ) from exc
    return buf.getvalue()


def load_payload(data: bytes, session) -> Any:
    """Worker-side inverse of :func:`dump_payload`."""
    return _ShippingUnpickler(io.BytesIO(data), session).load()


# ----------------------------------------------------------------------
# Graph shipping (shared memory with a pickle fallback)
# ----------------------------------------------------------------------
def _graph_arrays(graph) -> Dict[str, np.ndarray]:
    """The NumPy arrays a worker needs to rebuild the graph."""
    edges = graph.edges()
    src = np.fromiter((e[0] for e in edges), dtype=np.int64, count=len(edges))
    dst = np.fromiter((e[1] for e in edges), dtype=np.int64, count=len(edges))
    arrays = {
        "out_indptr": graph.out_csr.indptr,
        "out_indices": graph.out_csr.indices,
        "out_arc_ids": graph.out_csr.arc_ids,
        "src": src,
        "dst": dst,
    }
    if graph.directed:
        arrays["in_indptr"] = graph.in_csr.indptr
        arrays["in_indices"] = graph.in_csr.indices
        arrays["in_arc_ids"] = graph.in_csr.arc_ids
    if graph.weighted:
        arrays["weights"] = np.asarray(graph.arc_weights(
            np.arange(graph.num_edges, dtype=np.int64)
        ), dtype=np.float64)
    return arrays


def export_graph(graph) -> Tuple[Dict[str, Any], Optional[Any]]:
    """Pack a graph for shipping.

    Returns ``(meta, shm)``: ``meta`` is a picklable description; when
    shared memory is available the array payload lives in the returned
    ``SharedMemory`` segment (``meta["shm"]`` holds its name) which the
    caller must keep alive and eventually ``unlink()``; otherwise the raw
    bytes ride inside ``meta["blobs"]`` (pickle fallback).
    """
    arrays = _graph_arrays(graph)
    meta: Dict[str, Any] = {
        "n": graph.num_vertices,
        "directed": graph.directed,
        "weighted": graph.weighted,
        "layout": [],
    }
    total = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        arrays[name] = arr
        meta["layout"].append((name, arr.dtype.str, arr.shape, total))
        total += arr.nbytes
    try:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
    except Exception:
        meta["blobs"] = {name: arr.tobytes() for name, arr in arrays.items()}
        return meta, None
    for (name, _dtype, _shape, offset) in meta["layout"]:
        arr = arrays[name]
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=offset)
        view[:] = arr
    meta["shm"] = shm.name
    return meta, shm


def import_graph(meta: Dict[str, Any]) -> Tuple[Any, Optional[Any]]:
    """Worker-side inverse of :func:`export_graph`.

    Returns ``(graph, shm)``; the caller must keep ``shm`` (if not None)
    referenced as long as the graph is in use.
    """
    from repro.graph.csr import CSR
    from repro.graph.graph import Graph

    arrays: Dict[str, np.ndarray] = {}
    shm = None
    if "shm" in meta:
        from multiprocessing import shared_memory

        # Attaching re-registers the segment with the resource tracker
        # (CPython < 3.13 has no track= parameter), but workers share the
        # parent's tracker process and its cache is a set, so the
        # duplicate registration is harmless; the parent's unlink() is
        # the single deregistration.
        shm = shared_memory.SharedMemory(name=meta["shm"])
        for (name, dtype, shape, offset) in meta["layout"]:
            arrays[name] = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset
            )
    else:
        for (name, dtype, shape, _offset) in meta["layout"]:
            arrays[name] = np.frombuffer(
                meta["blobs"][name], dtype=np.dtype(dtype)
            ).reshape(shape)

    graph = Graph.__new__(Graph)
    graph._num_vertices = meta["n"]
    graph._directed = meta["directed"]
    graph._weights = arrays.get("weights") if meta["weighted"] else None
    graph._edges = list(zip(arrays["src"].tolist(), arrays["dst"].tolist()))
    out = CSR(arrays["out_indptr"], arrays["out_indices"], arrays["out_arc_ids"])
    graph._out = out
    if meta["directed"]:
        graph._in = CSR(arrays["in_indptr"], arrays["in_indices"], arrays["in_arc_ids"])
    else:
        graph._in = out
    return graph, shm
