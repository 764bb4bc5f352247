"""The FLASH engine: primitives bound to a graph and its FLASHWARE.

A :class:`FlashEngine` owns one graph, its vertex properties, and a
:class:`~repro.runtime.flashware.Flashware` middleware instance.  It
exposes the paper's primary functions (§III-A) as methods:

* ``size(U)``
* ``vertex_map(U, F, M)``
* ``edge_map(U, H, F, M, C, R)`` — adaptively dense or sparse
* ``edge_map_dense(U, H, F, M, C)`` — the pull kernel (Algorithm 5)
* ``edge_map_sparse(U, H, F, M, C, R)`` — the push kernel (Algorithm 6)

plus the auxiliary pieces: ``V``/``E`` accessors, subset construction,
the FLASHWARE ``get`` for beyond-neighborhood reads, a ``collect``
gather (the paper's ``REDUCE`` auxiliary used by MSF/BCC), and DSU
helpers.  Every primitive call is one BSP superstep recorded in
``engine.metrics``.
"""

from __future__ import annotations

from operator import is_
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set,
)

import numpy as np

from repro.core.analysis import analyze, capturing
from repro.core import interp as _interp_loops
from repro.core.config import EngineConfig, current_config
from repro.core.dsu import DSU
from repro.core.primitives import fn_label
from repro.core.edgeset import BaseEdges, EdgeSet
from repro.core.subset import VertexSubset
from repro.core.vertex import RESERVED_ATTRIBUTES, VertexView
from repro.errors import FlashUsageError
from repro.graph.graph import Graph
from repro.runtime.cluster import ClusterSpec
from repro.runtime.costmodel import CostBreakdown, CostModel
from repro.runtime.flashware import Flashware
from repro.runtime.metrics import Metrics
from repro.runtime.tracing import Tracer
from repro.runtime.vectorized.arcs import ResidentArcs
from repro.runtime.vectorized.kernels import ColumnarKernels
from repro.runtime.vectorized.specs import EdgeMapSpec, VertexMapSpec

VertexFn = Callable[..., Any]


class _TracedDSU(DSU):
    """DSU variant handed out by ``engine.dsu()`` under an active
    tracer: each successful ``union`` emits a ``dsu_union`` instant so
    union-find work (BCC, MSF) shows up on the trace timeline."""

    __slots__ = ("_tracer",)

    def __init__(self, n: int, tracer: Tracer):
        super().__init__(n)
        self._tracer = tracer

    def union(self, x: int, y: int) -> bool:
        merged = super().union(x, y)
        if merged:
            self._tracer.instant(
                "dsu_union", "dsu", x=int(x), y=int(y),
                components=self.num_components,
            )
        return merged


class _RemoteGetView(VertexView):
    """View returned by ``engine.get``: reading a property through it can
    touch an arbitrary (possibly remote) vertex, so the property must be
    kept consistent on mirrors — it is promoted to critical on first use
    (the ahead-of-time code generator would reach the same verdict from
    the ``get`` call site).

    The static pass (:mod:`repro.analysis.staticpass`) reaches the same
    verdict ahead of time for ``get`` calls inside kernel user functions,
    so inside a kernel of an analyzable program this runtime promotion is
    a safety net that never fires.  Each promotion it performs inside a
    superstep is a diagnostic (forwarded to any program capture), which is
    how ``tests/test_static_parity.py`` proves the static sets complete.
    Driver code between supersteps (BCC's cycle walk) makes reads no
    kernel verdict covers; they promote without one."""

    __slots__ = ()

    def __getattr__(self, name: str) -> Any:
        value = super().__getattr__(name)
        engine = self._engine
        fw = engine.flashware
        if not fw.is_critical(name) and fw.state.has_property(name):
            fw.mark_critical([name])
            if fw._current is not None:
                engine.note_diagnostic(
                    f"runtime promotion: engine.get read {name!r} inside "
                    f"{fw._current.kind}:{fw._current.label or '-'}, which no "
                    "static verdict had marked critical", unsound=True,
                )
        return value


class _KernelPlan(NamedTuple):
    """One kernel's superstep-invariant decisions, made once by the full
    path (spec resolution, static analysis, spec validation).  ``key`` is
    what it was built from — F, M, C, R, the hand spec, the edge set's
    type and ``within_graph`` — compared by identity, never by value."""

    key: tuple
    spec: Any
    origin: Optional[str]
    reason: Optional[str]  # why no synthesized spec (``repro plan``)
    critical: FrozenSet[str]
    attribution: Dict[str, str]  # the superstep span's mode and F/M/C/R
    entry: Dict[str, Any]  # the kernel's ``kernel_plan`` entry


class FlashEngine:
    """Execution engine for FLASH programs over one graph."""

    def __init__(
        self, graph: Graph, config: Optional[EngineConfig] = None, **overrides: Any
    ):
        """``config`` (default: the ambient record, :func:`current_config`)
        with each ``overrides`` field not passed as ``None`` replaced —
        resolved once; an unknown field raises :class:`FlashUsageError`."""
        self.graph = graph
        cfg = (current_config() if config is None else config).override(**overrides)
        self.config: EngineConfig = cfg
        self.executor = cfg.executor
        self.backend = cfg.backend
        flashware_cls = Flashware
        if cfg.executor == "mp":
            from repro.runtime.distributed.executor import DistributedFlashware

            flashware_cls = DistributedFlashware
        self.flashware: Flashware = flashware_cls(
            graph,
            cfg.num_workers,
            options=cfg.options,
            partition_strategy=cfg.partition_strategy,
        )
        if cfg.tracer is not None:
            self.flashware.tracer = cfg.tracer
        self._dist = getattr(self.flashware, "session", None)
        #: The non-columnar runner — the mp session when there is one,
        #: else the inline interpreted loops; both run the user
        #: functions and return ``(out, updates[, contributors])``.
        self._interp = self._dist if self._dist is not None else _interp_loops
        # The API call a delegating primitive (adaptive EDGEMAP) is
        # issuing the next superstep on behalf of — trace attribution.
        self._issuer: Optional[str] = None
        # Ligra's heuristic: go dense when active work exceeds |arcs| / 20.
        self.dense_threshold = (
            max(graph.num_arcs // 20, 1) if cfg.dense_threshold is None
            else cfg.dense_threshold
        )
        #: The static kernel compiler's outputs: per-property sync scopes
        #: consumed by the mp executor (built with the first kernel's
        #: analysis), and the per-kernel dispatch decisions for the
        #: ``repro plan`` artifact.
        self.comm_plan = None
        self.kernel_plan: Dict[str, Dict[str, Any]] = {}
        #: Analysis diagnostics: static fallbacks, vectorized-spec access
        #: mismatches and, under a capture, static/trace disagreements
        #: and runtime promotions.
        self.diagnostics: List[str] = []
        self._diagnostic_keys: Set[str] = set()
        #: The kernel plan memo: one slot per ``(kind, label)`` holding
        #: the kernel's last reusable plan (see :meth:`_build_plan`).
        self._plans: Dict[Any, _KernelPlan] = {}
        self._E = BaseEdges()
        self._owner = self.flashware.partition.owner_of
        self._out_degree_cache: Optional[np.ndarray] = None
        self._closed = False
        #: The columnar runner, ``None`` on ``interp``: one kernel set
        #: over the backend's arc source (RAM CSR vs block shards — built
        #: here for ``oocore``, released by :meth:`close`).
        self._col: Optional[ColumnarKernels] = None
        if self.backend == "vectorized":
            self._col = ColumnarKernels(self.backend, ResidentArcs(graph))
        elif self.backend == "oocore":
            from repro.runtime.oocore.runtime import OocoreRuntime

            self._col = ColumnarKernels(self.backend, OocoreRuntime(self))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return self.flashware.partition.num_partitions

    @property
    def metrics(self) -> Metrics:
        return self.flashware.metrics

    @property
    def tracer(self) -> Tracer:
        return self.flashware.tracer

    @property
    def V(self) -> VertexSubset:
        """A subset containing every vertex."""
        return VertexSubset(self, range(self.graph.num_vertices))

    @property
    def E(self) -> EdgeSet:
        """The graph's edge set."""
        return self._E

    def subset(self, ids: Iterable[int]) -> VertexSubset:
        """Build a vertex subset from ids."""
        return VertexSubset(self, ids)

    def empty(self) -> VertexSubset:
        return VertexSubset(self, ())

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    def add_property(
        self,
        name: str,
        default: Any = None,
        factory: Optional[Callable[[], Any]] = None,
    ) -> None:
        """Declare a vertex property visible as ``v.<name>`` in user
        functions.  Mutable defaults are copied per vertex."""
        if name in RESERVED_ATTRIBUTES:
            raise FlashUsageError(f"{name!r} is a reserved vertex attribute")
        self.flashware.state.add_property(name, default=default, factory=factory)

    def values(self, name: str) -> List[Any]:
        """A copy of the current column for property ``name``, always as
        a plain Python list of Python values (backend-independent)."""
        column = self.flashware.state.column(name)
        if isinstance(column, np.ndarray):
            return column.tolist()
        return list(column)

    def drop_property(self, name: str) -> None:
        """Remove a property (lets two algorithms share one engine when
        their property names collide)."""
        self.flashware.state.remove_property(name)

    def value(self, vid: int, name: str) -> Any:
        return self.flashware.state.get(vid, name)

    def get(self, vid: int) -> VertexView:
        """FLASHWARE's ``get``: a read-only view of any vertex's current
        state (usable from anywhere, e.g. inside a VERTEXMAP that walks
        other vertices' neighbor lists — CL, BCC)."""
        return _RemoteGetView(self, vid)

    def charge(self, vid: int, ops: int) -> None:
        """Charge extra compute work to the worker mastering ``vid`` —
        used by algorithms whose user functions do more than O(1) work
        per invocation (set intersections in TC/RC/CL, local sorts in
        MSF), so the cost model sees the real per-worker load."""
        self.flashware.charge_ops(self._owner(vid), ops)

    def note_diagnostic(self, message: str, unsound: bool = False) -> None:
        """Record an analysis diagnostic (deduplicated — a kernel may be
        analysed again, e.g. under a capture) and forward it to any active
        program capture (``repro lint`` collection); ``unsound`` marks one
        that shows a static verdict incomplete."""
        if message in self._diagnostic_keys:
            return
        self._diagnostic_keys.add(message)
        self.diagnostics.append(message)
        from repro.analysis.staticpass import program as _program

        _program.record_diagnostic(message, unsound)

    # ------------------------------------------------------------------
    # Static kernel compiler
    # ------------------------------------------------------------------
    def _compile_spec(self, kind, spec, edges, F, M, C, R):
        """On a columnar backend, synthesize the kernel's spec; a hand
        ``spec`` is used only where synthesis refuses the kernel.
        Returns ``(spec, origin, reason)`` where origin is
        ``"synthesized"``, ``"hand"`` or ``None`` (interp) and reason
        says why synthesis gave no spec.  Edge synthesis only applies to
        the plain edge set ``E`` — constructed edge sets never dispatch
        columnar anyway."""
        hand = "hand" if spec is not None else None
        if self._col is None:
            return spec, hand, None
        if edges is not None and type(edges) is not BaseEdges:
            return spec, hand, f"edge set is not E ({type(edges).__name__})"
        from repro.analysis.compile import synthesize

        if edges is None:
            synth, reason = synthesize.explain_vertex(F, M)
        else:
            synth, reason = synthesize.explain_edge(kind, F, M, C, R)
        if synth is not None:
            return synth, "synthesized", None
        return spec, hand, reason

    def _plan_entry(self, kind, label, spec, origin, reason) -> Dict[str, Any]:
        """The kernel's entry in the plan artifact (``repro plan`` /
        ``dist_summary``), created by its first plan build; a later build
        (a fresh bind under the same label) fills what is still open.
        ``reason`` says why the kernel has no synthesized spec — and,
        until it first dispatches columnar (see :meth:`_superstep`), why
        it stays interpreted."""
        key = f"{kind}:{label or '-'}"
        entry = self.kernel_plan.get(key)
        if entry is None:
            entry = self.kernel_plan[key] = {
                "kind": kind, "label": label or "-", "origin": None,
                "dispatched": False, "writes": [], "reason": None,
            }
        if entry["origin"] is None and origin is not None:
            entry["origin"] = origin
            entry["writes"] = sorted(spec.declared_access()["writes"])
        if entry["reason"] is None and not entry["dispatched"]:
            entry["reason"] = reason or (f"{origin} spec declined" if origin else "no spec")
        from repro.analysis.compile import plan as _plan

        if _plan.capturing():
            _plan.note_engine(self)
        return entry

    def _build_plan(self, kind, mode, label, subset, edges, fns, key) -> _KernelPlan:
        """Build a kernel's plan by the full path; memoize it in its
        ``(kind, label)`` slot when the verdict may stand for the later
        supersteps — complete, outside a program capture (elsewhere the
        re-run is the point)."""
        F, M, C, R, hand = key[:5]
        spec, origin, reason = self._compile_spec(kind, hand, edges, F, M, C, R)
        verdict = analyze(self, kind, label, spec, subset, edges, fns)
        attribution = {"mode": mode} if mode else {}
        attribution.update((name, fn_label(fn)) for name, fn in fns.items())
        plan = _KernelPlan(
            key, spec, origin, reason, frozenset(verdict.critical if verdict else ()),
            attribution, self._plan_entry(kind, label, spec, origin, reason),
        )
        if verdict is not None and verdict.complete and not capturing():
            self._plans[(kind, label)] = plan
        return plan

    # ------------------------------------------------------------------
    # SIZE
    # ------------------------------------------------------------------
    def size(self, subset: VertexSubset) -> int:
        """``SIZE(U)``."""
        return subset.size()

    # ------------------------------------------------------------------
    # The one superstep path
    # ------------------------------------------------------------------
    def _superstep(
        self, mode, primitive, subset, edges, fns, label, spec, columnar, interp
    ) -> VertexSubset:
        """Run one superstep — VERTEXMAP (``mode`` and ``edges`` are
        ``None``) or EDGEMAP in ``mode`` ``"dense"`` / ``"sparse"`` over
        the user functions ``fns`` (``{"F": ..., "M": ..., ...}``): open
        it, look up the kernel's plan, attribute it, then hand it to
        exactly one runner.  ``columnar(col, spec)`` runs the columnar
        kernels, which commit through the barrier themselves;
        ``interp(runner)`` runs the user functions on the non-columnar
        runner and returns ``(out, updates[, contributors])``, converted
        here once into the barrier's columns.  A runner that raises
        aborts the superstep."""
        fw = self.flashware
        kind = f"edge_map_{mode}" if mode else "vertex_map"
        fw.begin_superstep(kind, label, frontier_in=subset.size())
        key = (fns.get("F"), fns.get("M"), fns.get("C"), fns.get("R"), spec,
               type(edges), getattr(edges, "within_graph", None))
        plan = self._plans.get((kind, label))
        if plan is not None and all(map(is_, plan.key, key)) and not capturing():
            # re-apply the verdict: restore / recovery may have rolled
            # _critical back, or a critical property been declared since
            crit = plan.critical
            if crit and not crit <= fw._critical:
                fw.mark_critical(p for p in crit if fw.state.has_property(p))
        else:
            plan = self._build_plan(kind, mode, label, subset, edges, fns, key)
        if fw.tracer.enabled:
            fw.annotate_span(primitive=primitive, **plan.attribution)
        spec = plan.spec
        F, M, C = key[:3]
        col = self._col
        if spec is None or col is None:
            use_col = False
        elif edges is None:
            use_col = col.supports_vertex_map(fw.state, spec, F, M)
        else:
            use_col = col.supports_edge_map(fw.state, edges, spec, mode, F, C)
        entry = plan.entry
        if use_col and not entry["dispatched"]:
            # the kernel keeps only the synthesizer's refusal, if any
            entry["dispatched"], entry["reason"] = True, plan.reason
        backend = col.name if use_col else "interp"
        self.metrics.note_backend(backend)
        fw.annotate_span(backend=backend)
        try:
            if use_col:
                if plan.origin == "synthesized":
                    fw.annotate_span(spec="synthesized")
                return columnar(col, spec)
            out, updates, *contributors = interp(self._interp)
        except Exception:
            fw.abort_superstep()
            raise
        fw.barrier(
            *_interp_loops.columns(updates, *contributors),
            broadcast_all=edges is not None and not edges.within_graph,
            frontier_out=len(out),
        )
        return VertexSubset(self, out)

    # ------------------------------------------------------------------
    # VERTEXMAP (Algorithm 1)
    # ------------------------------------------------------------------
    def vertex_map(
        self,
        subset: VertexSubset,
        F: Optional[VertexFn] = None,
        M: Optional[VertexFn] = None,
        label: str = "",
        spec: Optional[VertexMapSpec] = None,
    ) -> VertexSubset:
        """Apply ``M`` to each vertex of ``subset`` passing ``F``; return
        the subset of vertices that passed ``F``.

        ``spec`` optionally declares the superstep's computation for the
        columnar backends, used only where synthesis refuses the kernel;
        it is ignored on the interpreted backend and whenever it cannot
        be applied (fallback rules in ``docs/performance.md``)."""
        return self._superstep(
            None, "VERTEXMAP", subset, None, {"F": F, "M": M}, label, spec,
            columnar=lambda col, spec: col.vertex_map(self, subset, F, M, spec),
            interp=lambda run: run.run_vertex_map(self, subset, F, M),
        )

    # ------------------------------------------------------------------
    # EDGEMAP (Algorithms 4-6)
    # ------------------------------------------------------------------
    def edge_map(
        self,
        subset: VertexSubset,
        edges: EdgeSet,
        F: Optional[VertexFn] = None,
        M: Optional[VertexFn] = None,
        C: Optional[VertexFn] = None,
        R: Optional[VertexFn] = None,
        label: str = "",
        spec: Optional[EdgeMapSpec] = None,
    ) -> VertexSubset:
        """Adaptive EDGEMAP: dense (pull) when the active set is heavy,
        sparse (push) otherwise (Algorithm 4).  With ``R=None`` the pull
        mode is forced, since push needs a reduce function (§III-A).

        The mode decision depends only on topology and frontier size, so
        it is identical on every backend; ``spec`` rides along to the
        chosen kernel, used only where synthesis refuses it."""
        self._issuer = "EDGEMAP"
        if R is None:
            self.metrics.note_mode("dense")
            return self.edge_map_dense(subset, edges, F, M, C, label=label, spec=spec)
        work = self._out_work(edges, subset) + subset.size()
        if work > self.dense_threshold:
            self.metrics.note_mode("dense")
            return self.edge_map_dense(subset, edges, F, M, C, label=label, spec=spec)
        self.metrics.note_mode("sparse")
        return self.edge_map_sparse(subset, edges, F, M, C, R, label=label, spec=spec)

    def _out_work(self, edges: EdgeSet, subset: VertexSubset) -> int:
        """``edges.out_work`` with a bulk fast path for the plain edge
        set ``E`` (whose work is just the frontier's out-degree sum)."""
        if type(edges) is BaseEdges:
            if self._out_degree_cache is None:
                self._out_degree_cache = self.graph.out_degrees()
            return int(self._out_degree_cache[subset.as_array()].sum())
        return edges.out_work(self, subset)

    def edge_map_dense(
        self,
        subset: VertexSubset,
        edges: EdgeSet,
        F: Optional[VertexFn] = None,
        M: Optional[VertexFn] = None,
        C: Optional[VertexFn] = None,
        label: str = "",
        spec: Optional[EdgeMapSpec] = None,
    ) -> VertexSubset:
        """The pull kernel (Algorithm 5): every candidate target scans its
        in-neighbors in the active set and applies ``M`` sequentially to
        its own working copy, stopping early when ``C`` fails.  ``spec``
        is used only where synthesis refuses the kernel."""
        if M is None:
            raise FlashUsageError("edge_map_dense requires a map function M")
        issuer, self._issuer = self._issuer, None
        edges.prepare(self)
        return self._superstep(
            "dense", issuer or "EDGEMAPDENSE", subset, edges,
            {"F": F, "M": M, "C": C}, label, spec,
            columnar=lambda col, spec: col.edge_map_dense(self, subset, spec),
            interp=lambda run: run.run_edge_map_dense(self, subset, edges, F, M, C),
        )

    def edge_map_sparse(
        self,
        subset: VertexSubset,
        edges: EdgeSet,
        F: Optional[VertexFn] = None,
        M: Optional[VertexFn] = None,
        C: Optional[VertexFn] = None,
        R: Optional[VertexFn] = None,
        label: str = "",
        spec: Optional[EdgeMapSpec] = None,
    ) -> VertexSubset:
        """The push kernel (Algorithm 6): active sources produce temporary
        target values, which are folded into the target's next state with
        the (associative, commutative) reduce function ``R``.  ``spec``
        is used only where synthesis refuses the kernel."""
        if M is None:
            raise FlashUsageError("edge_map_sparse requires a map function M")
        if R is None:
            raise FlashUsageError(
                "edge_map_sparse requires a reduce function R; use edge_map / "
                "edge_map_dense for the pull mode that applies M sequentially"
            )
        issuer, self._issuer = self._issuer, None
        edges.prepare(self)
        return self._superstep(
            "sparse", issuer or "EDGEMAPSPARSE", subset, edges,
            {"F": F, "M": M, "C": C, "R": R}, label, spec,
            columnar=lambda col, spec: col.edge_map_sparse(self, subset, spec),
            interp=lambda run: run.run_edge_map_sparse(
                self, subset, edges, F, M, C, R
            ),
        )

    # ------------------------------------------------------------------
    # Auxiliary operators
    # ------------------------------------------------------------------
    def dsu(self) -> DSU:
        """A fresh disjoint-set over all vertices (the paper's pre-defined
        ``dsu`` helper used by BCC and MSF).  Under an active tracer the
        returned DSU emits one ``dsu_union`` instant per successful
        merge, attributing union-find work to the trace timeline."""
        tracer = self.flashware.tracer
        if tracer.enabled:
            return _TracedDSU(self.graph.num_vertices, tracer)
        return DSU(self.graph.num_vertices)

    def collect(self, items_per_vertex: Dict[int, Sequence[Any]], label: str = "reduce") -> List[Any]:
        """The paper's ``REDUCE`` auxiliary: gather worker-local results
        into one global list (charged as one message per contributing
        remote worker)."""
        fw = self.flashware
        rec = fw.begin_superstep("collect", label)
        if fw.tracer.enabled:
            fw.annotate_span(primitive="REDUCE")
        per_worker: Dict[int, int] = {}
        gathered: List[Any] = []
        for vid in sorted(items_per_vertex):
            items = items_per_vertex[vid]
            gathered.extend(items)
            worker = self._owner(vid)
            per_worker[worker] = per_worker.get(worker, 0) + len(items)
        for worker, count in per_worker.items():
            if worker != 0 and count:
                rec.reduce_messages += 1
                rec.reduce_values += count
        fw.barrier()
        return gathered

    # ------------------------------------------------------------------
    # Cost / metrics helpers
    # ------------------------------------------------------------------
    def cost(self, cluster: Optional[ClusterSpec] = None, model: Optional[CostModel] = None) -> CostBreakdown:
        """Simulated cost of everything run so far on ``cluster`` (defaults
        to one node per worker, 32 cores each)."""
        if cluster is None:
            cluster = ClusterSpec(nodes=self.num_workers, cores_per_node=32)
        model = model or CostModel()
        return model.estimate(self.metrics, cluster)

    def reset_metrics(self) -> None:
        self.flashware.metrics.reset()

    def dist_summary(self) -> Dict[str, Any]:
        """Real-traffic totals of the multi-process executor (empty dict
        on the inline executor, where no physical messages exist).  The
        communication plan and per-kernel dispatch decisions ride along."""
        summarize = getattr(self.flashware, "dist_summary", None)
        out = summarize() if summarize is not None else {}
        if self.comm_plan is not None and out:
            out["comm_plan"] = self.comm_plan.describe()
            out["kernel_plan"] = {k: dict(v) for k, v in self.kernel_plan.items()}
        return out

    def worker_health(self) -> List[Dict[str, Any]]:
        """Per-rank process health of the worker pool (empty list on the
        inline executor): rank, pid, alive, exitcode, and status in
        ``running``/``exited``/``dead``."""
        session = getattr(self.flashware, "session", None)
        if session is None:
            return []
        return session.pool.supervisor.health()

    def close(self) -> None:
        """Release executor resources: worker-session teardown for
        ``executor='mp'``, memory-mapped block handles (and the block
        store itself, when this engine built it) for
        ``backend='oocore'``; a no-op inline.  Idempotent — safe to call
        any number of times, so pooled/shared engines (the serving
        layer) and ``finally`` blocks can all close defensively.  The
        engine stays readable (values/metrics) but cannot run further
        supersteps in mp or oocore mode."""
        if self._closed:
            return
        self._closed = True
        # plans hold the user functions, which may close over this engine
        self._plans.clear()
        if self._col is not None:
            self._col.close()
        if self._dist is not None:
            self._dist.close()
            self._dist = None
            closer = getattr(self.flashware, "close", None)
            if closer is not None:
                closer()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def __enter__(self) -> "FlashEngine":
        """Context-manager protocol: ``with FlashEngine(g) as eng:``
        guarantees worker processes and shared-memory segments are
        released on exit, however the block ends."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"FlashEngine({self.graph!r}, workers={self.num_workers}, "
            f"properties={self.flashware.state.property_names})"
        )
