"""Critical-property analysis — the code generator's static analysis
(paper §IV-B/§IV-C, Table II).

The real FLASH compiler classifies every property access of the
generated code as ``get``/``put`` on the ``source``/``target`` of each
kernel and applies Table II: a property is *critical* (must be synced
to mirrors) iff it is ``get`` as the **source** property of an
``EDGEMAPDENSE``, or ``get``/``put`` as the **target** property of an
``EDGEMAPSPARSE``.

This module is the engine-side dispatcher between the two
reproductions of that analysis, chosen by the engine's ``analysis``
setting (``FlashEngine(analysis=...)``, or ambiently through
:func:`~repro.core.config.use_config`; docs/static_analysis.md
"Analysis modes"):

* ``static`` (default): the ahead-of-time pass
  (:mod:`repro.analysis.staticpass`) over all control-flow branches;
  a kernel it reports incomplete falls back to the runtime tracer, with
  a diagnostic;
* ``trace``: the user functions run once against recording views on a
  sample edge (writes discarded, no ops charged) and the events are
  classified by the same table — branch-dependent accesses may be
  missed, which the engine's ``get`` handle patches by promoting
  remotely read properties at runtime;
* ``check``: static sets applied, then the trace as a cross-check
  oracle — anything the trace observes that the static pass missed
  becomes a diagnostic;
* ``compile``: ``static`` plus spec synthesis and the communication plan
  (:mod:`repro.analysis.compile`);
* ``off``: no analysis (also ``FlashEngine(auto_analyze=False)``).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Set, Tuple

from repro.core.edgeset import EdgeSet
from repro.core.subset import VertexSubset
from repro.core.vertex import TracingView

Event = Tuple[str, str, str]  # (op, role, property)

#: The engine's ``analysis`` settings (validated by
#: :class:`~repro.core.config.EngineConfig`).
ANALYSIS_MODES = ("static", "trace", "check", "compile", "off")

#: Modes that run the ahead-of-time pass before the kernel executes.
_STATIC_MODES = ("static", "check", "compile")


# ---------------------------------------------------------------------------
# Table II over runtime traces
# ---------------------------------------------------------------------------
def classify_events(kind: str, events: Iterable[Event]) -> Tuple[Set[str], Set[str]]:
    """Apply Table II to a trace.

    Returns ``(critical, seen)`` — the properties decided critical for
    this kernel kind, and every property touched at all.
    """
    critical: Set[str] = set()
    seen: Set[str] = set()
    for op, role, prop in events:
        seen.add(prop)
        if kind == "edge_map_dense" and op == "get" and role == "source":
            critical.add(prop)
        elif kind == "edge_map_sparse" and role == "target":
            critical.add(prop)
    return critical, seen


def _run_traced(fn: Optional[Callable], args: tuple) -> None:
    if fn is None:
        return
    try:
        fn(*args)
    except Exception:
        # A trace may legitimately blow up (e.g. arithmetic on a sentinel
        # value); whatever events were recorded before the failure still
        # feed the classification.
        pass


# ---------------------------------------------------------------------------
# The static pass (imported lazily: repro.analysis.staticpass pulls in the
# engine for get-view detection, and ``import repro`` loads no analysis)
# ---------------------------------------------------------------------------
_staticpass = None


def _get_staticpass():
    global _staticpass
    if _staticpass is None:
        from repro.analysis import staticpass

        _staticpass = staticpass
    return _staticpass


def _apply_static(
    engine, kind: str, label: str, F=None, M=None, C=None, R=None, spec=None
):
    """Run the ahead-of-time pass for one kernel, register its verdict
    with FLASHWARE and cross-check ``spec``'s declared access sets against
    it (diagnostics only).  Returns the classification, or ``None`` when
    the analyzer itself failed (never breaks execution)."""
    sp = _get_staticpass()
    try:
        classification = sp.analyze_kernel(kind, F=F, M=M, C=C, R=R)
    except Exception as exc:  # analyzer defect — degrade to tracing
        engine.note_diagnostic(
            f"static analyzer error on {kind}:{label or '-'}: {exc!r}; "
            "falling back to sample tracing"
        )
        return None
    fw = engine.flashware
    # Properties the program has not declared (yet) cannot be marked;
    # the engine re-applies the verdict on the kernel's next superstep
    # (from its plan memo), so a property declared later is picked up
    # then — the same timing the tracer has (it cannot observe an
    # undeclared property either).
    fw.mark_critical(
        p for p in classification.critical if fw.state.has_property(p)
    )
    if not classification.complete:
        engine.note_diagnostic(
            f"static analysis incomplete for {kind}:{label or '-'} "
            f"(unresolved roles: {sorted(classification.access.unknown_roles) or 'n/a'}); "
            "sample tracing takes over for this kernel"
        )
    elif spec is not None:
        for message in sp.check_spec(kind, spec, classification):
            engine.note_diagnostic(f"spec mismatch in {kind}: {message}")
    if sp.program.capturing():
        sp.program.record(engine, kind, label, classification, spec=spec)
    return classification


def _observe_plan(engine, kind: str, label: str, static_res, virtual: bool) -> None:
    """Fold one kernel registration into the engine's communication plan
    (``analysis="compile"`` only) and let a distributed flashware re-ship
    columns whose deltas were withheld under a now-stale plan."""
    plan = getattr(engine, "comm_plan", None)
    if plan is None:
        return
    plan.observe(kind, label, static_res, virtual=virtual)
    hook = getattr(engine.flashware, "sync_comm_plan", None)
    if hook is not None:
        hook()


def capturing() -> bool:
    """Whether a whole-program capture (``repro lint``) is collecting."""
    return _get_staticpass().program.capturing()


# ---------------------------------------------------------------------------
# Engine entry points (one call per kernel plan; see FlashEngine._build_plan)
# ---------------------------------------------------------------------------
def _analyze(engine, kind: str, label: str, spec, virtual: bool, fns, trace):
    """The static pass first (under the static modes), then — unless its
    verdict is complete under ``static`` / ``compile`` — the sample
    ``trace()``, which returns ``(critical, seen)`` or ``None`` when
    there is nothing to sample.  Returns the static classification when
    one was computed."""
    mode = engine.analysis
    if mode == "off":
        return None
    static_res = None
    if mode in _STATIC_MODES:
        static_res = _apply_static(engine, kind, label, spec=spec, **fns)
        _observe_plan(engine, kind, label, static_res, virtual=virtual)
        if mode != "check" and static_res is not None and static_res.complete:
            return static_res
    traced = trace()
    if traced is not None and mode == "check" and static_res is not None:
        _cross_check(engine, static_res, *traced, label)
    return static_res


def analyze_vertex_map(engine, subset: VertexSubset, F, M, label: str = "", spec=None):
    """Analyze a VERTEXMAP call.  Per Table II, VERTEXMAP accesses are
    never critical; only ``engine.get`` reads inside the map (found
    statically, or promoted at runtime) can mark anything.  Returns the
    static classification when one was computed."""

    def trace():
        sample = next(iter(subset), None)
        if sample is None:
            return None
        events: List[Event] = []
        v = TracingView(engine, sample, "self", events)
        with engine.flashware.suppressed_ops():
            _run_traced(F, (v,))
            _run_traced(M, (v,))
        return set(), classify_events("vertex_map", events)[1]

    return _analyze(engine, "vertex_map", label, spec, False, {"F": F, "M": M}, trace)


def analyze_edge_map(
    engine,
    kind: str,
    subset: VertexSubset,
    edges: EdgeSet,
    F,
    M,
    C,
    R,
    label: str = "",
    spec=None,
):
    """Analyze an EDGEMAP call and mark the critical properties before
    the kernel runs.  Returns the static classification when one was
    computed."""

    def trace():
        sample = None
        for u in subset:
            targets = edges.out_targets(engine, u)
            if len(targets):
                sample = (u, int(targets[0]))
                break
        if sample is None:
            # No active edge anywhere in the subset: a role-faithful trace
            # is impossible.  (The old fallback traced a (first, first)
            # self-loop, conflating the source and target roles — in a
            # sparse kernel that promoted source-read properties to
            # critical and over-synced.)
            return None
        events: List[Event] = []
        src = TracingView(engine, sample[0], "source", events)
        dst = TracingView(engine, sample[1], "target", events)
        tmp = TracingView(engine, sample[1], "target", events)
        fw = engine.flashware
        with fw.suppressed_ops():
            _run_traced(C, (dst,))
            _run_traced(F, (src, dst))
            _run_traced(M, (src, dst))
            _run_traced(R, (tmp, dst))
        critical, seen = classify_events(kind, events)
        fw.mark_critical(p for p in critical if fw.state.has_property(p))
        return critical, seen

    fns = {"F": F, "M": M, "C": C, "R": R}
    return _analyze(engine, kind, label, spec, not edges.within_graph, fns, trace)


def _cross_check(engine, static_res, traced_critical, traced_seen, label) -> None:
    """Under ``analysis="check"``: compare trace oracle vs static pass
    and surface soundness disagreements (trace saw something static
    missed) as diagnostics."""
    disagreement = _get_staticpass().cross_check(static_res, traced_critical, traced_seen)
    if disagreement is not None:
        engine.note_diagnostic(
            f"static/trace disagreement on {label or static_res.kind}: {disagreement}"
        )
