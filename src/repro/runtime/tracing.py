"""Structured tracing: span-based instrumentation of the FLASH runtime.

The accounting layer (:mod:`repro.runtime.metrics`) answers *how much*
a run cost in aggregate; this module answers *where and when*: every
superstep, barrier commit, checkpoint and rollback becomes a **span** —
a named interval with wall-clock timing and the superstep's accounting
fields attached — streamed through pluggable sinks.  It is the
observability substrate behind ``repro run --trace`` and
``repro trace summarize`` (see ``docs/observability.md``).

Span taxonomy
-------------

===================  ==========  =================================================
name                 category    emitted by
===================  ==========  =================================================
``vertexmap``        superstep   every VERTEXMAP superstep
``edgemap.pull``     superstep   every dense (pull) EDGEMAP superstep
``edgemap.push``     superstep   every sparse (push) EDGEMAP superstep
``collect``          superstep   the REDUCE auxiliary (``engine.collect``)
``barrier.sync``     barrier     the commit/sync phase inside each superstep
``checkpoint``       recovery    a snapshot written by the checkpoint policy
``rollback``         recovery    a failure handled: checkpoint search + reset
``restore``          recovery    a snapshot applied at the fast-forward boundary
``replay.window``    recovery    instant: the fast-forward/replay window bounds
``dsu_union``        dsu         instant: one successful ``DSU.union`` via the
                                 engine's traced ``dsu()`` helper
``backend.switch``   dispatch    instant: a ``use_config`` backend change
===================  ==========  =================================================

Superstep spans carry the :class:`~repro.runtime.metrics.SuperstepRecord`
fields (ops, reduce/sync messages and values, frontier sizes, the
aborted/replayed/fast-forward flags) plus the attribution the engine
adds: ``primitive`` (the API call that issued the superstep — EDGEMAP,
VERTEXMAP, EDGEMAPDENSE, ...), ``mode`` (dense/sparse), ``backend``
(interp/vectorized) and the user-function names.

Design constraints:

* **Tracing never changes accounting.**  Spans observe
  :class:`SuperstepRecord` after the barrier; ``Metrics`` totals are
  bit-identical with tracing on or off (``tests/test_tracing.py``
  proves this for all 14 apps on both backends).
* **The untraced hot path is allocation-free.**  The module-level
  :data:`NULL_TRACER` reports ``enabled = False``; instrumentation
  sites guard on that flag and skip span construction entirely.

Sinks
-----

* :class:`RingBufferSink` — last-N spans in memory (always-on use);
* :class:`JsonlSink` — one JSON object per line, streamed to disk;
* :class:`ChromeTraceSink` — a ``chrome://tracing`` / Perfetto
  ``trace_event`` JSON file (complete ``"X"`` events).

A tracer is one of an engine's settings: ``FlashEngine(tracer=...)``,
or ambiently ``use_config(tracer=...)``
(:func:`repro.core.config.use_config`), so engines built inside
algorithms, suite runners and servers inherit it.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, Iterator, List, Optional, Sequence, Union


@dataclass
class Span:
    """One trace interval (or instant, when ``dur`` is None).

    ``ts``/``dur`` are seconds relative to the tracer's epoch (its
    construction time), chosen so exported Chrome timestamps start near
    zero."""

    name: str
    cat: str
    ts: float
    dur: Optional[float] = None
    args: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"name": self.name, "cat": self.cat, "ts": self.ts}
        if self.dur is not None:
            d["dur"] = self.dur
        if self.args:
            d["args"] = self.args
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Span":
        return cls(
            name=d["name"],
            cat=d.get("cat", ""),
            ts=float(d.get("ts", 0.0)),
            dur=d.get("dur"),
            args=dict(d.get("args") or {}),
        )


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------
class TraceSink:
    """Receives finished spans.  ``emit`` must be cheap — it runs once
    per superstep on the traced path."""

    def emit(self, span: Span) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/finalize (file sinks write their footer here)."""


class RingBufferSink(TraceSink):
    """Keeps the most recent ``capacity`` spans in memory; older spans
    fall off the front.  ``dropped`` counts what the ring forgot."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.capacity = capacity
        self._buffer: deque = deque(maxlen=capacity)
        self.emitted = 0

    def emit(self, span: Span) -> None:
        self._buffer.append(span)
        self.emitted += 1

    @property
    def dropped(self) -> int:
        return self.emitted - len(self._buffer)

    def spans(self) -> List[Span]:
        return list(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()
        self.emitted = 0


class JsonlSink(TraceSink):
    """Streams one JSON object per span, one per line — the format
    ``repro trace summarize`` reads back."""

    def __init__(self, target: Union[str, Path, IO[str]]):
        if hasattr(target, "write"):
            self._file: IO[str] = target  # type: ignore[assignment]
            self._owns = False
        else:
            self._file = open(target, "w", encoding="utf-8")
            self._owns = True
        self.emitted = 0

    def emit(self, span: Span) -> None:
        json.dump(span.as_dict(), self._file, separators=(",", ":"))
        self._file.write("\n")
        self.emitted += 1

    def close(self) -> None:
        self._file.flush()
        if self._owns:
            self._file.close()


class ChromeTraceSink(TraceSink):
    """Buffers spans and writes one Chrome ``trace_event`` JSON file on
    ``close()`` — loadable by ``chrome://tracing`` and Perfetto.

    Intervals become complete (``"ph": "X"``) events; instants become
    ``"ph": "i"`` events with global scope.  Timestamps are microseconds
    from the tracer epoch.  Span categories map to tracks (``tid``) so
    supersteps, barriers and recovery actions stack visually.
    """

    #: trace-viewer track per span category.
    TIDS = {"superstep": 0, "barrier": 0, "recovery": 1, "dsu": 2, "dispatch": 2}

    def __init__(self, target: Union[str, Path, IO[str]]):
        self._target = target
        self._events: List[Dict[str, Any]] = []
        self.emitted = 0

    def emit(self, span: Span) -> None:
        event: Dict[str, Any] = {
            "name": span.name,
            "cat": span.cat or "trace",
            "ts": span.ts * 1e6,
            "pid": 0,
            "tid": self.TIDS.get(span.cat, 3),
        }
        if span.dur is None:
            event["ph"] = "i"
            event["s"] = "g"
        else:
            event["ph"] = "X"
            event["dur"] = span.dur * 1e6
        if span.args:
            event["args"] = span.args
        self._events.append(event)
        self.emitted += 1

    def close(self) -> None:
        payload = {
            "traceEvents": self._events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.runtime.tracing"},
        }
        if hasattr(self._target, "write"):
            json.dump(payload, self._target)  # type: ignore[arg-type]
        else:
            with open(self._target, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------
class SpanHandle:
    """A started span.  ``annotate`` attaches attribution as it becomes
    known; ``end`` stamps the duration and emits to every sink."""

    __slots__ = ("_tracer", "_span", "_closed")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span
        self._closed = False

    def annotate(self, **args: Any) -> "SpanHandle":
        self._span.args.update(args)
        return self

    def end(self, **args: Any) -> None:
        if self._closed:  # idempotent: abort paths may race a barrier end
            return
        self._closed = True
        if args:
            self._span.args.update(args)
        self._span.dur = self._tracer.clock() - self._span.ts
        self._tracer._emit(self._span)


class _NullSpanHandle:
    """Shared no-op handle returned by :class:`NullTracer`."""

    __slots__ = ()

    def annotate(self, **args: Any) -> "_NullSpanHandle":
        return self

    def end(self, **args: Any) -> None:
        return None


_NULL_HANDLE = _NullSpanHandle()


class Tracer:
    """Emits spans to one or more sinks.

    >>> sink = RingBufferSink(capacity=8)
    >>> tracer = Tracer(sink)
    >>> handle = tracer.start("vertexmap", "superstep", label="init")
    >>> handle.end(ops=10)
    >>> [s.name for s in sink.spans()]
    ['vertexmap']
    """

    enabled = True

    def __init__(self, *sinks: TraceSink):
        self.sinks: List[TraceSink] = list(sinks) or [RingBufferSink()]
        self.epoch = time.perf_counter()
        self.spans_emitted = 0

    # -- time ----------------------------------------------------------
    def clock(self) -> float:
        """Seconds since the tracer epoch."""
        return time.perf_counter() - self.epoch

    # -- span lifecycle ------------------------------------------------
    def start(self, name: str, cat: str = "superstep", **args: Any) -> SpanHandle:
        return SpanHandle(self, Span(name=name, cat=cat, ts=self.clock(), args=args))

    def instant(self, name: str, cat: str = "mark", **args: Any) -> None:
        self._emit(Span(name=name, cat=cat, ts=self.clock(), dur=None, args=args))

    @contextmanager
    def span(self, name: str, cat: str = "superstep", **args: Any) -> Iterator[SpanHandle]:
        handle = self.start(name, cat, **args)
        try:
            yield handle
        finally:
            handle.end()

    def _emit(self, span: Span) -> None:
        self.spans_emitted += 1
        for sink in self.sinks:
            sink.emit(span)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class NullTracer(Tracer):
    """The disabled tracer: every operation is a no-op and ``start``
    returns a shared handle, so the untraced hot path allocates
    nothing."""

    enabled = False

    def __init__(self) -> None:  # no sinks, no epoch bookkeeping
        self.sinks = []
        self.epoch = 0.0
        self.spans_emitted = 0

    def start(self, name: str, cat: str = "superstep", **args: Any):  # type: ignore[override]
        return _NULL_HANDLE

    def instant(self, name: str, cat: str = "mark", **args: Any) -> None:
        return None

    def _emit(self, span: Span) -> None:
        return None

    def close(self) -> None:
        return None


#: Process-wide disabled tracer (the default for every Flashware).
NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------------
# Trace files: loading + summarizing
# ---------------------------------------------------------------------------
def load_trace(path: Union[str, Path]) -> List[Span]:
    """Read spans back from a trace file, auto-detecting the format:
    a Chrome ``trace_event`` JSON object or JSONL (one span per line).
    Chrome durations/timestamps are converted back to seconds."""
    text = Path(path).read_text(encoding="utf-8").strip()
    if not text:
        return []
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict) and "traceEvents" in payload:
        spans = []
        for event in payload["traceEvents"]:
            spans.append(
                Span(
                    name=event.get("name", "?"),
                    cat=event.get("cat", ""),
                    ts=float(event.get("ts", 0.0)) / 1e6,
                    dur=(event["dur"] / 1e6) if event.get("ph") == "X" else None,
                    args=dict(event.get("args") or {}),
                )
            )
        return spans
    if isinstance(payload, dict):  # a single-span JSONL file
        return [Span.from_dict(payload)]
    if isinstance(payload, list):  # bare JSON array of spans
        return [Span.from_dict(d) for d in payload]
    return [Span.from_dict(json.loads(line)) for line in text.splitlines() if line.strip()]


def superstep_spans(spans: Sequence[Span]) -> List[Span]:
    """The superstep-category subset of a trace, in emission order."""
    return [s for s in spans if s.cat == "superstep"]


def summarize_by_primitive(spans: Sequence[Span]) -> List[Dict[str, Any]]:
    """Aggregate superstep spans per issuing primitive: span count,
    ops, messages, values and wall seconds — the per-primitive cost
    table of ``repro trace summarize``."""
    per: Dict[str, Dict[str, Any]] = {}
    for s in superstep_spans(spans):
        key = s.args.get("primitive") or s.name
        agg = per.setdefault(
            key,
            {
                "primitive": key,
                "spans": 0,
                "ops": 0,
                "messages": 0,
                "values": 0,
                "wall_s": 0.0,
            },
        )
        agg["spans"] += 1
        agg["ops"] += int(s.args.get("ops", 0))
        agg["messages"] += int(s.args.get("reduce_messages", 0)) + int(
            s.args.get("sync_messages", 0)
        )
        agg["values"] += int(s.args.get("reduce_values", 0)) + int(
            s.args.get("sync_values", 0)
        )
        agg["wall_s"] += s.dur or 0.0
    return sorted(per.values(), key=lambda a: -a["wall_s"])


def top_supersteps(spans: Sequence[Span], k: int = 10) -> List[Span]:
    """The ``k`` most expensive superstep spans by wall time."""
    return sorted(superstep_spans(spans), key=lambda s: -(s.dur or 0.0))[:k]


def mode_flips(spans: Sequence[Span]) -> List[Dict[str, Any]]:
    """Supersteps where the adaptive EDGEMAP switched dense/sparse mode
    relative to the previous EDGEMAP — the "which superstep flipped the
    switch" question the trace exists to answer."""
    flips: List[Dict[str, Any]] = []
    prev_mode: Optional[str] = None
    for s in superstep_spans(spans):
        mode = s.args.get("mode")
        if mode is None:
            continue
        if prev_mode is not None and mode != prev_mode:
            flips.append(
                {
                    "seq": s.args.get("seq"),
                    "label": s.args.get("label", ""),
                    "from": prev_mode,
                    "to": mode,
                    "frontier_in": s.args.get("frontier_in"),
                }
            )
        prev_mode = mode
    return flips


def format_trace_summary(spans: Sequence[Span], top: int = 10) -> str:
    """Render the ``repro trace summarize`` report: the per-primitive
    cost table, the top-``k`` most expensive supersteps, and any
    dense/sparse mode flips."""
    from repro.analysis.tables import format_table

    lines: List[str] = []
    steps = superstep_spans(spans)
    total_wall = sum(s.dur or 0.0 for s in steps)
    lines.append(
        f"{len(spans)} spans, {len(steps)} supersteps, "
        f"{total_wall * 1e3:.3f} ms traced wall time"
    )

    prim_rows = [
        [
            agg["primitive"],
            agg["spans"],
            agg["ops"],
            agg["messages"],
            agg["values"],
            f"{agg['wall_s'] * 1e3:.3f}",
            f"{(agg['wall_s'] / total_wall if total_wall else 0.0):.1%}",
        ]
        for agg in summarize_by_primitive(spans)
    ]
    lines.append(
        format_table(
            ["primitive", "spans", "ops", "messages", "values", "wall ms", "share"],
            prim_rows,
            title="Per-primitive cost",
        )
    )

    step_rows = []
    for s in top_supersteps(spans, top):
        step_rows.append(
            [
                s.args.get("seq", "-"),
                s.args.get("primitive", s.name),
                s.args.get("label") or "-",
                s.args.get("mode") or "-",
                s.args.get("backend") or "-",
                s.args.get("frontier_in", 0),
                s.args.get("ops", 0),
                int(s.args.get("reduce_messages", 0)) + int(s.args.get("sync_messages", 0)),
                f"{(s.dur or 0.0) * 1e6:.1f}",
            ]
        )
    lines.append(
        format_table(
            ["seq", "primitive", "label", "mode", "backend", "frontier",
             "ops", "messages", "wall us"],
            step_rows,
            title=f"Top {min(top, len(steps))} supersteps by wall time",
        )
    )

    flips = mode_flips(spans)
    if flips:
        lines.append("EDGEMAP mode flips:")
        for flip in flips:
            lines.append(
                f"  superstep {flip['seq']}: {flip['from']} -> {flip['to']} "
                f"(label {flip['label'] or '-'}, frontier {flip['frontier_in']})"
            )

    oocore = [s for s in spans if s.cat == "oocore"]
    if oocore:
        reads = [s for s in oocore if not s.args.get("cached")]
        read_bytes = sum(int(s.args.get("bytes", 0)) for s in reads)
        modes: Dict[str, int] = {}
        for s in oocore:
            mode = s.args.get("mode")
            if mode:
                modes[mode] = modes.get(mode, 0) + 1
        mode_text = ", ".join(f"{m} x{n}" for m, n in sorted(modes.items()))
        lines.append(
            f"out-of-core I/O: {len(oocore)} block visits, "
            f"{len(reads)} disk reads ({read_bytes} bytes), "
            f"{len(oocore) - len(reads)} cache hits"
            + (f"; modes: {mode_text}" if mode_text else "")
        )

    recovery = [s for s in spans if s.cat == "recovery"]
    if recovery:
        counts: Dict[str, int] = {}
        for s in recovery:
            counts[s.name] = counts.get(s.name, 0) + 1
        lines.append(
            "recovery events: "
            + ", ".join(f"{name} x{n}" for name, n in sorted(counts.items()))
        )
    return "\n".join(lines)
