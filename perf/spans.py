"""Benchmark-owned spans around layer entry points.

The program is not edited: the benchmark rebinds, on instances it
constructs, the public entry point of each layer to a wrapper that
records ``(name, start, end, parent, op)``.  Spans stay in memory and
are written out at exit; a layer's *self time* is its span's duration
minus the part of that interval its child spans cover.

Span names are ``<layer module path>.<entry point>``; the layer is the
name up to the last dot.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Span names of the engine primitives (one superstep each, except the
#: adaptive ``edge_map`` which delegates to dense/sparse).
PRIMITIVES = (
    "core.engine.vertex_map",
    "core.engine.edge_map",
    "core.engine.edge_map_dense",
    "core.engine.edge_map_sparse",
    "core.engine.collect",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's span list; -1 for a root
    op: int  # operation id shared by every span of one operation

    @property
    def dur(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects nested spans from one thread (the load generator's
    caller thread; worker processes and engine threads are seen from
    outside, as the time their callers wait)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), 0.0, parent, self.op)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def operation(self, name: str = "op") -> Iterator[int]:
        """Root span of one operation; yields its op id."""
        self.op += 1
        with self.span(name):
            yield self.op

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recorded as a span called ``name``."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            record = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record.end = clock()
                stack.pop()

        return wrapper

    def instrument(self, obj: Any, names: Dict[str, str]) -> None:
        """Rebind ``obj.<attr>`` to a span wrapper for each
        ``attr -> span name`` (instance attributes shadow the class's
        methods, so only this instance is affected)."""
        for attr, span_name in names.items():
            setattr(obj, attr, self.wrap(span_name, getattr(obj, attr)))

    @staticmethod
    def restore(obj: Any, attrs: Sequence[str]) -> None:
        """Undo :meth:`instrument` on a long-lived instance."""
        for attr in attrs:
            obj.__dict__.pop(attr, None)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans], f
            )


def covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_lo: Optional[float] = None
    cur_hi = 0.0
    for lo, hi in sorted(intervals):
        if cur_lo is None or lo > cur_hi:
            if cur_lo is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_lo is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: duration minus the part covered by its direct children
    (clipped to the span, so a child that outlives its parent cannot
    drive self time negative)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            p = spans[s.parent]
            lo, hi = max(s.start, p.start), min(s.end, p.end)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return [s.dur - covered(children.get(i, ())) for i, s in enumerate(spans)]


def _has_ancestor(spans: Sequence[Span], index: int, names: Sequence[str]) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def per_op(spans: Sequence[Span]) -> Dict[int, Dict[str, float]]:
    """Aggregate spans into per-operation totals:

    ``wall``            root span duration
    ``root_self``       root self time (not inside any layer span)
    ``self:<name>``     summed self time by span name
    ``total:<name>``    summed duration of *outermost* spans of that name
                        (a ``request_many`` inside ``broadcast`` or an
                        ``edge_map_dense`` inside ``edge_map`` is not
                        counted twice)
    ``calls:<name>``    number of spans of that name
    ``primitive``       summed duration of outermost engine primitives
    """
    selfs = self_times(spans)
    out: Dict[int, Dict[str, float]] = {}
    for i, s in enumerate(spans):
        agg = out.setdefault(s.op, {})
        if s.parent < 0:
            agg["wall"] = agg.get("wall", 0.0) + s.dur
            agg["root_self"] = agg.get("root_self", 0.0) + selfs[i]
            continue
        agg[f"self:{s.name}"] = agg.get(f"self:{s.name}", 0.0) + selfs[i]
        agg[f"calls:{s.name}"] = agg.get(f"calls:{s.name}", 0.0) + 1
        if not _has_ancestor(spans, i, (s.name,)):
            agg[f"total:{s.name}"] = agg.get(f"total:{s.name}", 0.0) + s.dur
        if s.name in PRIMITIVES and not _has_ancestor(spans, i, PRIMITIVES):
            agg["primitive"] = agg.get("primitive", 0.0) + s.dur
    return out
