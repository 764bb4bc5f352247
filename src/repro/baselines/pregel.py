"""A Pregel+-style vertex-centric framework (Malewicz et al. [6],
Yan et al. [13]).

The model: in each superstep every active vertex runs ``compute``,
reading the messages sent to it in the previous superstep and sending
new messages (usually to neighbors, but any known vertex id is legal).
A vertex votes to halt and is reawakened by incoming messages; execution
ends when every vertex is halted and no messages are in flight.

Supported extras, as in Pregel+:

* **combiners** — commutative/associative message pre-aggregation,
  applied per (source worker, target) before the network and again at
  the receiver (the paper credits Pregel+ with "effective message
  reduction");
* **aggregators** with a **master compute** hook — global values reduced
  each superstep and broadcast to the next (used for coordination in
  multi-phase algorithms).

Message accounting: a combined message crossing workers is one message
with one value (plus ``len`` values for collection payloads); local
messages are free.  Compute work is charged per compute call plus per
message sent/processed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.baselines.base import BaselineFramework
from repro.errors import ReproError
from repro.graph.graph import Graph


def _payload_size(message: Any) -> int:
    """Approximate value count of a message (collections count their
    elements — neighbor-list exchanges are *expensive*, as in reality)."""
    if isinstance(message, (list, tuple, set, frozenset, dict)):
        return max(len(message), 1)
    return 1


class PregelVertex:
    """Handle passed to ``compute``: the vertex's id, mutable value and
    read-only adjacency."""

    __slots__ = ("id", "_framework", "value")

    def __init__(self, vid: int, framework: "PregelFramework", value: Any):
        self.id = vid
        self._framework = framework
        self.value = value

    @property
    def out_neighbors(self):
        return self._framework.graph.out_neighbors(self.id)

    @property
    def in_neighbors(self):
        return self._framework.graph.in_neighbors(self.id)

    @property
    def out_degree(self) -> int:
        return self._framework.graph.out_degree(self.id)

    @property
    def degree(self) -> int:
        return self._framework.graph.degree(self.id)


class PregelContext:
    """Per-superstep facade: message sending, halting, aggregation."""

    def __init__(self, framework: "PregelFramework"):
        self._fw = framework
        self.superstep = 0
        self._vid = 0
        self._halt_requested = False
        self._outbox: List[Tuple[int, int, Any]] = []  # (source, target, message)
        self._agg_contrib: Dict[str, List[Any]] = {}
        self._agg_broadcast: Dict[str, Any] = {}

    # -- messaging -----------------------------------------------------
    def send(self, target: int, message: Any) -> None:
        """Send ``message`` to vertex ``target`` (delivered next superstep)."""
        self._outbox.append((self._vid, int(target), message))

    def send_to_neighbors(self, vertex: PregelVertex, message: Any) -> None:
        for t in vertex.out_neighbors:
            self._outbox.append((self._vid, int(t), message))

    # -- control -------------------------------------------------------
    def vote_to_halt(self) -> None:
        self._halt_requested = True

    # -- aggregators ---------------------------------------------------
    def aggregate(self, name: str, value: Any) -> None:
        """Contribute to a registered aggregator (reduced after the
        superstep, visible next superstep)."""
        self._agg_contrib.setdefault(name, []).append(value)

    def aggregated(self, name: str, default: Any = None) -> Any:
        """The reduced value of ``name`` from the previous superstep (or
        a master-compute broadcast)."""
        return self._agg_broadcast.get(name, default)

    @property
    def num_vertices(self) -> int:
        return self._fw.graph.num_vertices


class PregelProgram:
    """Base class for Pregel programs."""

    #: Optional commutative/associative message combiner ``(a, b) -> c``.
    combiner: Optional[Callable[[Any, Any], Any]] = None
    #: name -> reduce function for aggregators.
    aggregators: Dict[str, Callable[[Any, Any], Any]] = {}

    def initial_value(self, vid: int, graph: Graph) -> Any:
        raise NotImplementedError

    def initial_active(self, vid: int, graph: Graph) -> bool:
        return True

    def compute(self, ctx: PregelContext, vertex: PregelVertex, messages: List[Any]) -> None:
        raise NotImplementedError

    def master_compute(self, ctx: PregelContext, aggregated: Dict[str, Any]) -> Dict[str, Any]:
        """Runs after each superstep on the master; the returned dict is
        broadcast and visible via ``ctx.aggregated`` next superstep."""
        return aggregated


class PregelFramework(BaselineFramework):
    """The BSP driver."""

    framework_name = "pregel"

    def run(
        self,
        program: PregelProgram,
        max_supersteps: int = 100_000,
        label: str = "",
    ) -> List[Any]:
        """Run ``program`` to completion and return the vertex values."""
        graph = self.graph
        n = graph.num_vertices
        values: List[Any] = [program.initial_value(v, graph) for v in range(n)]
        halted: List[bool] = [not program.initial_active(v, graph) for v in range(n)]
        inbox: Dict[int, List[Any]] = {}
        ctx = PregelContext(self)
        label = label or type(program).__name__

        superstep = 0
        while True:
            active = [v for v in range(n) if not halted[v] or v in inbox]
            if not active:
                break
            if superstep >= max_supersteps:
                raise ReproError(f"pregel program {label} exceeded {max_supersteps} supersteps")

            rec = self.metrics.new_record("pregel", label)
            rec.frontier_in = len(active)
            ctx.superstep = superstep
            ctx._outbox = []
            ctx._agg_contrib = {}

            for vid in active:
                worker = self.owner(vid)
                messages = inbox.pop(vid, [])
                handle = PregelVertex(vid, self, values[vid])
                ctx._vid = vid
                ctx._halt_requested = False
                sent_before = len(ctx._outbox)
                program.compute(ctx, handle, messages)
                values[vid] = handle.value
                halted[vid] = ctx._halt_requested
                self.metrics.records[-1].worker_ops[worker] += (
                    1 + len(messages) + (len(ctx._outbox) - sent_before)
                )

            # Deliver messages: combine per (source worker, target) to model
            # Pregel+'s sender-side combining, then fully at the receiver.
            inbox = {}
            per_route: Dict[Tuple[int, int], List[Any]] = {}
            for source, target, message in ctx._outbox:
                per_route.setdefault((self.owner(source), target), []).append(message)
            for (src_worker, target), msgs in per_route.items():
                if program.combiner is not None:
                    combined = msgs[0]
                    for m in msgs[1:]:
                        combined = program.combiner(combined, m)
                    msgs = [combined]
                if src_worker != self.owner(target):
                    rec.reduce_messages += len(msgs)
                    rec.reduce_values += sum(_payload_size(m) for m in msgs)
                inbox.setdefault(target, []).extend(msgs)

            # Aggregators: one contribution message per worker per name.
            reduced: Dict[str, Any] = {}
            for name, contributions in ctx._agg_contrib.items():
                fn = program.aggregators.get(name)
                if fn is None:
                    raise ReproError(f"aggregator {name!r} not registered on {label}")
                acc = contributions[0]
                for c in contributions[1:]:
                    acc = fn(acc, c)
                reduced[name] = acc
                rec.reduce_messages += max(self.num_workers - 1, 0)
                rec.reduce_values += max(self.num_workers - 1, 0)
            broadcast = program.master_compute(ctx, reduced)
            if broadcast:
                rec.sync_messages += max(self.num_workers - 1, 0)
                rec.sync_values += sum(_payload_size(v) for v in broadcast.values()) * max(
                    self.num_workers - 1, 0
                )
            ctx._agg_broadcast = broadcast or {}

            rec.frontier_out = len(inbox)
            superstep += 1

        return values
