"""A PowerGraph-style Gather-Apply-Scatter framework (Gonzalez et al. [9]).

The GAS model factors a vertex program into three phases executed for
every active vertex each iteration:

* **gather** — combine data over the vertex's (in-)edges with a
  commutative/associative ``accum``;
* **apply** — update the vertex value from the gathered accumulator;
* **scatter** — run over (out-)edges and decide which neighbors to
  activate for the next iteration.

The control flow is *fixed* (one loop to quiescence) and communication
is strictly neighborhood-only — the two restrictions the paper blames
for GAS's limited expressiveness (§II).  Multi-phase algorithms must be
emulated by chaining runs driver-side (values can be threaded through
``initial_values``), paying a data-sharing superstep each time.

Accounting per iteration mirrors PowerGraph's master/mirror protocol:
mirrors send partial gather sums to the master (one reduce message per
remote partition holding neighbors), and the applied value is synced
back to those mirrors.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Set, Tuple

from repro.baselines.base import BaselineFramework
from repro.errors import ReproError
from repro.graph.graph import Graph
from repro.runtime.flashware import values_equal
from repro.runtime.metrics import SuperstepRecord


class GASContext:
    """Read-only execution context passed to the phase functions."""

    def __init__(self, framework: "GASFramework"):
        self.framework = framework
        self.iteration = 0

    @property
    def graph(self) -> Graph:
        return self.framework.graph


class GASProgram:
    """Base class for GAS programs.

    Subclasses override the three phases; ``gather_edges`` /
    ``scatter_edges`` select the edge direction (``"in"``, ``"out"`` or
    ``"both"``, as in PowerGraph).
    """

    gather_edges: str = "in"
    scatter_edges: str = "out"

    def initial_value(self, vid: int, graph: Graph) -> Any:
        raise NotImplementedError

    def initial_active(self, vid: int, graph: Graph) -> bool:
        return True

    def gather(self, ctx: GASContext, vid: int, value: Any, nbr: int, nbr_value: Any) -> Any:
        """Contribution of one neighbor; return ``None`` to contribute
        nothing."""
        return None

    def accum(self, a: Any, b: Any) -> Any:
        """Commutative/associative combination of two gather results."""
        raise NotImplementedError

    def apply(self, ctx: GASContext, vid: int, value: Any, acc: Any) -> Any:
        """New vertex value from the gathered accumulator (``acc`` is
        ``None`` when nothing was gathered)."""
        return value

    def scatter(
        self, ctx: GASContext, vid: int, value: Any, changed: bool, nbr: int, nbr_value: Any
    ) -> bool:
        """Whether to activate ``nbr`` for the next iteration."""
        return False

    def keep_active(self, ctx: GASContext, vid: int, value: Any) -> bool:
        """Whether this vertex re-signals itself (PowerGraph's
        ``signal(self)``) for the next iteration."""
        return False


class GASFramework(BaselineFramework):
    """Synchronous GAS engine with PowerGraph-style accounting."""

    framework_name = "gas"

    def _edges(self, vid: int, direction: str) -> Iterable[int]:
        if direction == "in":
            return self.graph.in_neighbors(vid)
        if direction == "out":
            return self.graph.out_neighbors(vid)
        if direction == "both":
            seen = set(int(u) for u in self.graph.in_neighbors(vid))
            seen.update(int(u) for u in self.graph.out_neighbors(vid))
            return sorted(seen)
        raise ValueError(f"unknown edge direction {direction!r}")

    def _start(self, program: GASProgram, initial_values: Optional[List[Any]],
               initial_active: Optional[Iterable[int]]) -> Tuple[List[Any], Set[int]]:
        graph = self.graph
        n = graph.num_vertices
        if initial_values is not None:
            values = list(initial_values)
        else:
            values = [program.initial_value(v, graph) for v in range(n)]
        if initial_active is not None:
            return values, {int(v) for v in initial_active}
        return values, {v for v in range(n) if program.initial_active(v, graph)}

    def _vertex_step(self, ctx: GASContext, program: GASProgram, rec: SuperstepRecord,
                     vid: int, values: List[Any], out: List[Any], activate: Set[int]) -> None:
        """One gather -> apply -> scatter of ``vid``, charged to ``rec``.
        Reads ``values``; the new value is written to ``out[vid]`` (the
        iteration's snapshot, or ``values`` itself when updates are
        visible immediately) and activated vertices join ``activate``."""
        worker = self.owner(vid)
        # Gather at mirrors, reduce to the master.
        acc: Any = None
        gathered = False
        for nbr in self._edges(vid, program.gather_edges):
            nbr = int(nbr)
            rec.worker_ops[worker] += 1
            contribution = program.gather(ctx, vid, values[vid], nbr, values[nbr])
            if contribution is None:
                continue
            acc = contribution if not gathered else program.accum(acc, contribution)
            gathered = True
        remote = self.partition.neighbor_mirrors(vid)
        if remote and gathered:
            rec.reduce_messages += len(remote)
            rec.reduce_values += len(remote)

        # Apply at the master; sync the new value to mirrors.
        rec.worker_ops[worker] += 1
        new_value = program.apply(ctx, vid, values[vid], acc)
        changed = not values_equal(new_value, values[vid])
        out[vid] = new_value
        if changed and remote:
            rec.sync_messages += len(remote)
            rec.sync_values += len(remote)

        # Scatter along out-edges, activating neighbors.
        for nbr in self._edges(vid, program.scatter_edges):
            nbr = int(nbr)
            rec.worker_ops[worker] += 1
            if program.scatter(ctx, vid, new_value, changed, nbr, values[nbr]):
                activate.add(nbr)
        if program.keep_active(ctx, vid, new_value):
            activate.add(vid)

    def run(
        self,
        program: GASProgram,
        max_iterations: int = 100_000,
        initial_values: Optional[List[Any]] = None,
        initial_active: Optional[Iterable[int]] = None,
        label: str = "",
    ) -> List[Any]:
        """Run ``program`` to quiescence (or ``max_iterations``) and
        return the vertex values.  ``initial_values`` / ``initial_active``
        let a driver chain phases."""
        label = label or type(program).__name__
        values, active = self._start(program, initial_values, initial_active)
        ctx = GASContext(self)
        iteration = 0
        while active:
            if iteration >= max_iterations:
                break
            rec = self.metrics.new_record("gas", label)
            rec.frontier_in = len(active)
            ctx.iteration = iteration
            next_active: Set[int] = set()
            new_values = list(values)
            for vid in sorted(active):
                self._vertex_step(ctx, program, rec, vid, values, new_values, next_active)
            values = new_values
            active = next_active
            rec.frontier_out = len(active)
            iteration += 1
        return values

    def run_async(
        self,
        program: GASProgram,
        max_updates: int = 10_000_000,
        initial_values: Optional[List[Any]] = None,
        initial_active: Optional[Iterable[int]] = None,
        label: str = "",
    ) -> List[Any]:
        """Asynchronous execution: a vertex's update is visible to its
        neighbors *immediately*, and activated vertices join a work queue
        rather than waiting for a barrier (PowerGraph's async engine —
        the paper credits it for GC converging "much faster than a
        BSP-based algorithm", §V-B / App. B-E).

        Deterministic here: the queue is processed in sorted order per
        sweep.  Accounting rolls the whole run into sweeps of one metrics
        record each; messages are charged per remote gather/sync like the
        synchronous engine, but with no barrier rounds.
        """
        label = label or f"async:{type(program).__name__}"
        values, queue = self._start(program, initial_values, initial_active)
        ctx = GASContext(self)
        updates = 0
        while queue:
            rec = self.metrics.new_record("gas_async", label)
            rec.frontier_in = len(queue)
            ctx.iteration += 1
            batch = sorted(queue)
            queue = set()
            for vid in batch:
                updates += 1
                if updates > max_updates:
                    raise ReproError(f"async program {label} exceeded the update budget")
                self._vertex_step(ctx, program, rec, vid, values, values, queue)
            rec.frontier_out = len(queue)
        return values
