"""Edge-cut partitioning with master/mirror bookkeeping.

Per the paper (§II, §IV-A): the graph is split into ``m`` disjoint vertex
sets, one per worker.  A vertex is a *master* on the worker that owns it;
every other worker that holds at least one of its neighbors gets a
*mirror* replica used for update propagation ("communicate with necessary
mirrors only", §IV-C).  The simulated runtime charges network messages
according to this map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

import numpy as np

from repro.graph.graph import Graph


class PartitionMap:
    """Ownership and replication layout of a graph over ``m`` workers."""

    def __init__(self, graph: Graph, owner: np.ndarray, num_partitions: int):
        if len(owner) != graph.num_vertices:
            raise ValueError("owner array must have one entry per vertex")
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        if len(owner) and (owner.min() < 0 or owner.max() >= num_partitions):
            raise ValueError("owner ids out of range")
        self._graph = graph
        self._owner = np.asarray(owner, dtype=np.int64)
        self._num_partitions = num_partitions
        self._members: List[np.ndarray] = [
            np.nonzero(self._owner == p)[0] for p in range(num_partitions)
        ]
        # The *necessary mirrors* as one (|V|, P) mask: partition p (other
        # than v's owner) holds at least one in- or out-neighbor of v.
        mask = graph.neighbor_partition_mask(self._owner, num_partitions)
        mask[np.arange(graph.num_vertices), self._owner] = False
        self._mirror_mask: np.ndarray = mask
        self._neighbor_mirror_counts: np.ndarray = np.count_nonzero(mask, axis=1)
        #: ``neighbor_mirrors`` results, derived per vertex on request.
        self._mirror_sets: Dict[int, FrozenSet[int]] = {}

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    def owner_of(self, v: int) -> int:
        """Partition id of the master of vertex ``v``."""
        return int(self._owner[v])

    def owners(self) -> np.ndarray:
        """Owner partition id per vertex (read-only view)."""
        return self._owner

    def members(self, p: int) -> np.ndarray:
        """Vertex ids mastered by partition ``p``."""
        return self._members[p]

    def is_master(self, v: int, p: int) -> bool:
        return int(self._owner[v]) == p

    def neighbor_mirrors(self, v: int) -> FrozenSet[int]:
        """Partitions holding a *necessary* mirror of ``v`` (those with at
        least one neighbor of ``v``)."""
        mirrors = self._mirror_sets.get(v)
        if mirrors is None:
            mirrors = self._mirror_sets[v] = frozenset(
                np.flatnonzero(self._mirror_mask[v]).tolist()
            )
        return mirrors

    def neighbor_mirror_counts(self) -> np.ndarray:
        """``len(neighbor_mirrors(v))`` for every vertex as one array —
        the vectorized barrier charges sync messages from it."""
        return self._neighbor_mirror_counts

    # ------------------------------------------------------------------
    # Aggregate statistics (used by tests and the cost model)
    # ------------------------------------------------------------------
    def replication_factor(self) -> float:
        """Average replicas (master + necessary mirrors) per vertex."""
        n = self._graph.num_vertices
        if n == 0:
            return 0.0
        return (n + int(self._neighbor_mirror_counts.sum())) / n

    def partition_sizes(self) -> List[int]:
        return [len(m) for m in self._members]

    def edge_load(self) -> List[int]:
        """Out-arcs whose source is mastered by each partition — the unit of
        per-worker compute in the cost model."""
        loads = np.bincount(
            self._owner,
            weights=self._graph.out_degrees(),
            minlength=self._num_partitions,
        )
        return loads.astype(np.int64).tolist()

    def cut_arcs(self) -> int:
        """Arcs whose endpoints are mastered by different partitions."""
        out = self._graph.out_csr
        owner = self._owner
        return int((np.repeat(owner, out.degrees()) != owner[out.indices]).sum())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"PartitionMap(partitions={self._num_partitions}, "
            f"sizes={self.partition_sizes()}, rf={self.replication_factor():.2f})"
        )


#: Strategy aliases accepted everywhere a strategy name is taken.
_STRATEGY_ALIASES = {"range": "chunk"}

#: Canonical strategy names, for CLIs and error messages.
PARTITION_STRATEGIES = ("hash", "chunk", "degree")


def partition_owners(graph: Graph, num_partitions: int, strategy: str = "hash") -> np.ndarray:
    """The owner-partition id per vertex for one strategy — the
    deterministic core of :func:`partition_graph`, shared with the
    distributed worker processes (which recompute ownership locally
    instead of shipping the full :class:`PartitionMap`)."""
    n = graph.num_vertices
    strategy = _STRATEGY_ALIASES.get(strategy, strategy)
    if strategy == "hash":
        owner = np.arange(n, dtype=np.int64) % num_partitions
    elif strategy == "chunk":
        owner = (np.arange(n, dtype=np.int64) * num_partitions) // max(n, 1)
    elif strategy == "degree":
        degs = graph.out_degrees()
        order = np.argsort(-degs, kind="stable")
        owner = np.zeros(n, dtype=np.int64)
        load = [0] * num_partitions
        for v in order:
            p = min(range(num_partitions), key=load.__getitem__)
            owner[v] = p
            load[p] += int(degs[v]) + 1
    else:
        raise ValueError(f"unknown partition strategy {strategy!r}")
    return owner


def partition_graph(graph: Graph, num_partitions: int, strategy: str = "hash") -> PartitionMap:
    """Partition a graph's vertices over ``num_partitions`` workers.

    Strategies
    ----------
    ``hash``
        Vertex ``v`` goes to ``v mod m`` — the scheme used by most
        Pregel-like systems, balanced in vertex count.
    ``chunk`` (alias ``range``)
        Contiguous id ranges — mimics locality-preserving partitioners
        (fewer cut edges on id-localized graphs such as road networks).
    ``degree``
        Greedy balance on out-degree: each vertex (in decreasing degree
        order) goes to the currently lightest partition.
    """
    owner = partition_owners(graph, num_partitions, strategy)
    return PartitionMap(graph, owner, num_partitions)


@dataclass(frozen=True)
class PartitionQuality:
    """Quality measures of one partitioning (the quantities that decide
    distributed performance: cut traffic, replication, load balance)."""

    strategy: str
    num_partitions: int
    cut_arcs: int
    cut_ratio: float  #: cut arcs / total arcs
    replication_factor: float  #: avg replicas (master + necessary mirrors)
    mirror_count: int  #: total necessary-mirror entries across vertices
    vertex_balance: float  #: max partition size / ideal size (1.0 = perfect)
    edge_balance: float  #: max partition edge load / ideal load

    def as_dict(self) -> Dict[str, object]:
        return {
            "strategy": self.strategy,
            "num_partitions": self.num_partitions,
            "cut_arcs": self.cut_arcs,
            "cut_ratio": self.cut_ratio,
            "replication_factor": self.replication_factor,
            "mirror_count": self.mirror_count,
            "vertex_balance": self.vertex_balance,
            "edge_balance": self.edge_balance,
        }


def partition_quality(pm: PartitionMap, strategy: str = "") -> PartitionQuality:
    """Measure one :class:`PartitionMap` (see :class:`PartitionQuality`)."""
    g = pm.graph
    num_arcs = g.num_arcs
    cut = pm.cut_arcs()
    sizes = pm.partition_sizes()
    loads = pm.edge_load()
    m = pm.num_partitions
    ideal_size = g.num_vertices / m if m else 0.0
    ideal_load = sum(loads) / m if m else 0.0
    return PartitionQuality(
        strategy=strategy,
        num_partitions=m,
        cut_arcs=cut,
        cut_ratio=cut / num_arcs if num_arcs else 0.0,
        replication_factor=pm.replication_factor(),
        mirror_count=int(pm.neighbor_mirror_counts().sum()),
        vertex_balance=max(sizes) / ideal_size if ideal_size else 1.0,
        edge_balance=max(loads) / ideal_load if ideal_load else 1.0,
    )


def compare_partitioners(
    graph: Graph,
    num_partitions: int,
    strategies: Iterable[str] = ("hash", "range", "degree"),
) -> List[PartitionQuality]:
    """Partition ``graph`` with each strategy and measure the result —
    the hash- vs range-partitioner comparison behind
    ``repro partition-stats``."""
    return [
        partition_quality(partition_graph(graph, num_partitions, s), strategy=s)
        for s in strategies
    ]
