"""Shared substrate for the baseline frameworks.

All baselines partition the graph the same way FLASH does and record
into the same :class:`~repro.runtime.metrics.Metrics`, so the cost model
compares like with like.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.graph.graph import Graph
from repro.graph.partition import PartitionMap, partition_graph
from repro.runtime.cluster import ClusterSpec
from repro.runtime.costmodel import CostBreakdown, CostModel
from repro.runtime.metrics import Metrics


@dataclass
class BaselineResult:
    """Outcome of a baseline algorithm run."""

    name: str
    framework: str
    values: Any
    metrics: Metrics
    iterations: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    def cost(self, cluster: Optional[ClusterSpec] = None, model: Optional[CostModel] = None) -> CostBreakdown:
        if cluster is None:
            cluster = ClusterSpec(nodes=self.metrics.num_workers, cores_per_node=32)
        return (model or CostModel()).estimate(self.metrics, cluster)


class BaselineFramework:
    """Base class: graph + partitioning + metrics."""

    framework_name = "baseline"

    def __init__(self, graph: Graph, num_workers: int = 4, partition_strategy: str = "hash"):
        self.graph = graph
        self.partition: PartitionMap = partition_graph(graph, num_workers, partition_strategy)
        self.metrics = Metrics(num_workers)

    @property
    def num_workers(self) -> int:
        return self.partition.num_partitions

    def owner(self, vid: int) -> int:
        return self.partition.owner_of(vid)

    def chain_cost(self, label: str = "chain") -> None:
        """Charge the data-sharing superstep between chained sub-algorithms
        (the paper: "the data sharing time ... among sub-algorithms will
        be recorded")."""
        rec = self.metrics.new_record(f"{self.framework_name}_chain", label)
        n = self.graph.num_vertices
        per_worker = n // max(self.num_workers, 1) + 1
        for w in range(self.num_workers):
            rec.worker_ops[w] = per_worker
        rec.sync_messages += self.num_workers
        rec.sync_values += n
