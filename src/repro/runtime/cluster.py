"""Cluster topology description.

The paper's testbed is a 4-node cluster, each node with 32 cores at
2.5 GHz and a 10 Gb ethernet (§V-A).  A :class:`ClusterSpec` captures the
knobs the evaluation sweeps — node count (Fig. 4c,d) and per-node core
count (Fig. 4b) — and is consumed by the cost model.

A spec also drives *real* execution: ``FlashEngine(graph,
num_workers=spec.num_workers, executor="mp")`` (or ``run_app(...,
cluster=spec, executor="mp")``) spawns one OS worker process per node
and exchanges actual mirror-synchronization messages between them (see
:mod:`repro.runtime.distributed` and ``docs/distributed.md``).  The
multiprocess executor needs ``nodes >= 2``; a single-node spec keeps the
inline simulator.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClusterSpec:
    """A homogeneous cluster of ``nodes`` machines with ``cores_per_node``
    cores each.  One worker process runs per node (as in the paper, where
    each MPI process holds one graph partition and a thread pool)."""

    nodes: int = 4
    cores_per_node: int = 32

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("cluster needs at least one node")
        if self.cores_per_node < 1:
            raise ValueError("each node needs at least one core")

    @property
    def num_workers(self) -> int:
        """Worker processes — one per node."""
        return self.nodes

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node

    @property
    def distributed(self) -> bool:
        """Whether any inter-node communication exists at all."""
        return self.nodes > 1


#: The paper's evaluation platform (§V-A).
PAPER_CLUSTER = ClusterSpec(nodes=4, cores_per_node=32)

#: A single shared-memory node — the configuration Ligra runs on.
SINGLE_NODE = ClusterSpec(nodes=1, cores_per_node=32)
