"""The property graph type shared by FLASH and the baseline frameworks.

A :class:`Graph` is immutable once constructed (per the paper, edges are
viewed as immutable objects; all mutable state lives in vertex properties
managed by the runtime).  It offers out/in adjacency in CSR form, degree
accessors, optional per-edge weights and a handful of structural helpers
used by tests and algorithms.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSR

EdgeTuple = Tuple[int, int]
WeightedEdgeTuple = Tuple[int, int, float]


class Graph:
    """A directed or undirected (property) graph.

    Parameters
    ----------
    num_vertices:
        Number of vertices; ids are dense integers ``0 .. n-1``.
    edges:
        Iterable of ``(source, target)`` pairs.  For undirected graphs each
        pair is stored once but traversed in both directions.
    directed:
        Whether edges are one-way.
    weights:
        Optional per-edge weights, parallel to ``edges``.
    """

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[EdgeTuple],
        directed: bool = False,
        weights: Optional[Sequence[float]] = None,
    ):
        edge_list = [(int(s), int(d)) for s, d in edges]
        if num_vertices < 0:
            raise ValueError("num_vertices must be non-negative")
        for s, d in edge_list:
            if not (0 <= s < num_vertices and 0 <= d < num_vertices):
                raise ValueError(f"edge ({s}, {d}) out of range for {num_vertices} vertices")

        self._num_vertices = num_vertices
        self._edges: List[EdgeTuple] = edge_list
        self._directed = directed

        if weights is not None:
            if len(weights) != len(edge_list):
                raise ValueError("weights must be parallel to edges")
            self._weights: Optional[np.ndarray] = np.asarray(weights, dtype=np.float64)
        else:
            self._weights = None

        src = np.fromiter((e[0] for e in edge_list), dtype=np.int64, count=len(edge_list))
        dst = np.fromiter((e[1] for e in edge_list), dtype=np.int64, count=len(edge_list))
        if directed:
            self._out = CSR.from_arcs(num_vertices, src, dst)
            self._in = CSR.from_arcs(num_vertices, dst, src)
        else:
            both_src = np.concatenate([src, dst])
            both_dst = np.concatenate([dst, src])
            csr = CSR.from_arcs(num_vertices, both_src, both_dst)
            # Arcs beyond len(edge_list) are the mirrored copies; fold their
            # ids back onto the originating undirected edge.
            csr.arc_ids = csr.arc_ids % max(len(edge_list), 1)
            self._out = csr
            self._in = csr

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """|V|."""
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        """|E| — logical edges as supplied (undirected edges counted once)."""
        return len(self._edges)

    @property
    def num_arcs(self) -> int:
        """Stored directed arcs (2|E| for undirected graphs)."""
        return self._out.num_arcs

    @property
    def directed(self) -> bool:
        return self._directed

    @property
    def weighted(self) -> bool:
        return self._weights is not None

    @property
    def out_csr(self) -> CSR:
        return self._out

    @property
    def in_csr(self) -> CSR:
        return self._in

    def vertices(self) -> range:
        """Iterable over all vertex ids."""
        return range(self._num_vertices)

    def edges(self) -> List[EdgeTuple]:
        """The logical edge list as supplied at construction."""
        return list(self._edges)

    def weighted_edges(self) -> Iterator[WeightedEdgeTuple]:
        """Yield ``(source, target, weight)``; weight defaults to 1.0."""
        if self._weights is None:
            for s, d in self._edges:
                yield s, d, 1.0
        else:
            for (s, d), w in zip(self._edges, self._weights):
                yield s, d, float(w)

    def edge_weight(self, arc_id: int) -> float:
        """Weight of the logical edge with index ``arc_id``."""
        if self._weights is None:
            return 1.0
        return float(self._weights[arc_id])

    def arc_weights(self, arc_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`edge_weight`: weights for an array of arc
        ids (all 1.0 for unweighted graphs)."""
        if self._weights is None:
            return np.ones(len(arc_ids), dtype=np.float64)
        return self._weights[arc_ids]

    def weight(self, s: int, d: int) -> float:
        """Weight of the arc ``s -> d`` (1.0 for unweighted graphs)."""
        neighbors, arcs = self._out.neighbor_arcs(s)
        pos = int(np.searchsorted(neighbors, d))
        if pos >= len(neighbors) or neighbors[pos] != d:
            raise KeyError(f"no edge ({s}, {d})")
        return self.edge_weight(int(arcs[pos]))

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def out_neighbors(self, v: int) -> np.ndarray:
        """Sorted out-neighbor ids of ``v``."""
        return self._out.neighbors(v)

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sorted in-neighbor ids of ``v`` (== out for undirected)."""
        return self._in.neighbors(v)

    def out_degree(self, v: int) -> int:
        return self._out.degree(v)

    def in_degree(self, v: int) -> int:
        return self._in.degree(v)

    def degree(self, v: int) -> int:
        """Total degree: out-degree for undirected, in+out for directed."""
        if self._directed:
            return self.out_degree(v) + self.in_degree(v)
        return self.out_degree(v)

    def out_degrees(self) -> np.ndarray:
        return self._out.degrees()

    def in_degrees(self) -> np.ndarray:
        return self._in.degrees()

    def degrees(self) -> np.ndarray:
        if self._directed:
            return self._out.degrees() + self._in.degrees()
        return self._out.degrees()

    def neighbor_partition_mask(
        self, owner: np.ndarray, num_partitions: int
    ) -> np.ndarray:
        """``(n, P)`` boolean mask: partition ``p`` holds an in- or
        out-neighbor of vertex ``v`` — what
        :class:`~repro.graph.partition.PartitionMap` lays mirrors out
        from, in one pass over the CSR arrays."""
        n = self._num_vertices
        mask = np.zeros(n * num_partitions, dtype=bool)
        for csr in (self._out, self._in) if self._directed else (self._out,):
            # flat (vertex, owner-of-neighbor) cell of every arc
            cell = np.repeat(
                np.arange(0, n * num_partitions, num_partitions, dtype=np.int64),
                csr.degrees(),
            )
            cell += owner[csr.indices]
            mask[cell] = True
        return mask.reshape(n, num_partitions)

    def has_edge(self, s: int, d: int) -> bool:
        """True when an arc ``s -> d`` exists (either direction stored for
        undirected graphs)."""
        return self._out.has_arc(s, d)

    # ------------------------------------------------------------------
    # Constructors & transforms
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[EdgeTuple],
        directed: bool = False,
        num_vertices: Optional[int] = None,
        weights: Optional[Sequence[float]] = None,
    ) -> "Graph":
        """Build a graph from an edge list, inferring |V| when omitted."""
        edge_list = [(int(s), int(d)) for s, d in edges]
        if num_vertices is None:
            num_vertices = 1 + max((max(s, d) for s, d in edge_list), default=-1)
        return cls(num_vertices, edge_list, directed=directed, weights=weights)

    def reverse(self) -> "Graph":
        """The graph with every edge direction flipped."""
        weights = list(self._weights) if self._weights is not None else None
        return Graph(
            self._num_vertices,
            [(d, s) for s, d in self._edges],
            directed=self._directed,
            weights=weights,
        )

    def as_undirected(self) -> "Graph":
        """An undirected copy (duplicate arcs collapsed, self-loops kept)."""
        if not self._directed:
            return self
        seen = set()
        edges = []
        weights = [] if self._weights is not None else None
        for idx, (s, d) in enumerate(self._edges):
            key = (min(s, d), max(s, d))
            if key in seen:
                continue
            seen.add(key)
            edges.append(key)
            if weights is not None:
                weights.append(float(self._weights[idx]))
        return Graph(self._num_vertices, edges, directed=False, weights=weights)

    def subgraph(self, vertices: Iterable[int]) -> Tuple["Graph", List[int]]:
        """The induced subgraph on ``vertices``.

        Returns ``(subgraph, mapping)`` where ``mapping[new_id]`` is the
        original vertex id (vertices are renumbered densely in sorted
        order).  Weights are carried over.
        """
        keep = sorted({int(v) for v in vertices})
        for v in keep:
            if not 0 <= v < self._num_vertices:
                raise ValueError(f"vertex {v} out of range")
        index = {old: new for new, old in enumerate(keep)}
        edges = []
        weights: Optional[List[float]] = [] if self._weights is not None else None
        for arc_id, (s, d) in enumerate(self._edges):
            if s in index and d in index:
                edges.append((index[s], index[d]))
                if weights is not None:
                    weights.append(float(self._weights[arc_id]))
        sub = Graph(len(keep), edges, directed=self._directed, weights=weights)
        return sub, keep

    def with_random_weights(self, seed: int = 0, low: float = 1.0, high: float = 100.0) -> "Graph":
        """A copy with uniformly random edge weights (paper §V-A: "random
        weights are added to each of the edges if necessary")."""
        rng = np.random.default_rng(seed)
        weights = rng.uniform(low, high, size=len(self._edges))
        return Graph(self._num_vertices, list(self._edges), directed=self._directed, weights=weights)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        kind = "directed" if self._directed else "undirected"
        return f"Graph({kind}, |V|={self.num_vertices}, |E|={self.num_edges})"
