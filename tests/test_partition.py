"""Tests for edge-cut partitioning and the master/mirror map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Graph, random_graph
from repro.graph.partition import PartitionMap, partition_graph


@pytest.fixture
def graph():
    return random_graph(30, 60, seed=1)


class TestStrategies:
    @pytest.mark.parametrize("strategy", ["hash", "chunk", "degree"])
    def test_partition_is_disjoint_cover(self, graph, strategy):
        pm = partition_graph(graph, 4, strategy)
        seen = set()
        for p in range(4):
            members = set(int(v) for v in pm.members(p))
            assert not (members & seen)
            seen |= members
        assert seen == set(range(graph.num_vertices))

    def test_hash_assignment(self, graph):
        pm = partition_graph(graph, 3, "hash")
        for v in range(graph.num_vertices):
            assert pm.owner_of(v) == v % 3

    def test_chunk_assignment_contiguous(self, graph):
        pm = partition_graph(graph, 3, "chunk")
        owners = [pm.owner_of(v) for v in range(graph.num_vertices)]
        assert owners == sorted(owners)

    def test_degree_strategy_balances_load(self):
        g = random_graph(60, 200, seed=2)
        pm = partition_graph(g, 4, "degree")
        load = pm.edge_load()
        assert max(load) <= 2 * (sum(load) / len(load)) + max(g.out_degrees())

    def test_unknown_strategy_rejected(self, graph):
        with pytest.raises(ValueError):
            partition_graph(graph, 2, "zigzag")

    def test_single_partition(self, graph):
        pm = partition_graph(graph, 1)
        assert pm.replication_factor() == 1.0
        assert all(pm.neighbor_mirrors(v) == frozenset() for v in range(graph.num_vertices))


class TestMirrors:
    def test_necessary_mirrors_are_neighbor_partitions(self, graph):
        pm = partition_graph(graph, 4)
        for v in range(graph.num_vertices):
            expected = {pm.owner_of(int(u)) for u in graph.out_neighbors(v)}
            expected.discard(pm.owner_of(v))
            assert pm.neighbor_mirrors(v) == frozenset(expected)

    def test_neighbor_mirrors_subset_of_all(self, graph):
        pm = partition_graph(graph, 4)
        for v in range(graph.num_vertices):
            assert pm.neighbor_mirrors(v) <= set(range(4)) - {pm.owner_of(v)}

    def test_directed_mirrors_include_in_neighbors(self):
        g = Graph.from_edges([(0, 1), (2, 1)], directed=True, num_vertices=3)
        pm = partition_graph(g, 3, "hash")
        # vertex 1 has in-neighbors on partitions 0 and 2
        assert pm.neighbor_mirrors(1) == frozenset({0, 2})


class TestStats:
    def test_replication_factor_bounds(self, graph):
        pm = partition_graph(graph, 4)
        assert 1.0 <= pm.replication_factor() <= 4.0

    def test_cut_arcs_zero_on_single_partition(self, graph):
        assert partition_graph(graph, 1).cut_arcs() == 0

    def test_edge_load_sums_to_arcs(self, graph):
        pm = partition_graph(graph, 4)
        assert sum(pm.edge_load()) == graph.num_arcs

    def test_invalid_owner_array_rejected(self, graph):
        with pytest.raises(ValueError):
            PartitionMap(graph, np.zeros(graph.num_vertices + 1, dtype=int), 2)
        with pytest.raises(ValueError):
            PartitionMap(graph, np.full(graph.num_vertices, 5, dtype=int), 2)


def _fixture_graph(directed):
    if not directed:
        return random_graph(30, 60, seed=1)
    return Graph.from_edges(random_graph(30, 60, seed=1).edges(), directed=True,
                            num_vertices=30)


@pytest.mark.parametrize("directed", [False, True], ids=["undirected", "directed"])
@pytest.mark.parametrize("strategy", ["hash", "chunk", "degree"])
class TestBulkMatchesPerElement:
    """The array formulas against the per-vertex / per-arc loops they
    replaced (kept here as the reference)."""

    def test_mirror_layout(self, strategy, directed):
        g = _fixture_graph(directed)
        pm = partition_graph(g, 4, strategy)
        owner = pm.owners()
        expected = []
        for v in range(g.num_vertices):
            parts = set(owner[g.out_neighbors(v)].tolist())
            if g.directed:
                parts.update(owner[g.in_neighbors(v)].tolist())
            parts.discard(int(owner[v]))
            expected.append(frozenset(parts))
        assert [pm.neighbor_mirrors(v) for v in range(g.num_vertices)] == expected
        counts = pm.neighbor_mirror_counts()
        assert counts.dtype == np.int64
        assert counts.tolist() == [len(m) for m in expected]
        assert pm.replication_factor() == sum(1 + len(m) for m in expected) / g.num_vertices
        assert pm.neighbor_mirrors(3) is pm.neighbor_mirrors(3)  # memoised

    def test_edge_load_and_cut_arcs(self, strategy, directed):
        g = _fixture_graph(directed)
        pm = partition_graph(g, 4, strategy)
        owner = pm.owners()
        load = [0] * 4
        for v in range(g.num_vertices):
            load[int(owner[v])] += g.out_degree(v)
        assert pm.edge_load() == load
        assert all(type(x) is int for x in pm.edge_load())
        cut = sum(1 for s, d in g.out_csr.iter_arcs() if owner[s] != owner[d])
        assert pm.cut_arcs() == cut and type(pm.cut_arcs()) is int


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 30),
    m=st.integers(0, 60),
    workers=st.integers(1, 6),
    seed=st.integers(0, 5),
)
def test_partition_invariants(n, m, workers, seed):
    """Property: any partitioning covers V disjointly and replication is
    between 1 and the worker count."""
    g = random_graph(n, m, seed=seed)
    pm = partition_graph(g, workers)
    assert sum(pm.partition_sizes()) == n
    assert 1.0 <= pm.replication_factor() <= workers or n == 0
