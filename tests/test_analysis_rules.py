"""Tests for the critical-property analysis (paper Table II)."""

import pytest

from repro import FlashEngine, Graph, ctrue
from repro.core.analysis import classify_events


class TestTableIIRules:
    def test_dense_source_get_is_critical(self):
        critical, seen = classify_events("edge_map_dense", [("get", "source", "p")])
        assert critical == {"p"}
        assert seen == {"p"}

    def test_dense_target_get_not_critical(self):
        critical, _ = classify_events("edge_map_dense", [("get", "target", "p")])
        assert critical == set()

    def test_dense_target_put_not_critical(self):
        critical, _ = classify_events("edge_map_dense", [("put", "target", "p")])
        assert critical == set()

    def test_sparse_target_get_is_critical(self):
        critical, _ = classify_events("edge_map_sparse", [("get", "target", "p")])
        assert critical == {"p"}

    def test_sparse_target_put_is_critical(self):
        critical, _ = classify_events("edge_map_sparse", [("put", "target", "p")])
        assert critical == {"p"}

    def test_sparse_source_get_not_critical(self):
        critical, _ = classify_events("edge_map_sparse", [("get", "source", "p")])
        assert critical == set()

    def test_vertex_map_never_critical(self):
        critical, seen = classify_events(
            "vertex_map", [("get", "self", "p"), ("put", "self", "p")]
        )
        assert critical == set()
        assert seen == {"p"}


class TestEngineIntegration:
    def _engine(self):
        eng = FlashEngine(Graph.from_edges([(0, 1), (1, 2), (2, 3)]), num_workers=2)
        eng.add_property("a", 0)
        eng.add_property("b", 0)
        return eng

    def test_dense_marks_source_reads(self):
        eng = self._engine()

        def m(s, d):
            d.b = s.a  # reads source.a, writes target.b
            return d

        eng.edge_map_dense(eng.V, eng.E, ctrue, m)
        assert "a" in eng.flashware.critical_properties
        assert "b" not in eng.flashware.critical_properties

    def test_sparse_marks_target_writes(self):
        eng = self._engine()

        def m(s, d):
            d.b = 1
            return d

        eng.edge_map_sparse(eng.V, eng.E, ctrue, m, None, lambda t, d: t)
        assert "b" in eng.flashware.critical_properties

    def test_vertex_map_marks_nothing(self):
        eng = self._engine()

        def m(v):
            v.a = v.b + 1
            return v

        eng.vertex_map(eng.V, ctrue, m)
        assert eng.flashware.critical_properties == set()

    def test_noncritical_props_not_synced(self):
        """A property only used in VERTEXMAP produces zero sync traffic
        with the optimization on (§IV-C)."""
        eng = self._engine()

        def m(v):
            v.a = v.id
            return v

        eng.vertex_map(eng.V, ctrue, m)
        assert eng.metrics.total_sync_values == 0
