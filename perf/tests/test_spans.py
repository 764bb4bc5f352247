import pytest

from perf.spans import Span, SpanRecorder, covered, per_op, self_times


def test_covered_is_the_union_of_intervals():
    assert covered([(1, 4), (3, 6), (8, 9)]) == pytest.approx(6.0)
    assert covered([]) == 0.0


def test_self_time_subtracts_only_direct_children_once():
    spans = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),       # overlaps a: the union covers 5 s
        Span("a.inner", 2.0, 3.0, 1, 0),  # grandchild: charged to a, not to op
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_child_outliving_its_parent_is_clipped():
    spans = [Span("op", 0.0, 2.0, -1, 0), Span("late", 1.0, 5.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_per_op_counts_outermost_primitives_once():
    spans = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("core.engine.edge_map", 1.0, 6.0, 0, 0),
        Span("core.engine.edge_map_dense", 2.0, 5.0, 1, 0),   # delegated
        Span("runtime.flashware.barrier", 4.0, 5.0, 2, 0),
        Span("core.engine.vertex_map", 6.0, 8.0, 0, 0),
        Span("op", 20.0, 21.0, -1, 1),
    ]
    agg = per_op(spans)
    assert agg[0]["wall"] == pytest.approx(10.0)
    assert agg[0]["primitive"] == pytest.approx(7.0)            # 5 + 2, not 5 + 3 + 2
    assert agg[0]["root_self"] == pytest.approx(3.0)
    assert agg[0]["self:core.engine.edge_map"] == pytest.approx(2.0)
    assert agg[0]["self:core.engine.edge_map_dense"] == pytest.approx(2.0)
    assert agg[0]["total:runtime.flashware.barrier"] == pytest.approx(1.0)
    assert agg[0]["calls:runtime.flashware.barrier"] == 1
    assert agg[1] == {"wall": pytest.approx(1.0), "root_self": pytest.approx(1.0)}


def test_nested_same_name_spans_total_once():
    spans = [
        Span("op", 0.0, 4.0, -1, 0),
        Span("runtime.distributed.request", 0.0, 3.0, 0, 0),   # broadcast
        Span("runtime.distributed.request", 1.0, 2.0, 1, 0),   # its request_many
    ]
    agg = per_op(spans)[0]
    assert agg["total:runtime.distributed.request"] == pytest.approx(3.0)
    assert agg["calls:runtime.distributed.request"] == 2


class _Layer:
    def entry(self, x):
        return self.helper(x) + 1

    def helper(self, x):
        return 2 * x


def test_instrument_rebinds_one_instance_and_restores():
    rec = SpanRecorder()
    spanned, untouched = _Layer(), _Layer()
    rec.instrument(spanned, {"entry": "layer.entry", "helper": "layer.helper"})
    with rec.operation() as op:
        assert spanned.entry(3) == 7
        assert untouched.entry(3) == 7
    names = [(s.name, s.parent, s.op) for s in rec.spans]
    assert names == [("op", -1, op), ("layer.entry", 0, op), ("layer.helper", 1, op)]
    assert all(s.end >= s.start for s in rec.spans)
    rec.restore(spanned, ["entry", "helper"])
    spanned.entry(1)
    assert len(rec.spans) == 3
