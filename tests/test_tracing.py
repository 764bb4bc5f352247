"""Structured tracing: sink behaviour, trace round-trips, runtime
instrumentation, and the central invariant — tracing never changes
accounting (traced and untraced runs produce identical ``Metrics``
for every Table IV app on both backends)."""

import io
import json

import pytest

from repro import load_dataset, random_graph
from repro.__main__ import main
from repro.algorithms import bcc, bfs
from repro.core.config import current_config, use_config
from repro.core.engine import FlashEngine
from repro.runtime.tracing import (
    ChromeTraceSink,
    JsonlSink,
    NULL_TRACER,
    NullTracer,
    RingBufferSink,
    Span,
    Tracer,
    format_trace_summary,
    load_trace,
    mode_flips,
    summarize_by_primitive,
    superstep_spans,
    top_supersteps,
)
from repro.suite import APPS, DIRECTED_APPS, prepare_graph, run_app


@pytest.fixture(scope="module")
def graph():
    return random_graph(40, 120, seed=11)


@pytest.fixture(scope="module")
def directed_graph():
    return load_dataset("OR", scale=0.05, directed=True)


def _trace_run(fn, *args, **kwargs):
    """Run ``fn`` under a fresh ring-buffer tracer; return (result, spans)."""
    sink = RingBufferSink()
    with use_config(tracer=Tracer(sink)):
        result = fn(*args, **kwargs)
    return result, sink.spans()


# ---------------------------------------------------------------------------
# Sinks
# ---------------------------------------------------------------------------
class TestRingBufferSink:
    def test_truncates_to_capacity(self):
        sink = RingBufferSink(capacity=4)
        for i in range(10):
            sink.emit(Span(name=f"s{i}", cat="superstep", ts=float(i)))
        assert sink.emitted == 10
        assert sink.dropped == 6
        assert [s.name for s in sink.spans()] == ["s6", "s7", "s8", "s9"]

    def test_clear(self):
        sink = RingBufferSink(capacity=4)
        sink.emit(Span(name="s", cat="superstep", ts=0.0))
        sink.clear()
        assert sink.spans() == [] and sink.emitted == 0 and sink.dropped == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(path))
        tracer.start("vertexmap", "superstep", seq=0, ops=7).end(frontier_out=3)
        tracer.instant("backend.switch", "dispatch", to="vectorized")
        tracer.close()
        spans = load_trace(path)
        assert [s.name for s in spans] == ["vertexmap", "backend.switch"]
        first = spans[0]
        assert first.cat == "superstep"
        assert first.args == {"seq": 0, "ops": 7, "frontier_out": 3}
        assert first.dur is not None and first.dur >= 0.0
        assert spans[1].dur is None  # instants stay instants

    def test_one_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        for i in range(3):
            sink.emit(Span(name="s", cat="superstep", ts=float(i), dur=0.5))
        sink.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            assert json.loads(line)["name"] == "s"

    def test_accepts_open_file(self):
        buf = io.StringIO()
        sink = JsonlSink(buf)
        sink.emit(Span(name="s", cat="barrier", ts=0.0, dur=1.0))
        sink.close()  # must not close a caller-owned stream
        assert json.loads(buf.getvalue())["cat"] == "barrier"


class TestChromeTraceSink:
    def test_well_formed_trace_event_json(self, tmp_path):
        path = tmp_path / "trace.json"
        sink = ChromeTraceSink(path)
        sink.emit(Span(name="edgemap.pull", cat="superstep", ts=0.001,
                       dur=0.002, args={"seq": 1}))
        sink.emit(Span(name="dsu_union", cat="dsu", ts=0.003))
        sink.close()
        payload = json.loads(path.read_text())
        assert "traceEvents" in payload
        complete, instant = payload["traceEvents"]
        assert complete["ph"] == "X"
        assert complete["ts"] == pytest.approx(1000.0)   # microseconds
        assert complete["dur"] == pytest.approx(2000.0)
        assert complete["args"] == {"seq": 1}
        assert instant["ph"] == "i" and instant["s"] == "g"
        assert {"pid", "tid", "name", "cat"} <= set(complete)

    def test_category_track_mapping(self, tmp_path):
        path = tmp_path / "trace.json"
        sink = ChromeTraceSink(path)
        for cat in ["superstep", "barrier", "recovery", "dsu"]:
            sink.emit(Span(name=cat, cat=cat, ts=0.0, dur=0.1))
        sink.close()
        tids = {e["name"]: e["tid"] for e in
                json.loads(path.read_text())["traceEvents"]}
        assert tids["superstep"] == tids["barrier"]       # same track
        assert tids["recovery"] != tids["superstep"]

    def test_load_trace_converts_back_to_seconds(self, tmp_path):
        path = tmp_path / "trace.json"
        sink = ChromeTraceSink(path)
        sink.emit(Span(name="s", cat="superstep", ts=0.25, dur=0.5))
        sink.close()
        (span,) = load_trace(path)
        assert span.ts == pytest.approx(0.25)
        assert span.dur == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Tracer / ambient installation
# ---------------------------------------------------------------------------
class TestTracer:
    def test_end_is_idempotent(self):
        sink = RingBufferSink()
        handle = Tracer(sink).start("s")
        handle.end()
        handle.end()
        assert sink.emitted == 1

    def test_annotate_accumulates(self):
        sink = RingBufferSink()
        Tracer(sink).start("s", "superstep", a=1).annotate(b=2).end(c=3)
        assert sink.spans()[0].args == {"a": 1, "b": 2, "c": 3}

    def test_span_context_manager(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        with tracer.span("s", "barrier") as handle:
            handle.annotate(x=1)
        (span,) = sink.spans()
        assert span.dur is not None and span.args == {"x": 1}

    def test_fans_out_to_all_sinks(self):
        a, b = RingBufferSink(), RingBufferSink()
        Tracer(a, b).instant("mark")
        assert a.emitted == b.emitted == 1

    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        h1 = NULL_TRACER.start("s")
        h2 = NULL_TRACER.start("t")
        assert h1 is h2                # shared handle: no allocation
        h1.annotate(x=1)
        h1.end()
        NULL_TRACER.instant("mark")
        assert NULL_TRACER.spans_emitted == 0

    def test_config_tracer_installs_and_restores(self):
        tracer = Tracer(RingBufferSink())
        assert current_config().tracer is None
        assert isinstance(FlashEngine(random_graph(4, 4, seed=0)).tracer, NullTracer)
        with use_config(tracer=tracer):
            assert current_config().tracer is tracer
            with use_config(tracer=None):      # None keeps the ambient tracer
                assert current_config().tracer is tracer
        assert current_config().tracer is None


# ---------------------------------------------------------------------------
# Runtime instrumentation
# ---------------------------------------------------------------------------
class TestInstrumentation:
    def test_bfs_spans_carry_attribution(self, graph):
        result, spans = _trace_run(bfs, graph, root=0, num_workers=3)
        steps = superstep_spans(spans)
        assert len(steps) == result.engine.metrics.num_supersteps
        names = {s.name for s in steps}
        assert "vertexmap" in names
        assert names & {"edgemap.pull", "edgemap.push"}
        for s in steps:
            assert s.dur is not None and s.dur >= 0.0
            assert "seq" in s.args and "ops" in s.args
            assert "frontier_in" in s.args and "frontier_out" in s.args
        edgemaps = [s for s in steps if s.name.startswith("edgemap.")]
        assert all(s.args["primitive"] == "EDGEMAP" for s in edgemaps)
        assert all(s.args["mode"] in ("dense", "sparse") for s in edgemaps)
        barriers = [s for s in spans if s.name == "barrier.sync"]
        assert len(barriers) == len(steps)

    def test_superstep_records_match_span_args(self, graph):
        result, spans = _trace_run(bfs, graph, root=0, num_workers=3)
        records = result.engine.metrics.records
        for span, rec in zip(superstep_spans(spans), records):
            assert span.args["index"] == rec.index
            assert span.args["ops"] == rec.total_ops
            assert span.args["frontier_out"] == rec.frontier_out

    def test_backend_attribution(self, graph):
        def run():
            with use_config(backend="vectorized"):
                return bfs(graph, root=0, num_workers=3)
        _, spans = _trace_run(run)
        backends = {s.args.get("backend") for s in superstep_spans(spans)}
        assert "vectorized" in backends
        switches = [s for s in spans if s.name == "backend.switch"]
        assert switches and switches[0].args["to"] == "vectorized"

    def test_dsu_union_instants(self, graph):
        _, spans = _trace_run(bcc, graph, num_workers=3)
        unions = [s for s in spans if s.name == "dsu_union"]
        assert unions
        assert all(s.cat == "dsu" and s.dur is None for s in unions)
        assert all({"x", "y", "components"} <= set(s.args) for s in unions)

    def test_every_variant_engine_inherits_ambient_tracer(self, graph):
        # CC runs both the basic and the optimized variant through
        # separate engines; both must land in the same trace even though
        # Metrics reports only the winner.
        run, spans = _trace_run(
            run_app, "flash", "cc", graph, num_workers=3)
        assert len(superstep_spans(spans)) > run.metrics.num_supersteps

    def test_recovery_spans(self, graph):
        _, spans = _trace_run(
            run_app, "flash", "bfs", graph, num_workers=3, faults="2")
        names = [s.name for s in spans if s.cat == "recovery"]
        assert "rollback" in names
        assert "replay.window" in names
        assert "checkpoint" in names
        rollback = next(s for s in spans if s.name == "rollback")
        assert "failed_seq" in rollback.args and "ckpt_seq" in rollback.args
        aborted = [s for s in superstep_spans(spans) if s.args.get("aborted")]
        assert aborted
        replayed = [s for s in superstep_spans(spans) if s.args.get("replayed")]
        assert replayed


# ---------------------------------------------------------------------------
# The invariant: tracing never changes accounting
# ---------------------------------------------------------------------------
class TestTracedUntracedParity:
    @pytest.mark.parametrize("backend", ["interp", "vectorized"])
    @pytest.mark.parametrize("app", APPS)
    def test_metrics_identical(self, app, backend, graph, directed_graph):
        g = prepare_graph(app, directed_graph if app in DIRECTED_APPS else graph)
        plain = run_app("flash", app, g, num_workers=3, backend=backend)
        traced = run_app("flash", app, g, num_workers=3, backend=backend,
                         tracer=Tracer(RingBufferSink()))
        assert traced.metrics.summary() == plain.metrics.summary(), (app, backend)
        assert traced.values == plain.values, (app, backend)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------
def _synthetic_spans():
    return [
        Span("vertexmap", "superstep", 0.0, 0.010,
             {"seq": 0, "primitive": "VERTEXMAP", "ops": 40,
              "reduce_messages": 0, "sync_messages": 4,
              "reduce_values": 0, "sync_values": 4}),
        Span("barrier.sync", "barrier", 0.008, 0.002, {"seq": 0}),
        Span("edgemap.push", "superstep", 0.010, 0.030,
             {"seq": 1, "primitive": "EDGEMAP", "mode": "sparse",
              "ops": 120, "reduce_messages": 9, "sync_messages": 3,
              "reduce_values": 9, "sync_values": 3, "frontier_in": 5}),
        Span("edgemap.pull", "superstep", 0.040, 0.050,
             {"seq": 2, "primitive": "EDGEMAP", "mode": "dense",
              "ops": 600, "reduce_messages": 0, "sync_messages": 12,
              "reduce_values": 0, "sync_values": 12, "frontier_in": 30}),
        Span("rollback", "recovery", 0.090, 0.001, {"failed_seq": 2}),
    ]


class TestSummaries:
    def test_summarize_by_primitive(self):
        rows = {r["primitive"]: r for r in
                summarize_by_primitive(_synthetic_spans())}
        assert rows["EDGEMAP"]["spans"] == 2
        assert rows["EDGEMAP"]["ops"] == 720
        assert rows["EDGEMAP"]["messages"] == 24
        assert rows["VERTEXMAP"]["wall_s"] == pytest.approx(0.010)
        assert "barrier.sync" not in rows   # only superstep spans

    def test_top_supersteps(self):
        top = top_supersteps(_synthetic_spans(), k=2)
        assert [s.args["seq"] for s in top] == [2, 1]

    def test_mode_flips(self):
        (flip,) = mode_flips(_synthetic_spans())
        assert flip["from"] == "sparse" and flip["to"] == "dense"
        assert flip["seq"] == 2 and flip["frontier_in"] == 30

    def test_format_trace_summary(self):
        text = format_trace_summary(_synthetic_spans(), top=5)
        assert "Per-primitive cost" in text
        assert "EDGEMAP" in text
        assert "mode flips" in text
        assert "rollback x1" in text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def test_run_trace_jsonl_then_summarize(self, tmp_path, capsys):
        path = tmp_path / "bfs.jsonl"
        assert main(["run", "bfs", "OR", "--scale", "0.05",
                     "--trace", str(path)]) == 0
        assert "trace:" in capsys.readouterr().out
        spans = load_trace(path)
        assert superstep_spans(spans)
        assert main(["trace", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Per-primitive cost" in out and "supersteps by wall time" in out

    def test_run_trace_chrome_is_loadable(self, tmp_path, capsys):
        path = tmp_path / "bfs.json"
        assert main(["run", "bfs", "OR", "--scale", "0.05",
                     "--trace", str(path), "--trace-format", "chrome"]) == 0
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]
        assert {e["ph"] for e in payload["traceEvents"]} <= {"X", "i"}
        # and the loader understands the chrome format too
        assert main(["trace", "summarize", str(path)]) == 0
        assert "Per-primitive cost" in capsys.readouterr().out

    def test_summarize_empty_trace_fails(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["trace", "summarize", str(path)]) == 1
        assert "no spans" in capsys.readouterr().out
