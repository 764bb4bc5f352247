"""Out-of-core backend parity: ``backend="oocore"`` must be
observationally identical to the in-memory backends — same values and
the same charged metrics — across the whole Table IV suite (the sweep
itself is ``tests/parity.py``, shared with the vectorized backend), with
the only allowed difference being the two I/O counters (``blocks_read``
/ ``bytes_read``) that the block scheduler charges and the in-memory
backends never do.

Also covers: the low-memory-budget configuration (evictions forced,
results unchanged), per-kernel fallback to the interpreted path,
compile-time spec synthesis over blocks, engine close releasing every
mmap (no file-descriptor leak across repeated runs), and the CLI
surface.
"""

import os

import numpy as np
import pytest

from parity import SPECCED_APPS, SuiteParity, strip_io
from repro import random_graph
from repro.__main__ import main
from repro.algorithms import bfs, kcore_opt, pagerank, sssp
from repro.core.config import EngineConfig, current_config, use_config
from repro.core.engine import FlashEngine
from repro.core.primitives import ctrue
from repro.runtime.tracing import RingBufferSink, Tracer
from repro.runtime.vectorized import EdgeMapSpec
from repro.suite import run_app

@pytest.fixture(scope="module")
def graph():
    return random_graph(40, 120, seed=11)


@pytest.fixture(scope="module")
def weighted(graph):
    return graph.with_random_weights(seed=7)


def _suite_pair(app, graph, **kwargs):
    vec = run_app("flash", app, graph, num_workers=3, backend="vectorized", **kwargs)
    with use_config(oocore_interval=8):
        ooc = run_app("flash", app, graph, num_workers=3, backend="oocore", **kwargs)
    return vec, ooc


# ---------------------------------------------------------------------------
# Whole-suite sweep
# ---------------------------------------------------------------------------
class TestSuiteParity(SuiteParity):
    backend = "oocore"

    @pytest.mark.parametrize("app", sorted(SPECCED_APPS - {"kc"}) + ["mis", "bc"])
    def test_compile_analysis_parity(self, app, graph):
        """Synthesized specs — forced, so they replace the hand specs
        wherever synthesis succeeds — must stream through the block
        kernels with the same values and charged metrics too."""
        with use_config(force_synthesis=True):
            vec, ooc = _suite_pair(app, graph)
        assert ooc.values == vec.values, app
        vec_summary, _ = strip_io(vec.metrics.summary())
        ooc_summary, _ = strip_io(ooc.metrics.summary())
        assert ooc_summary == vec_summary, app


# ---------------------------------------------------------------------------
# Bit-identity for float-valued and weighted algorithms
# ---------------------------------------------------------------------------
class TestBitIdentity:
    def _values_array(self, result):
        values = result.values
        if isinstance(values, dict):
            values = [values[k] for k in sorted(values)]
        return np.asarray(values, dtype=np.float64)

    def test_pagerank_bit_identical(self, graph):
        with use_config(backend="vectorized"):
            a = pagerank(graph, num_workers=3, max_iters=10)
        with use_config(backend="oocore", oocore_interval=8):
            b = pagerank(graph, num_workers=3, max_iters=10)
        # exact float equality: the block layout replays the in-CSR arc
        # order, so every float sum folds in the same sequence
        assert np.array_equal(self._values_array(a), self._values_array(b))
        assert b.engine.metrics.backend_choices.get("oocore", 0) > 0

    def test_sssp_weighted_bit_identical(self, weighted):
        with use_config(backend="vectorized"):
            a = sssp(weighted, root=0, num_workers=3)
        with use_config(backend="oocore", oocore_interval=8):
            b = sssp(weighted, root=0, num_workers=3)
        assert np.array_equal(self._values_array(a), self._values_array(b))
        assert b.engine.metrics.total_bytes_read > 0  # weight shards read


# ---------------------------------------------------------------------------
# Memory-budget configurations
# ---------------------------------------------------------------------------
class TestBudget:
    def test_low_budget_same_results(self, graph):
        """A budget so small that only one block fits must force
        evictions without changing values or charged metrics — only the
        I/O counters grow (the same block is re-read)."""
        vec, _ = _suite_pair("bfs", graph)
        with use_config(oocore_interval=8, oocore_budget=1):
            low = run_app("flash", "bfs", graph, num_workers=3, backend="oocore")
        assert low.values == vec.values
        vec_summary, _ = strip_io(vec.metrics.summary())
        low_summary, low_io = strip_io(low.metrics.summary())
        assert low_summary == vec_summary
        # With nothing retained across supersteps, every visit is a read.
        _, ooc = _suite_pair("bfs", graph)
        _, ample_io = strip_io(ooc.metrics.summary())
        assert low_io[0] >= ample_io[0]

    def test_engine_budget_kwarg(self, graph):
        with FlashEngine(graph, num_workers=3, backend="oocore",
                         oocore_budget=1, oocore_interval=8) as eng:
            bfs(eng, root=0)
            store = eng._col.arcs.store
            assert store.budget == 1
            assert store.blocks_evicted > 0

    def test_ambient_options(self):
        assert current_config() == EngineConfig()
        with use_config(oocore_budget=123, oocore_interval=4):
            assert current_config().oocore_budget == 123
            assert current_config().oocore_interval == 4
            with use_config(oocore_budget=456):
                assert current_config().oocore_budget == 456
                assert current_config().oocore_interval == 4
        assert current_config() == EngineConfig()


# ---------------------------------------------------------------------------
# Per-kernel fallback
# ---------------------------------------------------------------------------
class TestFallback:
    def test_kcore_opt_mixes_backends(self, graph):
        """kcore_opt's histogram supersteps carry no spec and must fall
        back to the interpreted kernels within the same oocore run."""
        with use_config(backend="vectorized"):
            a = kcore_opt(graph, num_workers=3)
        with use_config(backend="oocore", oocore_interval=8):
            b = kcore_opt(graph, num_workers=3)
        assert b.values == a.values
        assert b.engine.metrics.summary() == {
            **a.engine.metrics.summary(),
            "blocks_read": b.engine.metrics.total_blocks_read,
            "bytes_read": b.engine.metrics.total_bytes_read,
        }
        choices = b.engine.metrics.backend_choices
        assert choices.get("oocore", 0) > 0
        assert choices.get("interp", 0) > 0


# ---------------------------------------------------------------------------
# Resource lifecycle
# ---------------------------------------------------------------------------
def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestClose:
    def test_no_fd_leak_across_runs(self, graph):
        """Repeated engine runs must not leak mmap file descriptors —
        close() releases every mapped shard and the temporary store."""
        # Warm up import-time/file-cache descriptors first.
        with FlashEngine(graph, num_workers=3, backend="oocore",
                         oocore_interval=8) as eng:
            bfs(eng, root=0)
        baseline = _open_fds()
        for _ in range(5):
            with FlashEngine(graph, num_workers=3, backend="oocore",
                             oocore_interval=8) as eng:
                bfs(eng, root=0)
            assert _open_fds() <= baseline
        assert _open_fds() <= baseline

    def test_close_idempotent(self, graph):
        eng = FlashEngine(graph, num_workers=3, backend="oocore",
                          oocore_interval=8)
        bfs(eng, root=0)
        runtime = eng._col.arcs
        eng.close()
        assert runtime.store.closed
        eng.close()  # second close is a no-op

    def test_store_directory_cleaned_up(self, graph):
        eng = FlashEngine(graph, num_workers=3, backend="oocore",
                          oocore_interval=8)
        directory = eng._col.arcs.store.directory
        assert directory.exists()
        eng.close()
        assert not directory.exists()  # temporary store removed with engine


# ---------------------------------------------------------------------------
# A kernel that raises mid-stream
# ---------------------------------------------------------------------------
class TestKernelFailure:
    def test_failed_block_is_in_the_trace(self, graph):
        """A spec value that raises on the second streamed block must
        leave that block's ``oocore.block`` span in the trace (flagged
        ``error``), abort the superstep, and not leak any mmap."""
        calls = []

        def value(k):
            calls.append(len(k))
            if len(calls) == 2:
                raise RuntimeError("boom")
            return k.sp("rank")

        def scatter(s, d):
            d.acc = d.acc + s.rank
            return d

        spec = EdgeMapSpec(prop="acc", reduce="sum", value=value,
                           reads=("rank", "acc"))
        sink = RingBufferSink()
        eng = FlashEngine(graph, num_workers=3, backend="oocore",
                          oocore_interval=8, tracer=Tracer(sink))
        baseline = _open_fds()
        eng.add_property("rank", 1.0)
        eng.add_property("acc", 0.0)
        with pytest.raises(RuntimeError, match="boom"):
            eng.edge_map_dense(eng.V, eng.E, ctrue, scatter, ctrue, spec=spec)

        blocks = [s for s in sink.spans() if s.name == "oocore.block"]
        assert len(blocks) == 2  # the failing block is not missing
        assert "error" not in blocks[0].args
        assert blocks[1].args["error"] is True
        assert blocks[1].args["mode"] == "pull.scan"
        (superstep,) = [s for s in sink.spans() if s.name == "edgemap.pull"]
        assert superstep.args["aborted"] is True
        assert blocks[1].ts + blocks[1].dur <= superstep.ts + superstep.dur
        (record,) = eng.metrics.records
        assert record.aborted

        store = eng._col.arcs.store
        assert store.mapped_bytes > 0
        eng.close()
        assert store.closed and store.mapped_bytes == 0
        assert _open_fds() <= baseline


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
class TestCLI:
    def test_run_oocore_flag(self, capsys):
        assert main(["run", "bfs", "OR", "--scale", "0.05",
                     "--workers", "2", "--backend", "oocore",
                     "--oocore-budget-mb", "1"]) == 0
        out = capsys.readouterr().out
        assert "backend: oocore" in out
        assert "'oocore'" in out  # backend_choices show oocore supersteps
        assert "'blocks_read': " in out

    def test_compare_shows_io_line(self, capsys):
        assert main(["compare", "bfs", "OR", "--scale", "0.05",
                     "--workers", "2", "--backend", "oocore"]) == 0
        out = capsys.readouterr().out
        assert "flash[oocore]" in out
        assert "out-of-core I/O" in out
