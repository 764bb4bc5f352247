"""One engine configuration: the frozen ``EngineConfig`` record, its one
ambient scope and its one validator.

* the ambient record is per thread (a ``ContextVar``): a scope on one
  thread is invisible on another, and scopes that exit out of order
  across threads leave the process default untouched;
* a ``GraphServer`` resolves its record once, so a replacement engine
  runs the settings its pool was built with, on any thread;
* every invalid setting raises ``FlashUsageError``, whichever entry
  point it reaches;
* the command line's engine flags reach FLASH only: ``compare`` runs
  its baselines under the caller's record whatever the flags say;
* the structural guard: no ambient setting outside the record, one
  engine flag group on the command line, and the removed analysis
  settings stay removed (the frozen benchmark's values excepted).
"""

from __future__ import annotations

import ast
import asyncio
import inspect
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro import FlashEngine, FlashUsageError, random_graph
from repro.__main__ import ENGINE_FLAGS, build_parser, main
from repro.core.config import EngineConfig, current_config, use_config
from repro.serving.server import GraphServer
from repro.suite import run_app

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


@pytest.fixture(scope="module")
def graph():
    return random_graph(40, 120, seed=11)


def _settings(engine):
    engine.close()
    return engine.backend, engine.num_workers


# ---------------------------------------------------------------------------
# The ambient record is per thread
# ---------------------------------------------------------------------------
def test_a_scope_on_one_thread_is_invisible_on_another(graph):
    entered, built = threading.Event(), threading.Event()

    def holder():
        with use_config(backend="vectorized", num_workers=3):
            entered.set()
            built.wait(10)

    thread = threading.Thread(target=holder)
    thread.start()
    try:
        assert entered.wait(10)
        engine = FlashEngine(graph)
    finally:
        built.set()
        thread.join()
    assert _settings(engine) == ("interp", 4)


def test_interleaved_exits_leave_the_default(graph):
    """A enters, B enters, A exits, B exits: each thread keeps seeing its
    own scope, and afterwards the default is what it was."""
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def thread_a():
        with use_config(backend="vectorized"):
            a_in.set()
            b_in.wait(10)
            seen["a"] = _settings(FlashEngine(graph))[0]
        a_out.set()

    def thread_b():
        a_in.wait(10)
        with use_config(backend="oocore"):
            b_in.set()
            a_out.wait(10)
            seen["b"] = _settings(FlashEngine(graph))[0]

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert seen == {"a": "vectorized", "b": "oocore"}
    assert current_config() == EngineConfig()
    assert _settings(FlashEngine(graph)) == ("interp", 4)


def test_scope_nests_and_none_keeps_the_value():
    with use_config(backend="vectorized", num_workers=3) as outer:
        assert current_config() is outer
        with use_config(backend=None, dense_threshold=7) as inner:
            assert (inner.backend, inner.num_workers, inner.dense_threshold) == (
                "vectorized", 3, 7)
        assert current_config() is outer
    assert current_config() == EngineConfig()


def test_engine_keywords_layer_over_the_ambient_record(graph):
    with use_config(backend="vectorized", dense_threshold=5, num_workers=3):
        engine = FlashEngine(graph, dense_threshold=7)
        given = FlashEngine(graph, EngineConfig(num_workers=2), backend="oocore")
    assert engine.config == EngineConfig(backend="vectorized", dense_threshold=7,
                                         num_workers=3)
    assert (engine.num_workers, engine.backend, engine.dense_threshold) == (
        3, "vectorized", 7)
    # an explicit record replaces the ambient one; overrides still layer
    assert given.config == EngineConfig(num_workers=2, backend="oocore")
    for e in (engine, given):
        e.close()


# ---------------------------------------------------------------------------
# A server's engines all come from the record it resolved
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("fields, check", [
    (dict(backend="vectorized"), lambda e: e.backend == "vectorized"),
    (dict(backend="oocore", oocore_budget=1),
     lambda e: e.backend == "oocore" and e._col.arcs.store.budget == 1),
], ids=["backend", "oocore-budget"])
def test_replacement_engine_matches_the_pool(graph, fields, check):
    async def scenario():
        with use_config(**fields):
            server = GraphServer(graph, engine_pool=1, num_workers=2)
            await server.start()
        try:
            ((_, pooled),) = list(server._engines.queue)
            on_loop = server._build_engine()
            with ThreadPoolExecutor(max_workers=1) as pool:
                on_thread = await asyncio.get_running_loop().run_in_executor(
                    pool, server._build_engine)
            engines = [pooled, on_loop, on_thread]
            results = [check(e) for e in engines]
            for engine in (on_loop, on_thread):
                engine.close()
            return results
        finally:
            await server.stop()

    assert asyncio.run(scenario()) == [True, True, True]


# ---------------------------------------------------------------------------
# One validator, one error type
# ---------------------------------------------------------------------------
INVALID = {
    "unknown-backend": dict(backend="auto"),
    "unknown-executor": dict(executor="threads"),
    "mp-vectorized": dict(executor="mp", backend="vectorized"),
    "mp-one-worker": dict(executor="mp", num_workers=1),
}

#: Names that are not fields, where a record is layered (``run_app``
#: takes neither ``analysis`` nor engine keywords beyond its own).
INVALID_FIELDS = {
    "unknown-analysis": dict(analysis="nope"),
    "unknown-setting": dict(cluster=None),
}


def _flash_engine(graph, fields):
    FlashEngine(graph, **fields).close()


def _run_app(graph, fields):
    run_app("flash", "bfs", graph, **fields)


def _use_config(graph, fields):
    with use_config(**fields):
        pass


def test_explicit_mp_over_an_ambient_backend_is_refused(graph):
    """An explicit ``executor="mp"`` does not override an ambient
    non-``interp`` backend: the layered record is invalid."""
    with use_config(backend="vectorized"):
        with pytest.raises(FlashUsageError, match="backend must be 'interp'"):
            FlashEngine(graph, executor="mp")
        with pytest.raises(FlashUsageError, match="backend must be 'interp'"):
            run_app("flash", "bfs", graph, executor="mp")


_ENTRIES = {"FlashEngine": _flash_engine, "run_app": _run_app, "use_config": _use_config}


@pytest.mark.parametrize("entry, fields", [
    pytest.param(_ENTRIES[entry], fields, id=f"{entry}-{name}")
    for entry in _ENTRIES
    for name, fields in {
        **INVALID, **({} if entry == "run_app" else INVALID_FIELDS)
    }.items()
])
def test_every_invalid_setting_raises_flash_usage_error(graph, entry, fields):
    with pytest.raises(FlashUsageError):
        entry(graph, fields)
    assert current_config() == EngineConfig()


# ---------------------------------------------------------------------------
# The removed analysis settings
# ---------------------------------------------------------------------------
def test_the_frozen_benchmark_keywords_still_construct(graph, monkeypatch):
    """``perf/workloads.py`` passes the removed settings at the values
    that are now the one behaviour; they are accepted and ignored."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perf.workloads import ENGINE_KW

    assert {"auto_analyze", "analysis", "remote_promotion"} <= set(ENGINE_KW)
    engine = FlashEngine(graph, **ENGINE_KW)
    assert engine.config == EngineConfig()
    engine.close()


@pytest.mark.parametrize("fields", [
    dict(analysis="trace"), dict(auto_analyze=False), dict(remote_promotion=False),
], ids=["analysis", "auto_analyze", "remote_promotion"])
def test_a_removed_setting_names_itself(graph, fields):
    (name,) = fields
    with pytest.raises(FlashUsageError, match=f"removed engine setting '{name}'"):
        FlashEngine(graph, **fields)
    with pytest.raises(FlashUsageError, match=f"removed engine setting '{name}'"):
        with use_config(**fields):
            pass


def test_building_an_engine_loads_no_kernel_compiler():
    """The communication plan is created with the first kernel's
    analysis, so constructing an engine leaves the compiler unloaded."""
    code = (
        "import sys; from repro import FlashEngine, random_graph; "
        "FlashEngine(random_graph(20, 40, seed=1), backend='vectorized').close(); "
        "print(sorted(m for m in sys.modules if m.startswith('repro.analysis.compile')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# The engine flags reach FLASH only
# ---------------------------------------------------------------------------
def _compare_rows(capsys, *flags):
    assert main(["compare", "cc", "OR", "--scale", "0.08", *flags]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines[3:] if line.strip()]
    return {row[0]: row[1:] for row in rows if len(row) == 4}


def test_compare_runs_the_baselines_under_the_callers_record(capsys):
    plain = _compare_rows(capsys)
    oocore = _compare_rows(capsys, "--backend", "oocore", "--oocore-budget-mb", "1")
    baselines = {"pregel", "gas", "gemini", "ligra"}
    assert baselines <= set(plain)
    assert {k: oocore[k] for k in baselines} == {k: plain[k] for k in baselines}
    assert "flash[oocore]" in oocore


def test_compare_takes_the_mp_executor(capsys):
    rows = _compare_rows(capsys, "--executor", "mp", "--workers", "2")
    assert {"ligra", "gemini", "flash[mp]"} <= set(rows)
    assert current_config() == EngineConfig()


# ---------------------------------------------------------------------------
# Structural guard
# ---------------------------------------------------------------------------
#: The ambient mechanisms the record replaced; none may come back.
DELETED = {
    "use_backend", "default_backend", "_default_backend",
    "use_analysis", "default_analysis", "default_remote_promotion",
    "_default_analysis", "_default_remote_promotion",
    "OocoreOptions", "_ambient", "current_oocore_options", "use_oocore",
    "use_tracer", "current_tracer", "_default_tracer",
    "force_synthesis", "synthesis_forced", "_force",
    "ANALYSIS_MODES", "_STATIC_MODES",
}

#: Engine settings that left the record, the engine's keywords and the
#: command line (``run_app`` keeps its own ``cluster``).
REMOVED_SETTINGS = {"analysis", "remote_promotion", "auto_analyze", "cluster"}


def _defined_names(tree: ast.Module):
    """Functions and classes anywhere, plus module-level assignments and
    import aliases (a re-export or alias counts as a definition)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
    for node in tree.body:
        if isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)


def test_one_config():
    defined, context_vars = {}, []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name in set(_defined_names(tree)) & DELETED:
            defined.setdefault(name, []).append(str(path.relative_to(SRC)))
        context_vars += [
            str(path.relative_to(SRC)) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ContextVar"
        ]
    assert defined == {}
    assert context_vars == ["core/config.py"]
    fields = set(EngineConfig.__dataclass_fields__)
    engine_params = set(inspect.signature(FlashEngine.__init__).parameters)
    assert not REMOVED_SETTINGS & (fields | engine_params)
    assert "analysis" not in inspect.signature(run_app).parameters

    # The engine flags are declared once, in one table: no ``add_argument``
    # names one directly.
    assert set(ENGINE_FLAGS) == {"--workers", "--backend", "--executor",
                                 "--oocore-budget-mb"}
    main_tree = ast.parse((SRC / "__main__.py").read_text(encoding="utf-8"))
    assert not [
        node.lineno for node in ast.walk(main_tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
        and any(isinstance(a, ast.Constant) and a.value in ENGINE_FLAGS for a in node.args)
    ]
    subparsers = next(
        a for a in build_parser()._actions if a.dest == "command"
    ).choices
    flag_sets = {
        name: set(ENGINE_FLAGS) & set(p._option_string_actions)
        for name, p in subparsers.items()
    }
    # Each subcommand takes the settings that apply to it: the two that
    # run FLASH programs take all of them, the server (thread-pooled
    # inline engines) no executor, and the two that only size a
    # partitioning just ``--workers``.  No subcommand takes ``--analysis``.
    assert {name: flags for name, flags in flag_sets.items() if flags} == {
        **dict.fromkeys(("run", "compare"), set(ENGINE_FLAGS)),
        "serve": {"--workers", "--backend", "--oocore-budget-mb"},
        **dict.fromkeys(("plan", "partition-stats"), {"--workers"}),
    }
    assert not [name for name, p in subparsers.items()
                if "--analysis" in p._option_string_actions]
