"""The kernel front end: one lowering per user function, cached under
every name the lowering resolved (closure constants, bound values,
callees), read by both the static analyzer and the spec synthesizer."""

import pathlib
import re
import subprocess
import sys

import pytest

from repro import FlashEngine, bind
from repro.algorithms.common import local_set
from repro.analysis.compile import build_plan
from repro.analysis.staticpass import analyze_kernel, function_access, kernel_access
from repro.graph.generators import road_network
from repro.serving import multi_bfs, multi_ppr, multi_sssp
from repro.suite import APPS

SELF = ("self",)


def _make_adder(c):
    def m(v):
        v.x = v.id + c
        return v

    return m


@pytest.mark.parametrize("backend", ["interp", "vectorized"])
def test_closure_constants_are_not_shared_between_closures(backend):
    graph = road_network(4, 4, seed=1)
    with FlashEngine(graph, backend=backend) as e:
        e.add_property("x", 0)
        e.vertex_map(e.V, None, _make_adder(1), label="a")
        e.vertex_map(e.V, None, _make_adder(100), label="b")
        assert e.values("x")[:4] == [100, 101, 102, 103]


def _reads_a(s, d):
    return s.a > 0


def _reads_b(s, d):
    return s.b > 0


def _make_filter(f):
    def F(s, d):
        return f(s, d)

    return F


@pytest.mark.parametrize("order", [("a", "b"), ("b", "a")])
def test_callee_resolved_per_closure(order):
    callees = {"a": _reads_a, "b": _reads_b}
    for prop in order:
        res = analyze_kernel(
            "edge_map_dense", F=_make_filter(callees[prop]), M=lambda s, d: d
        )
        assert res.access.reads == {("source", prop)}
        assert res.critical == {prop}


def _get_named(v, name):
    return getattr(v, name) > 0


def _count_named(v, name):
    local_set(v, name).add(1)
    return v


def test_bound_property_names_give_their_own_access_sets():
    assert function_access(bind(_get_named, "x"), SELF).reads == {("self", "x")}
    assert function_access(bind(_get_named, "y"), SELF).reads == {("self", "y")}
    fa = function_access(bind(_count_named, "seen"), SELF)
    assert fa.reads == fa.writes == {("self", "seen")}
    assert fa.complete


def test_equal_closures_share_one_access_object():
    # the program capture dedups kernels by the identity of their access
    first = kernel_access("vertex_map", M=_make_adder(1))
    assert kernel_access("vertex_map", M=_make_adder(1)) is first
    # a different constant is a different lowering with the same facts
    assert kernel_access("vertex_map", M=_make_adder(2)) is first


def _offset(v, c):
    v.x = v.id + c
    return v


def test_lowerings_per_function_are_bounded():
    from repro.analysis.compile import frontend

    frontend.clear()
    for c in range(frontend._KEEP + 10):
        function_access(bind(_offset, c), SELF)
    kept = frontend._functions[_offset.__code__, 0, SELF]
    assert sum(len(group) for group in kept.values()) == frontend._KEEP


def test_concurrent_lookups_share_the_cache_safely():
    """Serving threads look kernels up concurrently: no lookup may fail
    and each must see its own bound constant."""
    import threading

    from repro.analysis.compile import explain_vertex, frontend

    frontend.clear()
    errors = []

    def worker(base):
        try:
            for c in range(base, base + 150):
                fa = function_access(bind(_get_named, f"p{c % 7}"), SELF)
                assert fa.reads == {("self", f"p{c % 7}")}
                spec, _ = explain_vertex(None, bind(_offset, c))
                assert spec is not None
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i * 1000,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


@pytest.mark.parametrize("run", [
    lambda e: multi_bfs(e, [0, 5]),
    lambda e: multi_sssp(e, [0, 5]),
    lambda e: multi_ppr(e, [[0], [5]], iters=2),
], ids=["bfs", "sssp", "ppr"])
def test_multisource_kernels_are_analysable(run):
    with FlashEngine(road_network(4, 4, seed=1), num_workers=2) as e:
        run(e)
        assert e.diagnostics == []


def test_every_interp_kernel_has_a_reason():
    for app in APPS:
        for k in build_plan(app).kernels:
            if k["dispatch"] == "interp":
                assert k["reason"], (app, k["kernel"])
            else:
                assert k["reason"] is None, (app, k["kernel"])


def test_one_front_end():
    """Structural guard: the front end is the only AST walk of user
    functions, source recovery exists once, and ``import repro`` loads
    no analysis module."""
    import repro

    root = pathlib.Path(repro.__file__).parent
    sources = {
        str(path.relative_to(root)): path.read_text() for path in root.rglob("*.py")
    }
    importing_ast = sorted(
        p for p, text in sources.items()
        if p.startswith("analysis/")
        and re.search(r"^\s*(import ast\b|from ast import)", text, re.M)
    )
    assert importing_ast == ["analysis/compile/frontend.py", "analysis/lloc.py"]
    for name in ("def _unwrap", "def _find_def"):
        assert sum(text.count(name) for text in sources.values()) == 1, name
    out = subprocess.run(
        [sys.executable, "-c",
         "import repro, sys; print([m for m in sys.modules if m.startswith('repro.analysis')])"],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(root.parent)},
    )
    assert out.stdout.strip() == "[]"
