"""Whole columns shipped to mp workers keep the driver's representation.

The driver's vertex state is the typed column store, so a shipped column
is a NumPy array or a list.  Three events ship whole columns: the
bootstrap when a property turns critical, ``reset_property``, and the
re-ship to a respawned worker.  After each, a worker must read the same
Python scalars the driver reads (edge-set adaptors and user functions
test ``isinstance(x, int)``), from a column of the driver's kind.
"""

from repro import FlashEngine, random_graph


def _probe(engine):
    """What every worker sees of its own vertices' ``x`` and ``d``."""

    def look(v):
        state = engine.flashware.state  # the worker's, once shipped
        v.probe = (
            type(v.x).__name__,
            type(v.d).__name__,
            type(state.column("x")).__name__,
            type(state.column("d")).__name__,
        )
        return v

    engine.vertex_map(engine.V, None, look, label="probe")
    return set(engine.values("probe"))


def test_shipped_columns_keep_scalars_and_kind():
    graph = random_graph(24, 60, seed=3)
    with FlashEngine(graph, num_workers=2, executor="mp", auto_analyze=False) as engine:
        fw = engine.flashware
        engine.add_property("x", 0)
        engine.add_property("d", 0.5)
        engine.add_property("probe")

        def write(v):
            v.x = v.id * 3
            v.d = v.id / 4
            return v

        engine.vertex_map(engine.V, None, write, label="write")
        expected = {("int", "float", "ndarray", "ndarray")}
        driver = {(type(fw.state.get(0, "x")).__name__,
                   type(fw.state.get(0, "d")).__name__,
                   type(fw.state.column("x")).__name__,
                   type(fw.state.column("d")).__name__)}
        assert driver == expected

        fw.mark_critical(["x", "d"])  # bootstrap: both columns ship whole
        assert _probe(engine) == expected

        fw.state.reset_property("x")
        assert _probe(engine) == expected
        assert engine.values("x") == [0] * graph.num_vertices

        session = fw.session
        shipped = session.totals["reshipped_columns"]
        session.inject_fault(1, "kill")
        assert fw.heal_workers()["respawned"] == [1]
        assert session.totals["reshipped_columns"] > shipped
        assert _probe(engine) == expected
        assert engine.values("d") == [v / 4 for v in range(graph.num_vertices)]
