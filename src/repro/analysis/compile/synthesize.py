"""Spec synthesis: F/M/C/R user functions -> vectorized kernel specs.

The static kernel compiler's first output: pattern-match the front
end's lowering of each slot (:mod:`repro.analysis.compile.frontend`, the
one the static analyzer folds its access sets from) and, when every
slot fits a pattern whose vectorized execution is provably bit-identical
to the interpreted kernel, emit an ``EdgeMapSpec`` / ``VertexMapSpec``.
An ``Opaque`` node the match needs, or any other unsupported construct,
is a refusal with a reason (:func:`explain_vertex` / :func:`explain_edge`)
and the kernel stays interpreted — never a semantic fork.

Edge kernels are synthesized **per traversal direction** and the spec
pins ``only_mode`` to it, because the interpreted push and pull kernels
read written properties differently:

* sparse (push) evaluates every slot against the *committed* snapshot
  (C on a committed view, F/M on a fresh per-arc working view, R's fold
  seeded with the snapshot) — so ``value`` may read the written
  property freely (it compiles to the committed column) and the reduce
  op is taken from R's fold pattern (``min``/``max``/``sum`` folds, a
  fold that keeps its last temp (``return t``), or a constant write);
* dense (pull) applies M sequentially to a *live* working view, so a
  value reading the written property must match a running-combine form
  (``d.p = min(d.p, V)`` -> ``reduce="min"``, ``d.p = d.p + V`` ->
  ``"sum"``) and C/F may only read written properties through the
  recognized write-once (``cond_unvisited``) and ``"improve"``
  patterns — anything else would observe mid-scan state the one-shot
  mask cannot reproduce, so it is refused.

A write-once C (``target.prop == sentinel``) always compiles to
``cond_unvisited`` in sparse mode: push evaluates C against the
committed snapshot, so the sentinel mask is the same test on the same
column.  In dense mode it is only accepted when the post-write value
provably differs from the sentinel (a constant write of a different
value, or a vertex id against a negative sentinel) — the scan must stop
right after the first application — and the kernel is refused
otherwise.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.analysis.compile import frontend
from repro.analysis.compile.exprs import (
    Binary,
    Compare,
    Const,
    Expr,
    If,
    MinMax,
    Opaque,
    Prop,
    Return,
    Special,
    Store,
    Unsupported,
    Where,
    compile_edge,
    compile_vertex,
    compile_vertex_column,
    reads,
    rebuild,
)
from repro.core.primitives import ctrue
from repro.runtime.vectorized.specs import NOT_SET, EdgeMapSpec, VertexMapSpec

__all__ = [
    "synthesize_vertex_spec",
    "synthesize_edge_spec",
    "explain_vertex",
    "explain_edge",
    "clear_cache",
]

#: Alias kept for callers that clear the synthesis cache by name
#: (``perf/probes.py``); synthesis results live in the front end's cache.
clear_cache = frontend.clear


def _present(entry: Optional[frontend.Lowered]) -> Optional[frontend.Lowered]:
    """The slot's lowering, or ``None`` when the slot is absent or ``ctrue``."""
    if entry is None or entry.code is ctrue.__code__:
        return None
    return entry


# ---------------------------------------------------------------------------
# Matching bodies (shared by VERTEXMAP M, EDGEMAP M and R)
# ---------------------------------------------------------------------------
def _need(node: Any) -> Any:
    if isinstance(node, Opaque):
        raise Unsupported(node.reason)
    return node


def _body(entry: frontend.Lowered) -> Tuple[Any, ...]:
    if entry.body is None:
        raise Unsupported(entry.missing)
    return entry.body


def _staged(expr: Expr, staged: Dict[str, Expr], writable: str) -> Expr:
    """Sequential-read semantics: a read of an already-staged write of
    the writable role sees the staged value."""
    return rebuild(
        _need(expr),
        lambda leaf: staged.get(leaf.name, leaf)
        if isinstance(leaf, Prop) and leaf.role == writable else leaf,
    )


def _apply(stmt: Any, staged: Dict[str, Expr], writable: str) -> None:
    """Stage one statement's writes (an ``If`` merges its branches'
    writes into ``Where`` nodes)."""
    if isinstance(stmt, Store):
        value = _staged(stmt.value, staged, writable)
        if stmt.role != writable:
            raise Unsupported(f"write to the {stmt.role} role")
        if stmt.prop.startswith("_"):
            raise Unsupported("private property write")
        staged[stmt.prop] = value
    elif isinstance(stmt, If):
        cond = _staged(stmt.cond, staged, writable)
        then, otherwise = dict(staged), dict(staged)
        for inner in stmt.then:
            _apply(inner, then, writable)
        for inner in stmt.otherwise:
            _apply(inner, otherwise, writable)
        if set(then) != set(otherwise):
            raise Unsupported("branches write different properties")
        for prop in then:
            a, b = then[prop], otherwise[prop]
            staged[prop] = a if a == b else Where(cond, a, b)
    else:
        _need(stmt)


def _run_body(entry: frontend.Lowered, writable: str) -> Tuple[Dict[str, Expr], Optional[str]]:
    """The effect of one body: its staged writes in program order, and
    which role parameter it returns."""
    body = _body(entry)
    pending: Dict[str, Expr] = {}
    for i, stmt in enumerate(body):
        if isinstance(stmt, Return):
            if i != len(body) - 1:
                raise Unsupported("early return")
            if stmt.role is None and stmt.value is not None:
                raise Unsupported("return of a non-parameter")
            return pending, stmt.role
        _apply(stmt, pending, writable)
    return pending, None


def _predicate(entry: frontend.Lowered) -> Expr:
    """A pure single-``return`` predicate/filter (F or C)."""
    body = _body(entry)
    if len(body) != 1 or not isinstance(body[0], Return):
        raise Unsupported("filter is not a single return")
    if body[0].value is None:
        raise Unsupported("filter returns nothing")
    return _need(body[0].value)


def _prop_names(*exprs: Optional[Expr]) -> Tuple[str, ...]:
    return tuple(sorted({name for e in exprs if e is not None for _role, name in reads(e)}))


def _explain(kernel: frontend.KernelEntry, synth) -> Tuple[Any, str]:
    if kernel.synthesis is None:
        try:
            kernel.synthesis = (synth(kernel.slots), "ok")
        except Unsupported as exc:
            kernel.synthesis = (None, str(exc))
    return kernel.synthesis


# ---------------------------------------------------------------------------
# VERTEXMAP synthesis
# ---------------------------------------------------------------------------
def synthesize_vertex_spec(F, M) -> Optional[VertexMapSpec]:
    """Compile a VERTEXMAP's (F, M) into a :class:`VertexMapSpec`, or
    ``None`` when either slot falls outside the compilable subset."""
    spec, _reason = explain_vertex(F, M)
    return spec


def explain_vertex(F, M) -> Tuple[Optional[VertexMapSpec], str]:
    """Like :func:`synthesize_vertex_spec` but also returns the refusal
    reason (``"ok"`` on success) — for plan artifacts."""
    return _explain(frontend.kernel("vertex_map", F=F, M=M), _synth_vertex)


def _synth_vertex(slots) -> VertexMapSpec:
    F, M = _present(slots["F"]), slots["M"]
    if F is None and M is None:
        raise Unsupported("no user functions")

    filter_expr = _predicate(F) if F is not None else None
    map_fn = None
    writes: Tuple[str, ...] = ()
    column_exprs: Dict[str, Expr] = {}
    if M is not None:
        column_exprs, _returned = _run_body(M, "self")
        writes = tuple(column_exprs)
        col_fns = {
            prop: compile_vertex_column(expr)
            for prop, expr in column_exprs.items()
        }

        def map_fn(k, _fns=col_fns):
            return {prop: fn(k) for prop, fn in _fns.items()}

    read_names = _prop_names(filter_expr, *column_exprs.values())
    return VertexMapSpec(
        map=map_fn,
        filter=compile_vertex(filter_expr) if filter_expr is not None else None,
        reads=read_names,
        writes=writes,
    )


# ---------------------------------------------------------------------------
# EDGEMAP synthesis
# ---------------------------------------------------------------------------
def synthesize_edge_spec(kind: str, F, M, C, R) -> Optional[EdgeMapSpec]:
    """Compile an EDGEMAP's slots into an :class:`EdgeMapSpec` pinned to
    ``kind``'s traversal direction (``edge_map_dense`` /
    ``edge_map_sparse``), or ``None`` when refused."""
    spec, _reason = explain_edge(kind, F, M, C, R)
    return spec


def explain_edge(kind: str, F, M, C, R) -> Tuple[Optional[EdgeMapSpec], str]:
    mode = "dense" if kind == "edge_map_dense" else "sparse"
    return _explain(
        frontend.kernel(kind, F=F, M=M, C=C, R=R),
        lambda slots: _synth_edge(mode, slots),
    )


def _written_prop_expr(M) -> Tuple[Optional[str], Optional[Expr], Optional[str]]:
    """Match M and return ``(prop, value_expr, returned_role)``; a
    write-free M yields ``(None, None, role)``."""
    pending, returned = _run_body(M, "target")
    if len(pending) > 1:
        raise Unsupported("M writes more than one property")
    if not pending:
        return None, None, returned
    (prop, expr), = pending.items()
    return prop, expr, returned


def _self_combine(expr: Expr, prop: str) -> Optional[Tuple[str, Expr]]:
    """Match the running-combine forms over the written property:
    ``min/max(d.p, V)`` -> ``(op, V)``, ``d.p + V`` -> ``("sum", V)``.
    ``None`` when the expression is not such a form."""
    if isinstance(expr, MinMax) and len(expr.args) == 2:
        op, pair = expr.op, expr.args
    elif isinstance(expr, Binary) and expr.op == "+":
        op, pair = "sum", (expr.left, expr.right)
    else:
        return None
    for a, b in (pair, pair[::-1]):
        if a == Prop("target", prop) and ("target", prop) not in reads(b):
            return op, b
    return None


def _provably_not(value_expr: Expr, sentinel: Any) -> bool:
    """Whether the value a qualifying edge writes provably differs from
    ``sentinel`` — the soundness condition for a dense ``cond_unvisited``
    (the scan must stop right after the first application)."""
    if isinstance(value_expr, Const):
        return value_expr.value != sentinel
    if isinstance(value_expr, Special) and value_expr.attr == "id":
        # vertex ids are >= 0
        return (
            isinstance(sentinel, (int, float))
            and not isinstance(sentinel, bool)
            and sentinel < 0
        )
    return False


def _match_sentinel(cond_expr: Expr, prop: str) -> Optional[Any]:
    """``target.prop == <const>`` (either orientation) -> the sentinel."""
    if not (isinstance(cond_expr, Compare) and cond_expr.op == "=="):
        return None
    target_read = Prop("target", prop)
    if cond_expr.left == target_read and isinstance(cond_expr.right, Const):
        return cond_expr.right.value
    if cond_expr.right == target_read and isinstance(cond_expr.left, Const):
        return cond_expr.left.value
    return None


def _match_improve(f_expr: Expr, prop: str, value_expr: Expr) -> Optional[str]:
    """``E < d.prop`` / ``d.prop > E`` (with E the value expression) ->
    ``"min"``; the mirrored forms -> ``"max"``."""
    if not (isinstance(f_expr, Compare) and f_expr.op in ("<", ">")):
        return None
    sides = (f_expr.left, f_expr.right)
    if sides == (value_expr, Prop("target", prop)):
        return "min" if f_expr.op == "<" else "max"
    if sides == (Prop("target", prop), value_expr):
        return "min" if f_expr.op == ">" else "max"
    return None


def _fold_pattern(R, m_prop: Optional[str]) -> Tuple[str, Optional[str], Optional[Expr]]:
    """Classify R's fold over the temps.  Returns ``(form, prop,
    const_expr)`` where form is ``"last"`` (keeps the final temp),
    ``"min"``/``"max"``/``"sum"`` (combining folds), or ``"const"``
    (stages a constant).  ``prop`` is the property R writes (``None``
    for plain ``return t``)."""
    pending, returned = _run_body(R, "acc")
    if not pending:
        if returned == "temp":
            return "last", None, None
        raise Unsupported("R neither writes nor keeps its temp")
    if len(pending) > 1:
        raise Unsupported("R writes more than one property")
    if returned == "temp":
        raise Unsupported("R writes the accumulator but returns its temp")
    (prop, expr), = pending.items()
    acc_read = Prop("acc", prop)
    temp_read = Prop("temp", prop)
    if isinstance(expr, Const):
        return "const", prop, expr
    if isinstance(expr, MinMax) and len(expr.args) == 2:
        if set(expr.args) == {acc_read, temp_read}:
            if m_prop != prop:
                raise Unsupported("R folds a property M does not stage")
            return expr.op, prop, None
    if isinstance(expr, Binary) and expr.op == "+":
        if {expr.left, expr.right} == {acc_read, temp_read}:
            if m_prop != prop:
                raise Unsupported("R folds a property M does not stage")
            return "sum", prop, None
    raise Unsupported("unrecognized reduce fold")


def _synth_edge(mode: str, slots) -> EdgeMapSpec:
    M, R = slots["M"], slots["R"]
    F, C = _present(slots["F"]), _present(slots["C"])
    if M is None:
        raise Unsupported("no map function")
    m_prop, m_expr, _m_ret = _written_prop_expr(M)

    # ---- reduce + value ------------------------------------------------
    if mode == "sparse":
        if R is None:
            raise Unsupported("sparse needs a reduce function")
        form, r_prop, const_expr = _fold_pattern(R, m_prop)
        if form == "last":
            if m_prop is None:
                raise Unsupported("last-temp fold over a write-free M")
            prop, reduce_, value_expr = m_prop, "last", m_expr
        elif form == "const":
            prop, reduce_, value_expr = r_prop, "last", const_expr
            if m_prop is not None and m_prop != prop:
                raise Unsupported("M and R write different properties")
        else:  # min / max / sum fold over the staged temps
            prop, reduce_, value_expr = r_prop, form, m_expr
        # every sparse slot evaluates against the committed snapshot, so
        # value expressions may read the written property freely
    else:
        prop = m_prop
        if prop is None:
            raise Unsupported("M writes nothing")
        combine = _self_combine(m_expr, prop)
        if combine is not None:
            reduce_, value_expr = combine
        elif ("target", prop) in reads(m_expr):
            raise Unsupported(
                "dense M reads its written property outside a running-combine form"
            )
        else:
            reduce_, value_expr = "last", m_expr

    # ---- condition -----------------------------------------------------
    cond_unvisited: Any = NOT_SET
    cond_expr: Optional[Expr] = None
    if C is not None:
        expr = _predicate(C)
        sentinel = _match_sentinel(expr, prop)
        if sentinel is not None and mode == "dense":
            # dense write-once: the scan must provably stop after the
            # first application
            if reduce_ == "last" and _provably_not(value_expr, sentinel):
                cond_unvisited = sentinel
            else:
                raise Unsupported("dense C reads the written property")
        elif sentinel is not None:
            # sparse: C reads the committed snapshot, which is exactly
            # the column the sentinel mask compares
            cond_unvisited = sentinel
        else:
            if mode == "dense" and ("target", prop) in reads(expr):
                raise Unsupported("dense C reads the written property")
            cond_expr = expr

    # ---- edge filter ---------------------------------------------------
    f_spec: Any = None
    f_expr: Optional[Expr] = None
    if F is not None:
        expr = _predicate(F)
        if mode == "dense" and ("target", prop) in reads(expr):
            improve = _match_improve(expr, prop, value_expr)
            if improve is None or improve != reduce_:
                raise Unsupported("dense F reads the written property")
            f_spec = "improve"
        else:
            f_expr = expr

    if value_expr is None:
        raise Unsupported("no value expression")
    read_names = _prop_names(value_expr, cond_expr, f_expr)
    read_names = tuple(n for n in read_names if n != prop)
    return EdgeMapSpec(
        prop=prop,
        reduce=reduce_,
        value=compile_edge(value_expr),
        f=f_spec if f_spec is not None else (
            compile_edge(f_expr) if f_expr is not None else None
        ),
        cond_unvisited=cond_unvisited,
        # C's target-role reads compile against the vertex batch of
        # candidate targets (vertex leaves ignore the role)
        cond=compile_vertex(cond_expr) if cond_expr is not None else None,
        only_mode=mode,
        reads=read_names,
    )
