"""The kernel IR and its NumPy compilation.

The front end (:mod:`repro.analysis.compile.frontend`) lowers each
user-function body into this IR once: a tuple of :class:`Store` /
:class:`If` / :class:`Return` statements over expressions.  Every
expression node has an exact NumPy counterpart whose elementwise result
is *bit-identical* to the interpreted Python evaluation.  Whatever does
not lower is an :class:`Opaque` node keeping the reason and the access
facts of the subtree: the static analyzer folds those facts, and the
spec synthesizer raises :class:`Unsupported` with the reason at the
first Opaque node it needs (the kernel then stays interpreted).

Two compilation targets mirror the vectorized batch views:

* :func:`compile_vertex` — closures over a ``VertexBatch`` (``k.p``,
  ``k.ids``, ``k.deg`` ...), used for VERTEXMAP filters and map columns;
* :func:`compile_edge` — closures over an ``EdgeBatch`` (``k.sp`` /
  ``k.dp`` / ``k.src`` / ``k.dst`` ...), used for EDGEMAP values and
  filters.

Bit-identity notes: ``and`` / ``or`` are only lowered when every
operand is syntactically boolean (comparisons, ``not``, nested bool
ops) — there the Python short-circuit value equals the logical
product, so ``np.logical_and``/``or`` is faithful; IEEE ``+`` and
``*`` are commutative at the bit level, so operand order never needs
normalizing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, FrozenSet, Iterator, Optional, Set, Tuple

import numpy as np


class Unsupported(Exception):
    """The construct is outside the compilable subset (carries a
    human-readable reason used in plan artifacts and diagnostics)."""


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Expr:
    """Base class; all nodes are frozen (hashable, structurally
    comparable — the synthesizer matches patterns by ``==``)."""


@dataclass(frozen=True)
class Const(Expr):
    value: Any


@dataclass(frozen=True)
class Prop(Expr):
    """A vertex-property read, attributed to a role (``self`` /
    ``source`` / ``target`` / the R-slot ``temp`` / ``acc``)."""

    role: str
    name: str


#: Reserved vertex attributes the IR models (subset of
#: ``repro.core.vertex.RESERVED_ATTRIBUTES`` with batch equivalents).
SPECIAL_ATTRS = ("id", "deg", "out_deg", "in_deg")


@dataclass(frozen=True)
class Special(Expr):
    """A reserved attribute read (``v.id``, ``v.deg``, ...)."""

    role: str
    attr: str


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "not" | "neg" | "pos"
    operand: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # "+" | "-" | "*" | "/" | "//" | "%"
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Compare(Expr):
    op: str  # "==" | "!=" | "<" | "<=" | ">" | ">="
    left: Expr
    right: Expr


@dataclass(frozen=True)
class BoolOp(Expr):
    op: str  # "and" | "or"
    operands: Tuple[Expr, ...]


@dataclass(frozen=True)
class MinMax(Expr):
    op: str  # "min" | "max"
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class Abs(Expr):
    operand: Expr


@dataclass(frozen=True)
class Where(Expr):
    """Branch merge (``then if cond else otherwise``) — produced by the
    synthesizer's If/Else handling and by conditional expressions."""

    cond: Expr
    then: Expr
    otherwise: Expr


@dataclass(frozen=True)
class FreshObject(Expr):
    """A zero-argument constructor call (``set()`` / ``list()`` /
    ``dict()``): one fresh object per vertex.  Only legal as the
    top-level value of a VERTEXMAP column."""

    kind: str  # "set" | "list" | "dict"


@dataclass(frozen=True)
class Opaque(Expr):
    """A subtree outside the IR (an expression or a whole statement):
    why it does not lower, plus every fact it may contribute to the
    function's access sets — the role reads/writes, ``engine.get`` reads
    and writes, roles it lets escape, captured names it mutates,
    non-commutative writes and the role parameter it returns (an index
    into the role parameters)."""

    reason: str
    reads: FrozenSet[Tuple[str, str]] = frozenset()
    writes: FrozenSet[Tuple[str, str]] = frozenset()
    remote_reads: FrozenSet[str] = frozenset()
    remote_writes: FrozenSet[str] = frozenset()
    unknown_roles: FrozenSet[str] = frozenset()
    mutated_globals: FrozenSet[str] = frozenset()
    noncomm_writes: FrozenSet[str] = frozenset()
    returns_param: Optional[int] = None


#: The fact fields of :class:`Opaque`, in declaration order.
FACTS = (
    "reads", "writes", "remote_reads", "remote_writes", "unknown_roles",
    "mutated_globals", "noncomm_writes",
)


# ---------------------------------------------------------------------------
# Statements (one function body = a tuple of these)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Store:
    """``<role param>.prop = value``.  ``noncommutative`` marks a value
    combining two parameters of the written role with a
    non-commutative operator (the reduce-order lint fact)."""

    role: str
    prop: str
    value: Expr
    noncommutative: bool = False


@dataclass(frozen=True)
class If:
    cond: Expr
    then: Tuple[Any, ...]
    otherwise: Tuple[Any, ...]


@dataclass(frozen=True)
class Return:
    """``return`` at the top level of a body.  ``role`` is set when the
    value is a bare role parameter (then ``value`` is the Opaque of that
    name); ``value`` is ``None`` for a bare ``return``."""

    role: Optional[str]
    value: Optional[Expr]


def children(expr: Expr) -> Iterator[Expr]:
    """The direct sub-expressions of ``expr``."""
    for value in vars(expr).values():
        if isinstance(value, Expr):
            yield value
        elif isinstance(value, tuple):
            yield from (v for v in value if isinstance(v, Expr))


def rebuild(expr: Expr, leaf: Callable[[Expr], Expr]) -> Expr:
    """``expr`` with every :class:`Prop` / :class:`Special` replaced by
    ``leaf(node)``."""
    if isinstance(expr, (Prop, Special)):
        return leaf(expr)
    changes = {}
    for name, value in vars(expr).items():
        if isinstance(value, Expr):
            changes[name] = rebuild(value, leaf)
        elif isinstance(value, tuple) and any(isinstance(v, Expr) for v in value):
            changes[name] = tuple(rebuild(v, leaf) for v in value)
    return replace(expr, **changes) if changes else expr


def reads(expr: Expr) -> Set[Tuple[str, str]]:
    """Every ``(role, prop)`` the expression reads."""
    if isinstance(expr, Prop):
        return {(expr.role, expr.name)}
    out: Set[Tuple[str, str]] = set()
    for child in children(expr):
        out |= reads(child)
    return out


def is_boolean(expr: Expr) -> bool:
    """Syntactically boolean — Python's short-circuit ``and``/``or``
    over such operands returns the same truth value the logical ufuncs
    compute."""
    if isinstance(expr, Compare):
        return True
    if isinstance(expr, Unary):
        return expr.op == "not"
    if isinstance(expr, BoolOp):
        return all(is_boolean(op) for op in expr.operands)
    if isinstance(expr, Const):
        return isinstance(expr.value, bool)
    return False


# ---------------------------------------------------------------------------
# IR -> NumPy closures
# ---------------------------------------------------------------------------
_OPS = {
    "+": np.add, "-": np.subtract, "*": np.multiply,
    "/": np.true_divide, "//": np.floor_divide, "%": np.mod,
    "==": np.equal, "!=": np.not_equal, "<": np.less,
    "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
}


def _binary(op: Callable, left: Expr, right: Expr, leaf) -> Callable:
    """``op(left, right)``, with a constant operand inlined rather than
    called through a closure of its own."""
    if isinstance(right, Const):
        lf, v = _compile(left, leaf), right.value
        return lambda k: op(lf(k), v)
    if isinstance(left, Const):
        v, rf = left.value, _compile(right, leaf)
        return lambda k: op(v, rf(k))
    lf, rf = _compile(left, leaf), _compile(right, leaf)
    return lambda k: op(lf(k), rf(k))


def _compile(expr: Expr, leaf: Callable[[Expr], Callable]) -> Callable:
    """Compile ``expr`` into ``batch -> array-or-scalar``; ``leaf``
    handles the batch-specific nodes (Prop / Special)."""
    if isinstance(expr, Const):
        v = expr.value
        return lambda k: v
    if isinstance(expr, (Prop, Special)):
        return leaf(expr)
    if isinstance(expr, Unary):
        sub = _compile(expr.operand, leaf)
        if expr.op == "not":
            return lambda k: np.logical_not(sub(k))
        if expr.op == "neg":
            return lambda k: np.negative(sub(k))
        return lambda k: +sub(k)
    if isinstance(expr, Abs):
        sub = _compile(expr.operand, leaf)
        return lambda k: np.abs(sub(k))
    if isinstance(expr, (Binary, Compare)):
        return _binary(_OPS[expr.op], expr.left, expr.right, leaf)
    if isinstance(expr, BoolOp):
        subs = [_compile(op, leaf) for op in expr.operands]
        combine = np.logical_and if expr.op == "and" else np.logical_or
        def run(k, _subs=subs, _combine=combine):
            out = _subs[0](k)
            for sub in _subs[1:]:
                out = _combine(out, sub(k))
            return out
        return run
    if isinstance(expr, MinMax):
        subs = [_compile(a, leaf) for a in expr.args]
        combine = np.minimum if expr.op == "min" else np.maximum
        def run(k, _subs=subs, _combine=combine):
            out = _subs[0](k)
            for sub in _subs[1:]:
                out = _combine(out, sub(k))
            return out
        return run
    if isinstance(expr, Where):
        cf = _compile(expr.cond, leaf)
        tf = _compile(expr.then, leaf)
        of = _compile(expr.otherwise, leaf)
        return lambda k: np.where(cf(k), tf(k), of(k))
    raise Unsupported(f"cannot compile {type(expr).__name__}")


def _vertex_leaf(expr: Expr) -> Callable:
    if isinstance(expr, Prop):
        name = expr.name
        return lambda k: k.p(name)
    attr = expr.attr
    if attr == "id":
        return lambda k: k.ids
    if attr == "deg":
        return lambda k: k.deg
    if attr == "out_deg":
        return lambda k: k.out_deg
    if attr == "in_deg":
        return lambda k: k.in_deg
    raise Unsupported(f"vertex attribute {attr!r}")  # pragma: no cover


def _edge_leaf(expr: Expr) -> Callable:
    if isinstance(expr, Prop):
        name = expr.name
        if expr.role == "source":
            return lambda k: k.sp(name)
        if expr.role == "target":
            return lambda k: k.dp(name)
        raise Unsupported(f"edge role {expr.role!r}")
    if expr.role == "source":
        if expr.attr == "id":
            return lambda k: k.src
        if expr.attr == "out_deg":
            return lambda k: k.src_out_deg
        if expr.attr == "in_deg":
            return lambda k: k.src_in_deg
        if expr.attr == "deg":
            raise Unsupported("source.deg on an edge batch")
    if expr.role == "target" and expr.attr == "id":
        return lambda k: k.dst
    raise Unsupported(f"edge attribute {expr.role}.{expr.attr}")


def _broadcast(value: Any, n: int) -> np.ndarray:
    arr = np.asarray(value)
    if arr.ndim == 0:
        return np.full(n, arr[()])
    return arr


def _reads_batch(expr: Expr) -> bool:
    """Whether ``expr`` reads a batch leaf — then every elementwise node
    above it already yields a batch-length array."""
    return isinstance(expr, (Prop, Special)) or any(map(_reads_batch, children(expr)))


def _batch_fn(expr: Expr, leaf: Callable[[Expr], Callable]) -> Callable:
    """``batch -> ndarray``; only a leaf-free (constant) expression
    needs its scalar broadcast to the batch length."""
    fn = _compile(expr, leaf)
    if _reads_batch(expr):
        return fn
    return lambda k: _broadcast(fn(k), len(k))


def compile_vertex(expr: Expr) -> Callable:
    """``VertexBatch -> ndarray`` (scalars broadcast to batch length)."""
    return _batch_fn(expr, _vertex_leaf)


def compile_vertex_column(expr: Expr) -> Callable:
    """Like :func:`compile_vertex` but also accepts a top-level
    :class:`FreshObject` (one fresh container per vertex, as a list
    column)."""
    if isinstance(expr, FreshObject):
        ctor = {"set": set, "list": list, "dict": dict}[expr.kind]
        return lambda k: [ctor() for _ in range(len(k))]
    return compile_vertex(expr)


def compile_edge(expr: Expr) -> Callable:
    """``EdgeBatch -> ndarray`` (scalars broadcast to batch length)."""
    return _batch_fn(expr, _edge_leaf)
