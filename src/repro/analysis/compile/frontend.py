"""The kernel front end: one lowering of each FLASH user function.

The paper's code generator derives both the FLASHWARE calls and the
critical properties (Table II) from one analysis of the user functions
(§IV-B).  Here that analysis is :func:`lower`, the only AST walk of
user-function bodies: it recovers a function's source (through ``bind``
wrappers, ``functools.partial`` and closures), gives each positional
parameter its kernel role, and turns the body into the statements of
:mod:`repro.analysis.compile.exprs`.  Whatever does not lower becomes
an ``Opaque`` node carrying why and what the subtree may touch.  The
static analyzer folds its access sets from that output and the spec
synthesizer pattern-matches it.

*The name rule*: a free or ``bind``-bound name that resolves to a
constant is that constant, in expressions and wherever a property name
is expected (``local_set`` / ``local_list`` / ``local_dict``, literal
``getattr`` / ``setattr`` / ``hasattr``).

*One cache*: an entry is found by ``(code, partial leading count,
roles)`` and records every name the walk resolved with what it used of
it — a constant's value, engine-ness, a callee (itself an entry).  A
lookup re-resolves those names on the new function and hits only when
all of them agree.
"""

from __future__ import annotations

import ast
import builtins
import functools
import linecache
import threading
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.analysis.compile.exprs import (
    FACTS,
    SPECIAL_ATTRS,
    Abs,
    Binary,
    BoolOp,
    Compare,
    Const,
    Expr,
    FreshObject,
    If,
    MinMax,
    Opaque,
    Prop,
    Return,
    Special,
    Store,
    Unary,
    Where,
    children,
    is_boolean,
)
from repro.core.engine import FlashEngine
from repro.core.vertex import RESERVED_ATTRIBUTES

#: Attribute names that are not vertex properties.
IGNORED_ATTRIBUTES = frozenset(RESERVED_ATTRIBUTES) | {"staged"}

#: In-place mutator method names on collections — calling one on a
#: captured name mutates shared state outside the BSP snapshot model.
MUTATOR_METHODS = frozenset({
    "append", "add", "update", "extend", "insert", "remove", "discard",
    "pop", "popitem", "clear", "setdefault", "sort", "reverse",
})

#: The user-function slots, in engine argument order.
SLOTS = ("C", "F", "M", "R")

#: Role signature per kernel slot.  R's two parameters are both the
#: target; they lower as ``temp`` / ``acc`` so the synthesizer can tell
#: the fold's operands apart, and :data:`ACCESS_ROLE` maps them back.
VERTEX_MAP_ROLES: Dict[str, Tuple[str, ...]] = {"F": ("self",), "M": ("self",)}
EDGE_MAP_ROLES: Dict[str, Tuple[str, ...]] = {
    "C": ("target",),
    "F": ("source", "target"),
    "M": ("source", "target"),
    "R": ("temp", "acc"),
}
ACCESS_ROLE = {"temp": "target", "acc": "target"}

_CONST_TYPES = (bool, int, float, str, type(None))
_HELPERS = ("local_set", "local_list", "local_dict")
_BINOPS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
    ast.FloorDiv: "//", ast.Mod: "%",
}
_CMPOPS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=",
}
#: Operators whose operands do not commute (the reduce-order lint fact).
_NONCOMMUTATIVE_OPS = (
    ast.Sub, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow, ast.LShift,
    ast.RShift, ast.MatMult,
)
_MAX_DEPTH = 8
#: Lowerings kept per function and names resolved, and kernel entries
#: kept: a server binding a fresh source per request would otherwise grow
#: them without bound (the oldest are dropped; a miss just lowers again).
_KEEP = 1024


# ---------------------------------------------------------------------------
# Source recovery
# ---------------------------------------------------------------------------
_trees: Dict[str, Optional[ast.Module]] = {}
#: CPython's AST conversion keeps one recursion counter per interpreter,
#: so two serving threads parsing at once can fail with a SystemError.
_parse_lock = threading.Lock()


def _module_tree(filename: str) -> Optional[ast.Module]:
    """Parse (and cache) the module that defines a function, through
    ``linecache`` so doctest/interactive sources resolve too; ``None``
    when there is no source (C functions, ``exec`` without a hook)."""
    with _parse_lock:
        if filename not in _trees:
            source = "".join(linecache.getlines(filename))
            try:
                _trees[filename] = ast.parse(source) if source else None
            except SyntaxError:  # pragma: no cover - partial/invalid cache entry
                _trees[filename] = None
        return _trees[filename]


def _unwrap(fn: Callable) -> Tuple[Callable, int, Tuple[Any, ...]]:
    """Peel ``bind``/``functools.wraps`` wrappers and ``partial``s.
    Returns the innermost function, the number of *leading* positional
    parameters pre-applied (``partial`` prepends), and the *trailing*
    bound values (``bind`` appends; nested binds append outermost-first,
    matching ``outer(*args) -> inner(*args, *outer_bound, *inner_bound)``)."""
    leading = 0
    trailing: Tuple[Any, ...] = ()
    for _ in range(16):
        if isinstance(fn, functools.partial):
            leading += len(fn.args)
            fn = fn.func
        elif hasattr(fn, "__wrapped__"):
            trailing = trailing + tuple(getattr(fn, "__flash_bound__", ()))
            fn = fn.__wrapped__
        else:
            break
    return fn, leading, trailing


def _find_def(tree: ast.Module, code) -> Optional[ast.AST]:
    """The AST node compiled into ``code``: a named def by name + nearest
    line, a lambda by line + arity (two same-arity lambdas on one line
    are ambiguous and resolve to ``None``, soundly)."""
    if code.co_name != "<lambda>":
        candidates = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == code.co_name
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda n: abs(n.lineno - code.co_firstlineno))
    candidates = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Lambda)
        and node.lineno == code.co_firstlineno
        and len(node.args.args) == code.co_argcount
    ]
    return candidates[0] if len(candidates) == 1 else None


def _scope(inner: Callable, params: List[str], trailing: Tuple[Any, ...]):
    """``name -> (found, value)`` for one function: ``bind``-supplied
    values fill its last parameters, then closure cells, globals and
    builtins."""
    tail = params[max(len(params) - len(trailing), 0):] if trailing else []
    bound = dict(zip(tail, trailing[-len(tail):] if tail else ()))
    freevars, closure = inner.__code__.co_freevars, inner.__closure__
    namespace = getattr(inner, "__globals__", {})

    def resolve(name: str) -> Tuple[bool, Any]:
        if name in bound:
            return True, bound[name]
        if name in freevars:
            try:
                return True, closure[freevars.index(name)].cell_contents
            except ValueError:  # empty cell (still being defined)
                return False, None
        if name in namespace:
            return True, namespace[name]
        return hasattr(builtins, name), getattr(builtins, name, None)

    return resolve


def _is_callee(obj: Any) -> bool:
    return (
        hasattr(obj, "__code__")
        or hasattr(obj, "__wrapped__")
        or isinstance(obj, functools.partial)
    )


def _module(obj: Any) -> str:
    return str(getattr(obj, "__module__", ""))


def _use(found: bool, value: Any, how: Any) -> Any:
    """What the walk used of a resolved name — the cache's validity key.
    ``how`` is ``None`` for a plain resolution (a constant's type and
    value, engine-ness, a builtin's identity, else only callability, a
    function or not, and whether it comes from the package), ``"rec"``
    for a call cut as recursive (the code), or the roles of a call that
    was lowered (the callee's entry)."""
    if not found:
        return "missing"
    if how == "rec":
        return getattr(_unwrap(value)[0], "__code__", None)
    if how is not None:
        return lower(value, how)
    if isinstance(value, _CONST_TYPES):
        return ("const", type(value), repr(value))
    if isinstance(value, FlashEngine):
        return "engine"
    if _module(value) == "builtins":
        return value
    return (callable(value), _is_callee(value), _module(value).startswith("repro."))


# ---------------------------------------------------------------------------
# Facts: what an IR fragment may contribute to the access sets
# ---------------------------------------------------------------------------
def _props(role: str, prop: Optional[str]) -> Set[Tuple[str, str]]:
    tracked = prop is not None and prop not in IGNORED_ATTRIBUTES and not prop.startswith("_")
    return {(role, prop)} if tracked else set()


def _fold(node: Any, acc: Dict[str, Any]) -> None:
    if isinstance(node, (list, tuple)):
        for item in node:
            _fold(item, acc)
    elif isinstance(node, Opaque):
        for name in FACTS:
            acc[name] |= getattr(node, name)
        if node.returns_param is not None:
            acc["returns_param"] = node.returns_param
    elif isinstance(node, Prop):
        acc["reads"] |= _props(node.role, node.name)
    elif isinstance(node, Store):
        acc["writes"] |= _props(node.role, node.prop)
        if node.noncommutative:
            acc["noncomm_writes"].add(node.prop)
        _fold(node.value, acc)
    elif isinstance(node, If):
        _fold((node.cond, node.then, node.otherwise), acc)
    elif isinstance(node, Return):
        _fold(node.value, acc)
    elif isinstance(node, Expr):
        _fold(tuple(children(node)), acc)


def summarize(reason: str, *parts: Any, **extra: Any) -> Opaque:
    """One :class:`Opaque` with ``reason`` and the union of the facts of
    ``parts`` (IR nodes or sequences of them) and of ``extra``."""
    acc: Dict[str, Any] = {name: set() for name in FACTS}
    acc["returns_param"] = None
    _fold(parts, acc)
    for name, values in extra.items():
        acc[name] |= set(values)
    ret = acc.pop("returns_param")
    return Opaque(reason, returns_param=ret, **{k: frozenset(v) for k, v in acc.items()})


def _first(build: Callable[..., Expr], *parts: Expr) -> Expr:
    """``build(*parts)`` — or, when a part did not lower, an Opaque with
    the first such part's reason and every part's facts."""
    for part in parts:
        if isinstance(part, Opaque):
            return summarize(part.reason, parts)
    return build(*parts)


# ---------------------------------------------------------------------------
# The walk
# ---------------------------------------------------------------------------
class _Walk:
    """Lowers one function body, nested scopes included."""

    def __init__(self, resolve, env, role_params, local_names, stack, depth):
        self._resolve = resolve
        self.env: Dict[str, str] = env  # name -> role (aliases included)
        self.remote: Set[str] = set()  # names holding engine.get views
        self.param_index = {name: i for i, name in enumerate(role_params)}
        self.local_names = local_names
        self.stack = stack
        self.depth = depth
        self.deps: Dict[Tuple[str, Any], Any] = {}
        #: while an assigned value lowers: the role names it reads
        #: attributes of, and whether it applies a non-commutative operator
        self.probe: Optional[list] = None

    def resolve(self, name: str, how: Any = None) -> Tuple[bool, Any]:
        found, value = self._resolve(name)
        self.deps[(name, how)] = _use(found, value, how)
        return found, value

    def _role_name(self, node: Optional[ast.AST]) -> Optional[str]:
        return self.env.get(node.id) if isinstance(node, ast.Name) else None

    # -- statements ----------------------------------------------------
    def body(self, stmts, in_branch: bool = False) -> Tuple[Any, ...]:
        return tuple(
            self.stmt(s, in_branch) for s in stmts
            if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
        )

    def stmt(self, s: ast.stmt, in_branch: bool) -> Any:
        """A branch body lowers only assignments and ``if``s; a top-level
        body also ``return`` and augmented assignment."""
        if isinstance(s, ast.If):
            return If(self.expr(s.test), self.body(s.body, True), self.body(s.orelse, True))
        if isinstance(s, ast.Assign):
            return self._assign(s.targets, s.value)
        top = {ast.Return: self._return, ast.AugAssign: self._augassign}.get(type(s))
        if top is not None and not in_branch:
            return top(s)
        reason = f"statement {type(s).__name__}" + (" in branch" if in_branch else "")
        if top is not None:
            return summarize(reason, top(s))
        if isinstance(s, (ast.Global, ast.Nonlocal)):
            return summarize(reason, mutated_globals=s.names)
        if isinstance(s, ast.AnnAssign):
            return summarize(reason, s.value and self._assign([s.target], s.value))
        if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return summarize(reason, self._nested(s))
        return summarize(reason, self._children(s))

    def _return(self, s: ast.Return) -> Return:
        role = self._role_name(s.value)
        if role is None:
            return Return(None, s.value and self.expr(s.value))
        name = s.value.id
        return Return(role, Opaque(
            f"bare role parameter {name!r}", returns_param=self.param_index.get(name)
        ))

    def _assign(self, targets: List[ast.AST], value_node: ast.AST) -> Any:
        saved, self.probe = self.probe, [set(), False]
        try:
            value, probe = self.expr(value_node), self.probe
        finally:
            self.probe = saved
        t = targets[0]
        role = self._role_name(t.value) if isinstance(t, ast.Attribute) else None
        if len(targets) == 1 and role is not None:
            return Store(role, t.attr, value, self._noncomm(role, probe))
        if len(targets) != 1:
            reason = "multiple assignment targets"
        elif isinstance(value, Opaque):
            reason = value.reason
        elif isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name):
            reason = "assignment through a non-role name"
        else:
            reason = "assignment to a non-property target"
        return summarize(reason, value, [self._target(t, value_node, probe) for t in targets])

    def _noncomm(self, role: str, probe) -> bool:
        """The value combines two parameters of the written role (R's are
        both the target) with a non-commutative operator."""
        names, applied = probe
        mapped = ACCESS_ROLE.get(role, role)
        roles = [self.env.get(n) for n in names]
        return applied and sum(ACCESS_ROLE.get(r, r) == mapped for r in roles) >= 2

    def _target(self, t: ast.AST, value: Optional[ast.AST], probe) -> Any:
        """The facts of storing into ``t``, plus the role / engine-view
        bookkeeping of name targets."""
        if isinstance(t, ast.Attribute):
            role, base = self._role_name(t.value), t.value
            if role is not None:
                noncomm = {t.attr} if probe and self._noncomm(role, probe) else ()
                return summarize("", writes=_props(role, t.attr), noncomm_writes=noncomm)
            if isinstance(base, ast.Name) and base.id in self.remote:
                return summarize("", remote_writes={t.attr})
            if self._is_engine_get(base):
                return summarize("", [self.expr(a) for a in base.args], remote_writes={t.attr})
            return self.expr(base)
        if isinstance(t, ast.Name):
            if self._role_name(value) is not None:
                self.env[t.id] = self.env[value.id]
            elif value is not None and self._is_engine_get(value):
                self.remote.add(t.id)
            else:
                self.env.pop(t.id, None)
                self.remote.discard(t.id)
        elif isinstance(t, (ast.Tuple, ast.List)):
            values = [None] * len(t.elts)
            if isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(t.elts):
                values = value.elts
            return [self._target(e, v, probe) for e, v in zip(t.elts, values)]
        elif isinstance(t, ast.Subscript):
            base, mutated = t.value, ()
            if (
                isinstance(base, ast.Name) and self._captured(base.id)
                and not base.id.startswith("__")
            ):
                found, obj = self.resolve(base.id)
                mutated = () if found and callable(obj) else {base.id}
            return summarize("", self.expr(base), self.expr(t.slice), mutated_globals=mutated)
        return None

    def _captured(self, name: str) -> bool:  # enclosing-scope or module state
        return name not in self.local_names and name not in self.env

    def _augassign(self, s: ast.AugAssign) -> Any:
        value, t = self.expr(s.value), s.target
        if not (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)):
            return summarize("augmented assignment target", value, self._target(t, None, None))
        role, attr = self.env.get(t.value.id), t.attr
        if role is None:
            return summarize(
                f"attribute on non-role name {t.value.id!r}", value, self._target(t, None, None)
            )
        if attr.startswith("_"):
            return summarize(f"private attribute {attr!r}", value)
        current = Special(role, attr) if attr in SPECIAL_ATTRS else Prop(role, attr)
        op = _BINOPS.get(type(s.op))
        if op is None or isinstance(value, Opaque):
            reason = value.reason if isinstance(value, Opaque) else "augmented operator"
            return Store(role, attr, summarize(reason, current, value))
        return Store(role, attr, Binary(op, current, value))

    def _nested(self, node) -> List[Any]:
        """A nested def / lambda: its body, its parameters shadowing roles."""
        shadowed = {a.arg for a in node.args.args}
        saved = self.env
        self.env = {k: v for k, v in saved.items() if k not in shadowed}
        try:
            if isinstance(node, ast.Lambda):
                return [self.expr(node.body)]
            return list(self.body(node.body, True))
        finally:
            self.env = saved

    def _children(self, node: ast.AST) -> List[Any]:
        parts: List[Any] = []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                parts.append(self.stmt(child, True))
            elif isinstance(child, ast.expr):
                parts.append(self.expr(child))
            else:
                parts.extend(self._children(child))
        return parts

    # -- expressions ---------------------------------------------------
    def expr(self, node: ast.AST) -> Expr:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, _CONST_TYPES):
                return Const(node.value)
            return Opaque(f"constant of type {type(node.value).__name__}")
        if isinstance(node, ast.Name):
            return self._name(node.id)
        if isinstance(node, ast.Attribute):
            return self._attribute(node)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.UnaryOp):
            return _first(lambda o: self._unary(node.op, o), self.expr(node.operand))
        if isinstance(node, ast.BinOp):
            if self.probe is not None and isinstance(node.op, _NONCOMMUTATIVE_OPS):
                self.probe[1] = True
            op = _BINOPS.get(type(node.op))
            left, right = self.expr(node.left), self.expr(node.right)
            if op is None:
                return summarize(f"operator {type(node.op).__name__}", left, right)
            return _first(lambda a, b: Binary(op, a, b), left, right)
        if isinstance(node, ast.Compare):
            operands = [self.expr(node.left)] + [self.expr(c) for c in node.comparators]
            if len(node.ops) != 1:
                return summarize("chained comparison", operands)
            op = _CMPOPS.get(type(node.ops[0]))
            if op is None:
                return summarize(f"comparison {type(node.ops[0]).__name__}", operands)
            return _first(lambda a, b: Compare(op, a, b), *operands)
        if isinstance(node, ast.BoolOp):
            op = "and" if isinstance(node.op, ast.And) else "or"
            return _first(lambda *o: self._boolop(op, o), *[self.expr(v) for v in node.values])
        if isinstance(node, ast.IfExp):
            return _first(
                Where, self.expr(node.test), self.expr(node.body), self.expr(node.orelse)
            )
        if isinstance(node, ast.Lambda):
            return summarize("expression Lambda", self._nested(node))
        return summarize(f"expression {type(node).__name__}", self._children(node))

    @staticmethod
    def _unary(op: ast.unaryop, operand: Expr) -> Expr:
        if isinstance(op, ast.Not):
            return Unary("not", operand)
        numeric = isinstance(operand, Const) and isinstance(operand.value, (int, float))
        if isinstance(op, ast.USub):
            # fold negated literals so sentinel matching sees Const(-1)
            return Const(-operand.value) if numeric else Unary("neg", operand)
        if isinstance(op, ast.UAdd):
            return operand if numeric else Unary("pos", operand)
        return summarize("unary operator", operand)

    @staticmethod
    def _boolop(op: str, operands: Tuple[Expr, ...]) -> Expr:
        if not all(is_boolean(o) for o in operands):
            return summarize("and/or over non-boolean operands", operands)
        return BoolOp(op, operands)

    def _attribute(self, node: ast.Attribute) -> Expr:
        base, attr = node.value, node.attr
        role = self._role_name(base)
        if role is not None and self.probe is not None:
            self.probe[0].add(base.id)
        if not isinstance(node.ctx, ast.Load):
            return summarize("nested attribute access", self.expr(base))
        if role is not None:
            if attr in SPECIAL_ATTRS:
                return Special(role, attr)
            if attr.startswith("_"):
                return Opaque(f"private attribute {attr!r}")
            return Prop(role, attr)
        if isinstance(base, ast.Name):
            remote = {attr} if base.id in self.remote and attr not in IGNORED_ATTRIBUTES else ()
            return summarize(f"attribute on non-role name {base.id!r}", remote_reads=remote)
        if self._is_engine_get(base):
            remote = {attr} if attr not in IGNORED_ATTRIBUTES else ()
            return summarize(
                "nested attribute access", [self.expr(a) for a in base.args],
                remote_reads=remote,
            )
        return summarize("nested attribute access", self.expr(base))

    def _name(self, name: str) -> Expr:
        if name in self.env:
            return Opaque(f"bare role parameter {name!r}")
        found, value = self.resolve(name)
        if not found:
            return Opaque(f"unresolvable name {name!r}")
        if isinstance(value, _CONST_TYPES):
            return Const(value)
        return Opaque(f"non-constant captured value {name!r}")

    def _prop_name(self, node: Optional[ast.AST]) -> Optional[str]:
        """The property a helper / ``getattr`` argument names: a string
        literal, or a free or bound name resolving to a ``str``."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name) and node.id not in self.env:
            found, value = self.resolve(node.id)
            if found and isinstance(value, str):
                return value
        return None

    def _is_engine_get(self, node: ast.AST) -> bool:
        """``<engine>.get(x)`` — the FLASHWARE arbitrary-vertex read."""
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            return False
        base = node.func.value
        if node.func.attr != "get" or not isinstance(base, ast.Name) or base.id in self.env:
            return False
        found, obj = self.resolve(base.id)
        # an unresolvable receiver falls back to the conventional names
        return isinstance(obj, FlashEngine) if found else base.id in ("eng", "engine")

    def _call(self, node: ast.Call) -> Expr:
        func, args = node.func, node.args
        name = func.id if isinstance(func, ast.Name) else None
        found, obj = self.resolve(name) if name else (False, None)
        if found and not node.keywords:
            if (obj is min or obj is max) and len(args) >= 2:
                return _first(lambda *a: MinMax(name, a), *[self.expr(a) for a in args])
            if obj is abs and len(args) == 1:
                return _first(Abs, self.expr(args[0]))
            if any(obj is t for t in (set, list, dict)) and not args:
                return FreshObject(obj.__name__)
        if name is None or node.keywords:
            reason = "call"
        elif not found:
            reason = f"unresolvable callee {name!r}"
        elif obj is min or obj is max:
            reason = f"{name}() over an iterable"
        else:
            reason = f"call to {name!r}"

        # facts: the arguments, plus what the callee does with them; a
        # bare role parameter escaping into a callee the walk cannot
        # follow makes that role unknown (it could touch any property)
        parts: List[Any] = [self.expr(k.value) for k in node.keywords]
        extra: Dict[str, Any] = {}
        escape = False
        role = self._role_name(args[0]) if args else None
        if name in _HELPERS and (obj is None or _module(obj).startswith("repro.")):
            # copy-on-write helper: a read *and* a write of the property
            if role is not None and len(args) >= 2:
                prop = self._prop_name(args[1])
                extra = {"reads": _props(role, prop), "writes": _props(role, prop)}
                if prop is None:
                    extra = {"unknown_roles": {role}}
        elif name in ("getattr", "hasattr", "setattr") and role is not None:
            prop = self._prop_name(args[1] if len(args) > 1 else None)
            key = "writes" if name == "setattr" else "reads"
            extra = {key: _props(role, prop)} if prop is not None else {"unknown_roles": {role}}
        elif isinstance(func, ast.Attribute):
            extra = self._method(func)
            parts.append(self.expr(func.value))
        elif found and callable(obj) and (
            _module(obj) == "builtins" or obj is getattr(builtins, name, None)
        ):
            pass  # builtins never read vertex properties
        elif found and _is_callee(obj) and callable(obj):
            escape, extra = self._callee(name, obj, args)
        else:
            escape = True
        for arg in args:
            arg_role = self._role_name(arg)
            if arg_role is None:
                parts.append(self.expr(arg))
            elif escape:
                parts.append(Opaque("", unknown_roles=frozenset({arg_role})))
        return summarize(reason, parts, **extra)

    def _method(self, func: ast.Attribute) -> Dict[str, Any]:
        """``base.attr(...)``: a method of a role parameter is a read of
        the property; a mutator on a captured collection mutates it."""
        base = func.value
        role = self._role_name(base)
        if role is not None:
            if self.probe is not None:
                self.probe[0].add(base.id)
            return {"reads": _props(role, func.attr)}
        if isinstance(base, ast.Name):
            found, obj = self.resolve(base.id)
            if (
                self._captured(base.id) and func.attr in MUTATOR_METHODS
                and not (found and callable(obj)) and not (found and isinstance(obj, FlashEngine))
            ):
                return {"mutated_globals": {base.id}}
        return {}

    def _callee(self, name: str, obj: Any, args) -> Tuple[bool, Dict[str, Any]]:
        """A call to a resolvable Python function: lowered itself, roles
        propagated through positional arguments.  Returns whether role
        arguments escape and the callee's facts."""
        code = getattr(_unwrap(obj)[0], "__code__", None)
        if self.depth >= _MAX_DEPTH or code is None:
            return True, {}
        if code in self.stack:
            # recursive call: the body is already being accounted once
            self.resolve(name, "rec")
            return False, {}
        roles = tuple(self._role_name(a) for a in args)
        sub = self.deps[(name, roles)] = lower(obj, roles, self.stack, self.depth + 1)
        return False, {k: getattr(sub.facts, k) for k in FACTS if k != "noncomm_writes"}


# ---------------------------------------------------------------------------
# Entries and the cache
# ---------------------------------------------------------------------------
class Lowered:
    """One function's lowering: the body IR (``None`` when the source is
    not recoverable — ``missing`` says why) and where it came from.  The
    analyzer memoises its FunctionAccess in ``access``."""

    def __init__(self, name, roles, code=None, role_params=(), body=None, missing=None):
        self.name, self.roles, self.code = name, roles, code
        self.role_params, self.body, self.missing = role_params, body, missing
        self.filename = code.co_filename if code is not None else ""
        self.lineno = code.co_firstlineno if code is not None else 0
        self.access = None
        self._facts: Optional[Opaque] = None

    @property
    def facts(self) -> Opaque:
        """Every fact of the body as one Opaque (a missing body leaves
        each role it was given unknown)."""
        if self._facts is None:
            unknown = frozenset(r for r in self.roles if r) if self.body is None else ()
            self._facts = summarize(self.missing or "", self.body, unknown_roles=unknown)
        return self._facts


#: key -> the names its lowerings resolved -> what they used -> lowering
_functions: Dict[Any, Dict[Tuple, Dict[Tuple, Lowered]]] = {}
#: code -> its def node, positional parameter names and local names
_defs: Dict[Any, Tuple[Optional[ast.AST], List[str], Set[str]]] = {}


def lower(fn: Callable, roles: Tuple[Optional[str], ...],
          _stack: Optional[Set[Any]] = None, _depth: int = 0) -> Lowered:
    """The (cached) lowering of ``fn`` with its positional parameters —
    after any ``partial``-applied ones — bound to ``roles`` (``None``
    entries are non-vertex parameters)."""
    roles = tuple(roles)
    inner, leading, trailing = _unwrap(fn)
    code = getattr(inner, "__code__", None)
    name = getattr(inner, "__name__", type(inner).__name__)
    if code is None:
        missing = Lowered(name, roles, missing="no recoverable source")
        return _functions.setdefault((name, roles), {}).setdefault((), {(): missing})[()]
    bucket = _functions.get((code, leading, roles))
    if bucket is None:
        bucket = _functions[code, leading, roles] = {}
    if code not in _defs:
        tree = _module_tree(code.co_filename)
        node = _find_def(tree, code) if tree is not None else None
        params = [a.arg for a in node.args.args] if node is not None else []
        _defs[code] = node, params, set(code.co_varnames) | set(code.co_cellvars)
    node, params, local_names = _defs[code]
    if node is None:
        missing = Lowered(name, roles, code, missing="function AST not found")
        return bucket.setdefault((), {(): missing})[()]
    resolve = _scope(inner, params, trailing)
    # a snapshot: serving threads may add a group while this one looks
    for names, lowerings in list(bucket.items()):
        hit = lowerings.get(tuple(_use(*resolve(n), how) for n, how in names))
        if hit is not None:
            return hit

    # ``partial`` pre-applies leading (role-less) parameters, so the
    # roles describe the positional parameters after them
    full_roles = [None] * leading + list(roles)
    env = {p: r for p, r in zip(params, full_roles) if r is not None}
    stack = _stack if _stack is not None else set()
    walk = _Walk(resolve, env, tuple(env), local_names, stack, _depth)
    stack.add(code)
    try:
        if isinstance(node, ast.Lambda):  # the body is its return expression
            body = (walk._return(ast.Return(value=node.body)),)
        else:
            body = walk.body(node.body)
    finally:
        stack.discard(code)
    entry = Lowered(name, roles, code, tuple(env), body)
    group = bucket.setdefault(tuple(walk.deps), {})
    group[tuple(walk.deps.values())] = entry
    if len(group) > _KEEP:
        group.pop(next(iter(group)), None)
    return entry


class KernelEntry:
    """One kernel's slot lowerings, with the products memoised on it:
    the analyzer's ``access`` and ``classification``, the synthesizer's
    ``synthesis``."""

    __slots__ = ("kind", "slots", "access", "classification", "synthesis")

    def __init__(self, kind: str, slots: Dict[str, Optional[Lowered]]):
        self.kind, self.slots = kind, slots
        self.access = self.classification = self.synthesis = None


_kernels: Dict[Tuple, KernelEntry] = {}


def kernel(kind: str, F=None, M=None, C=None, R=None) -> KernelEntry:
    """The kernel entry of ``kind`` over the given user functions."""
    role_map = VERTEX_MAP_ROLES if kind == "vertex_map" else EDGE_MAP_ROLES
    fns = {"C": C, "F": F, "M": M, "R": R}
    slots = {
        slot: lower(fns[slot], role_map[slot])
        if fns[slot] is not None and slot in role_map else None
        for slot in SLOTS
    }
    key = (kind,) + tuple(slots.values())
    if key not in _kernels:
        if len(_kernels) >= 4 * _KEEP:
            _kernels.pop(next(iter(_kernels)), None)
        _kernels[key] = KernelEntry(kind, slots)
    return _kernels[key]


_interned: Dict[Any, Any] = {}


def intern(key: Any, make: Callable[[], Any]) -> Any:
    """One object per ``key`` until :func:`clear` — lets lowerings that
    differ only in a constant the walk resolved (``bc:level``'s bound
    level) share one access object, so program captures see one kernel."""
    if key not in _interned:
        _interned[key] = make()
    return _interned[key]


def clear() -> None:
    """Drop every parse, lowering and product."""
    for cache in (_trees, _defs, _functions, _kernels, _interned):
        cache.clear()
