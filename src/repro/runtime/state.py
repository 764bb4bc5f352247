"""Vertex property storage with BSP current/next separation.

Per the paper (§IV-A): FLASHWARE distinguishes the *current* states —
consistent on every worker that accesses a vertex in the current
superstep — from the *next* states, written during the superstep and made
visible only at the barrier.  :class:`VertexState` stores the current
columns; the next-state buffers live in
:class:`~repro.runtime.flashware.Flashware`, which commits them at
``barrier()``.

Properties may hold arbitrary Python values, including variable-length
collections (sets, lists) — the capability Gemini lacks and that the
paper leans on for TC/GC/LPA (§V, Appendix B).  Scalar-valued properties
(bool/int/float defaults) are stored as NumPy arrays, everything else
(sets, lists, dicts, ``None``-defaulted properties, factory-built
columns) as plain Python lists.  Two invariants keep the representation
invisible to programs:

* ``get``/``row`` always return plain Python scalars (``.item()``), never
  NumPy scalars — user functions and edge-set adaptors (which do
  ``isinstance(x, int)`` checks) cannot tell the difference.
* A scalar write that does not fit the column's dtype (a float into an
  int column, ``inf`` into an int column, an overflowing int, an object)
  *demotes* the whole column to a Python list and proceeds — semantics
  degrade gracefully to the object representation instead of raising or
  silently truncating.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, List, Optional

import numpy as np

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


class ConstantFactory:
    """Per-vertex default factory returning one shared immutable value.

    A class (not a lambda) so factories survive ``pickle``/``deepcopy`` —
    required once vertex state ships across process boundaries (the
    distributed executor re-creates columns on workers from the same
    factories, and checkpoints of factory-built properties must
    round-trip through serializing stores)."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __call__(self) -> Any:
        return self.value

    def __getstate__(self):
        # Wrapped in a tuple: a bare falsy state (None, 0, "") would make
        # pickle skip __setstate__ entirely.
        return (self.value,)

    def __setstate__(self, state):
        (self.value,) = state

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ConstantFactory({self.value!r})"


class CopyFactory:
    """Per-vertex default factory producing shallow copies of a mutable
    prototype (set/list/dict), so vertices never share storage.  Picklable
    for the same reasons as :class:`ConstantFactory`."""

    __slots__ = ("prototype",)

    def __init__(self, prototype: Any):
        self.prototype = prototype

    def __call__(self) -> Any:
        return copy.copy(self.prototype)

    def __getstate__(self):
        return (self.prototype,)

    def __setstate__(self, state):
        (self.prototype,) = state

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"CopyFactory({self.prototype!r})"


def _default_copier(default: Any) -> Callable[[], Any]:
    """Return a factory producing per-vertex initial values.

    Mutable defaults (set/list/dict) are copied per vertex so vertices do
    not share storage; immutable values are reused as-is.
    """
    if isinstance(default, (set, list, dict, bytearray)):
        return CopyFactory(default)
    return ConstantFactory(default)


def _scalar_dtype(value: Any) -> Optional[np.dtype]:
    """The NumPy dtype a column initialized with ``value`` should use, or
    ``None`` when the value needs an object column."""
    if isinstance(value, bool):
        return np.dtype(np.bool_)
    if isinstance(value, int):
        if _INT64_MIN <= value <= _INT64_MAX:
            return np.dtype(np.int64)
        return None
    if isinstance(value, float):
        return np.dtype(np.float64)
    return None


def _fits(value: Any, kind: str) -> bool:
    """Whether a Python scalar can be stored losslessly in a column of
    dtype kind ``kind`` ('b' bool, 'i' int64, 'f' float64)."""
    if isinstance(value, (float, np.floating)):
        return kind == "f"
    if isinstance(value, (bool, np.bool_)):
        return kind == "b"
    if isinstance(value, (int, np.integer)):
        # ints are widened into float columns only when exact
        if kind == "i":
            return _INT64_MIN <= value <= _INT64_MAX
        try:
            return kind == "f" and float(value) == value
        except OverflowError:  # beyond the float range
            return False
    return False


class VertexState:
    """Columnar storage of current vertex property values: a NumPy array
    per scalar property, a Python list per object property."""

    def __init__(self, num_vertices: int):
        self._n = num_vertices
        self._columns: Dict[str, Any] = {}
        self._factories: Dict[str, Callable[[], Any]] = {}

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def property_names(self) -> List[str]:
        return list(self._columns)

    def has_property(self, name: str) -> bool:
        return name in self._columns

    def add_property(
        self,
        name: str,
        default: Any = None,
        factory: Optional[Callable[[], Any]] = None,
    ) -> None:
        """Declare a vertex property.

        Parameters
        ----------
        name:
            Property name (attribute name on vertex views).
        default:
            Initial value for every vertex; mutable defaults are copied
            per vertex.
        factory:
            Alternative to ``default``: a zero-argument callable invoked
            once per vertex (overrides ``default``).
        """
        if name in self._columns:
            raise ValueError(f"property {name!r} already exists")
        if not name.isidentifier() or name.startswith("_"):
            raise ValueError(f"property name {name!r} must be a public identifier")
        make = factory if factory is not None else _default_copier(default)
        self._factories[name] = make
        dtype = _scalar_dtype(default) if factory is None else None
        if dtype is not None:
            self._columns[name] = np.full(self._n, default, dtype=dtype)
        else:
            self._columns[name] = [make() for _ in range(self._n)]

    def remove_property(self, name: str) -> None:
        self._columns.pop(name)
        self._factories.pop(name)

    def factory(self, name: str) -> Callable[[], Any]:
        """The per-vertex default factory of property ``name``."""
        return self._factories[name]

    def install_column(
        self,
        name: str,
        column: Any,
        factory: Optional[Callable[[], Any]] = None,
    ) -> None:
        """(Re)install a whole property column — checkpoint restore only.

        ``column`` becomes the live storage as-is (the caller owns the
        copy).  Without a ``factory`` (e.g. restored from an on-disk
        snapshot, where callables cannot be serialized) the property's
        default degrades to ``None``."""
        self._columns[name] = column
        if factory is not None or name not in self._factories:
            self._factories[name] = factory if factory is not None else ConstantFactory(None)

    def reset_property(self, name: str) -> None:
        """Reinitialize a property column to its default values."""
        make = self._factories[name]
        col = self._columns[name]
        if isinstance(col, np.ndarray):
            value = make()
            if _fits(value, col.dtype.kind):
                col[:] = value
                return
        self._columns[name] = [make() for _ in range(self._n)]

    # ------------------------------------------------------------------
    def get(self, vid: int, name: str) -> Any:
        col = self._columns[name]
        if isinstance(col, np.ndarray):
            return col.item(vid)
        return col[vid]

    def set(self, vid: int, name: str, value: Any) -> None:
        col = self._columns[name]
        if isinstance(col, np.ndarray):
            if _fits(value, col.dtype.kind):
                col[vid] = value
                return
            # Demote to the object representation; kernel dispatch falls
            # back to the interpreted path for this property from now on.
            col = self._columns[name] = col.tolist()
        col[vid] = value

    def row(self, vid: int) -> Dict[str, Any]:
        """All current property values of one vertex as a dict copy."""
        return {name: self.get(vid, name) for name in self._columns}

    def column(self, name: str) -> Any:
        """The live column for ``name`` — an array or a list (mutating it
        bypasses BSP — reserved for the barrier, result extraction and
        tests)."""
        return self._columns[name]

    def array(self, name: str) -> Optional[np.ndarray]:
        """The live NumPy column for ``name``, or ``None`` when the
        property is stored as an object list (collections, mixed types,
        demoted columns).  Kernel dispatch uses this to decide whether a
        property can be processed columnar."""
        col = self._columns.get(name)
        if isinstance(col, np.ndarray):
            return col
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        kinds = {
            name: (col.dtype.name if isinstance(col, np.ndarray) else "object")
            for name, col in self._columns.items()
        }
        return f"VertexState(n={self._n}, columns={kinds})"
