"""The ``vertexSubset`` type (paper §III-A, §III-C).

A :class:`VertexSubset` is an immutable set of vertex ids tied to an
engine.  It is the "global-perspective data structure supplementing the
perspective of a single vertex": algorithms may hold many subsets at
once, pass them through recursion (e.g. Brandes' BC), and combine them
with the auxiliary set operators (``UNION``, ``MINUS``, ``INTERSECT``,
``ADD``, ``CONTAIN`` — §III-A "the auxiliary operators").

A subset keeps the form it is born with and derives the other on
demand.  Built from an integer array or a ``range`` (columnar kernel
outputs, ``engine.V``) it holds one sorted, duplicate-free, read-only
``int64`` array, and builds a ``frozenset`` only when a per-vertex
consumer asks for membership; built from any other iterable (the
interpreted kernels' id lists, ``engine.subset([...])``) it holds the
``frozenset`` + sorted list and builds the array on first columnar use.
Both births validate the same way and compare / hash equal.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Optional

import numpy as np


class VertexSubset:
    """An immutable subset of a graph's vertices."""

    # ``_sorted`` is the born-as marker: a list on iterable-born
    # subsets, ``None`` on array-born ones (which list their ids from
    # ``_arr`` per request instead of holding a third copy).
    __slots__ = ("_engine", "_arr", "_ids", "_sorted")

    def __init__(self, engine, ids: Iterable[int]):
        self._engine = engine
        n = engine.graph.num_vertices
        if isinstance(ids, range):
            ids = np.arange(ids.start, ids.stop, ids.step, dtype=np.int64)
        if (
            isinstance(ids, np.ndarray)
            and ids.ndim == 1
            and ids.dtype.kind in "iu"
            and np.can_cast(ids.dtype, np.int64)
        ):
            arr = ids.astype(np.int64, copy=False)
            if len(arr) > 1 and not (arr[1:] > arr[:-1]).all():
                arr = np.unique(arr)
            if len(arr) and not (0 <= arr[0] and arr[-1] < n):
                v = int(arr[0] if arr[0] < 0 else arr[-1])
                raise ValueError(f"vertex id {v} out of range (|V|={n})")
            arr.setflags(write=False)
            self._arr: Optional[np.ndarray] = arr
            self._ids: Optional[FrozenSet[int]] = None
            self._sorted: Optional[List[int]] = None
            return
        self._ids = frozenset(int(v) for v in ids)
        for v in self._ids:
            if not 0 <= v < n:
                raise ValueError(f"vertex id {v} out of range (|V|={n})")
        self._sorted = sorted(self._ids)
        self._arr = None

    # ------------------------------------------------------------------
    @property
    def engine(self):
        return self._engine

    def as_array(self) -> np.ndarray:
        """Member ids as a sorted, read-only ``int64`` array — the view
        the columnar kernels read (derived once on iterable-born
        subsets)."""
        arr = self._arr
        if arr is None:
            arr = self._arr = np.asarray(self._sorted, dtype=np.int64)
            arr.setflags(write=False)
        return arr

    def _set(self) -> FrozenSet[int]:
        ids = self._ids
        if ids is None:
            ids = self._ids = frozenset(self._arr.tolist())
        return ids

    def size(self) -> int:
        """The paper's ``SIZE(U)`` — a superstep-free global count."""
        ids = self._ids
        return len(ids) if ids is not None else len(self._arr)

    __len__ = size

    def __bool__(self) -> bool:
        return self.size() > 0

    def __iter__(self) -> Iterator[int]:
        """Iterate ids in sorted order (deterministic execution)."""
        ids = self._sorted
        return iter(ids if ids is not None else self._arr.tolist())

    def __contains__(self, vid: int) -> bool:
        ids = self._ids
        if ids is None:
            ids = self._set()
        return vid in ids

    def ids(self) -> List[int]:
        """Sorted list of member ids."""
        ids = self._sorted
        return list(ids) if ids is not None else self._arr.tolist()

    # ------------------------------------------------------------------
    # Auxiliary set operators
    # ------------------------------------------------------------------
    def _check_peer(self, other: "VertexSubset") -> None:
        if not isinstance(other, VertexSubset):
            raise TypeError(f"expected VertexSubset, got {type(other).__name__}")
        if other._engine is not self._engine:
            raise ValueError("cannot combine subsets from different engines")

    def _combine(self, other: "VertexSubset", array_op, set_op) -> "VertexSubset":
        """``array_op`` when both sides are array-born, else today's
        ``frozenset`` algebra."""
        self._check_peer(other)
        if self._sorted is None and other._sorted is None:
            return VertexSubset(self._engine, array_op(self._arr, other._arr))
        return VertexSubset(self._engine, set_op(self._set(), other._set()))

    def union(self, other: "VertexSubset") -> "VertexSubset":
        return self._combine(other, np.union1d, frozenset.union)

    def minus(self, other: "VertexSubset") -> "VertexSubset":
        return self._combine(other, _setdiff_sorted, frozenset.difference)

    def intersect(self, other: "VertexSubset") -> "VertexSubset":
        return self._combine(other, _intersect_sorted, frozenset.intersection)

    def add(self, vid: int) -> "VertexSubset":
        """A new subset with ``vid`` added (subsets are immutable)."""
        if self._sorted is None:
            one = np.array([int(vid)], dtype=np.int64)
            return VertexSubset(self._engine, np.union1d(self._arr, one))
        return VertexSubset(self._engine, self._ids | {int(vid)})

    def contain(self, vid: int) -> bool:
        """The paper's ``CONTAIN`` operator."""
        return int(vid) in self._set()

    # Operator sugar
    __or__ = union
    __sub__ = minus
    __and__ = intersect

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VertexSubset):
            return NotImplemented
        if self._engine is not other._engine:
            return False
        if self._ids is not None and other._ids is not None:
            return self._ids == other._ids
        return np.array_equal(self.as_array(), other.as_array())

    def __hash__(self) -> int:
        return hash((id(self._engine), self._set()))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        n = self.size()
        head = self._sorted[:8] if self._sorted is not None else self._arr[:8].tolist()
        preview = ", ".join(map(str, head))
        suffix = ", ..." if n > 8 else ""
        return f"VertexSubset({{{preview}{suffix}}}, size={n})"


def _setdiff_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.setdiff1d(a, b, assume_unique=True)


def _intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.intersect1d(a, b, assume_unique=True)
