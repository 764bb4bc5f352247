"""The catalog of served queries.

Each :class:`ServedAlgorithm` describes one request type end to end:
parameter validation/canonicalization (fail fast at admission, before a
slot is spent), how to execute one request, and — where applicable —
how to execute a *merged batch* of them or derive them from a shared
cached artifact:

* **batchable** (``bfs-from-source``, ``sssp``, ``ppr-for-user``) —
  requests differing only in their source merge into one multi-source
  run (:mod:`repro.serving.multisource`); ``batch_key`` decides
  compatibility (all parameters except the source must match).
* **derived** (``pagerank-top-k``, ``cc-membership``) — the expensive
  whole-graph artifact (full rank vector, component labels) is computed
  once per graph version and cached under ``artifact``/``artifact_key``;
  each request only runs the cheap ``extract`` step.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro import algorithms as A
from repro.core.engine import FlashEngine
from repro.errors import InvalidRequestError, UnknownAlgorithmError
from repro.serving.cache import canonical_params
from repro.serving.multisource import as_int, multi_bfs, multi_ppr, multi_sssp, top_k


def _vertex(value: Any, n: int, what: str) -> int:
    vid = as_int(value, what)
    if not 0 <= vid < n:
        raise InvalidRequestError(f"{what} {vid} out of range (|V|={n})")
    return vid


def _positive_int(value: Any, what: str) -> int:
    out = as_int(value, what)
    if out < 1:
        raise InvalidRequestError(f"{what} must be >= 1, got {out}")
    return out


def _damping(value: Any) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise InvalidRequestError(f"damping must be a float, got {value!r}") from None
    if not 0.0 < out < 1.0:
        raise InvalidRequestError(f"damping must be in (0, 1), got {out}")
    return out


@dataclass
class ServedAlgorithm:
    """One request type the server knows how to answer."""

    name: str
    defaults: Dict[str, Any]
    validate: Callable[[Dict[str, Any], int], Dict[str, Any]]
    #: Batchable queries: merged multi-source execution.
    batchable: bool = False
    source_param: Optional[str] = None
    run_single: Optional[Callable[[FlashEngine, Dict[str, Any]], Any]] = None
    run_multi: Optional[Callable[[FlashEngine, List[Dict[str, Any]]], List[Any]]] = None
    #: Derived queries: shared artifact + cheap per-request extraction.
    artifact: Optional[str] = None
    artifact_params: Tuple[str, ...] = field(default_factory=tuple)
    compute_artifact: Optional[Callable[[FlashEngine, Dict[str, Any]], Any]] = None
    extract: Optional[Callable[[Any, Dict[str, Any]], Any]] = None

    def canonicalize(self, params: Optional[Dict[str, Any]], num_vertices: int) -> Dict[str, Any]:
        params = dict(params or {})
        unknown = set(params) - set(self.defaults) - {"seed"}
        if unknown:
            raise InvalidRequestError(
                f"{self.name}: unknown parameter(s) {sorted(unknown)}; "
                f"expected any of {sorted(self.defaults)}"
            )
        merged = {**self.defaults, **params}
        return self.validate(merged, num_vertices)

    def cache_params(self, params: Dict[str, Any]) -> Hashable:
        return canonical_params(params)

    def batch_key(self, params: Dict[str, Any]) -> Hashable:
        """Requests with equal batch keys may merge into one run."""
        if not self.batchable:
            return None
        shared = {k: v for k, v in params.items() if k != self.source_param}
        return (self.name, canonical_params(shared))

    def artifact_key(self, params: Dict[str, Any]) -> Hashable:
        return canonical_params({k: params[k] for k in self.artifact_params})


# ---------------------------------------------------------------------------
# bfs-from-source / sssp
# ---------------------------------------------------------------------------
def _validate_source_only(params: Dict[str, Any], n: int) -> Dict[str, Any]:
    return {"source": _vertex(params["source"], n, "source")}


def _bfs_single(engine: FlashEngine, params: Dict[str, Any]) -> List[float]:
    return A.bfs(engine, root=params["source"]).values


def _bfs_multi(engine: FlashEngine, batch: List[Dict[str, Any]]) -> List[List[float]]:
    return multi_bfs(engine, [p["source"] for p in batch])


def _sssp_single(engine: FlashEngine, params: Dict[str, Any]) -> List[float]:
    return A.sssp(engine, root=params["source"]).values


def _sssp_multi(engine: FlashEngine, batch: List[Dict[str, Any]]) -> List[List[float]]:
    return multi_sssp(engine, [p["source"] for p in batch])


# ---------------------------------------------------------------------------
# ppr-for-user
# ---------------------------------------------------------------------------
def _validate_ppr(params: Dict[str, Any], n: int) -> Dict[str, Any]:
    seeds = params.get("seeds")
    if "seed" in params and params["seed"] is not None:
        if seeds not in (None, ()):
            raise InvalidRequestError("pass either 'seed' or 'seeds', not both")
        seeds = [params["seed"]]
    if not seeds:
        raise InvalidRequestError("ppr-for-user needs a 'seed' or non-empty 'seeds'")
    canonical = tuple(sorted({_vertex(s, n, "seed") for s in seeds}))
    return {
        "seeds": canonical,
        "damping": _damping(params["damping"]),
        "iters": _positive_int(params["iters"], "iters"),
        "k": _positive_int(params["k"], "k"),
    }


def _ppr_single(engine: FlashEngine, params: Dict[str, Any]):
    result = A.personalized_pagerank(
        engine,
        params["seeds"],
        damping=params["damping"],
        max_iters=params["iters"],
        tolerance=0.0,
    )
    return top_k(result.values, params["k"])


def _ppr_multi(engine: FlashEngine, batch: List[Dict[str, Any]]):
    columns = multi_ppr(
        engine,
        [p["seeds"] for p in batch],
        damping=batch[0]["damping"],
        iters=batch[0]["iters"],
    )
    return [top_k(col, p["k"]) for col, p in zip(columns, batch)]


# ---------------------------------------------------------------------------
# pagerank-top-k (derived from the full rank vector)
# ---------------------------------------------------------------------------
def _validate_pagerank(params: Dict[str, Any], n: int) -> Dict[str, Any]:
    return {
        "k": _positive_int(params["k"], "k"),
        "damping": _damping(params["damping"]),
        "iters": _positive_int(params["iters"], "iters"),
    }


def _pagerank_artifact(engine: FlashEngine, params: Dict[str, Any]) -> List[float]:
    return A.pagerank(
        engine, damping=params["damping"], max_iters=params["iters"], tolerance=0.0
    ).values


def _pagerank_extract(ranks: List[float], params: Dict[str, Any]):
    return top_k(ranks, params["k"])


# ---------------------------------------------------------------------------
# cc-membership (derived from the component labeling)
# ---------------------------------------------------------------------------
def _validate_cc(params: Dict[str, Any], n: int) -> Dict[str, Any]:
    return {"vertex": _vertex(params["vertex"], n, "vertex")}


def _cc_artifact(engine: FlashEngine, params: Dict[str, Any]):
    labels = A.cc_opt(engine).values
    return {"labels": labels, "sizes": Counter(labels)}


def _cc_extract(artifact, params: Dict[str, Any]):
    vertex = params["vertex"]
    label = artifact["labels"][vertex]
    return {
        "vertex": vertex,
        "component": label,
        "size": artifact["sizes"][label],
    }


# ---------------------------------------------------------------------------
def build_registry() -> Dict[str, ServedAlgorithm]:
    """A fresh name -> descriptor map (each server owns its own)."""
    algorithms = [
        ServedAlgorithm(
            name="bfs-from-source",
            defaults={"source": 0},
            validate=_validate_source_only,
            batchable=True,
            source_param="source",
            run_single=_bfs_single,
            run_multi=_bfs_multi,
        ),
        ServedAlgorithm(
            name="sssp",
            defaults={"source": 0},
            validate=_validate_source_only,
            batchable=True,
            source_param="source",
            run_single=_sssp_single,
            run_multi=_sssp_multi,
        ),
        ServedAlgorithm(
            name="ppr-for-user",
            defaults={"seeds": (), "damping": 0.85, "iters": 10, "k": 10},
            validate=_validate_ppr,
            batchable=True,
            source_param="seeds",
            run_single=_ppr_single,
            run_multi=_ppr_multi,
        ),
        ServedAlgorithm(
            name="pagerank-top-k",
            defaults={"k": 10, "damping": 0.85, "iters": 10},
            validate=_validate_pagerank,
            artifact="pagerank-ranks",
            artifact_params=("damping", "iters"),
            compute_artifact=_pagerank_artifact,
            extract=_pagerank_extract,
        ),
        ServedAlgorithm(
            name="cc-membership",
            defaults={"vertex": 0},
            validate=_validate_cc,
            artifact="cc-labels",
            compute_artifact=_cc_artifact,
            extract=_cc_extract,
        ),
    ]
    return {algo.name: algo for algo in algorithms}


def resolve(registry: Dict[str, ServedAlgorithm], name: str) -> ServedAlgorithm:
    try:
        return registry[name]
    except KeyError:
        raise UnknownAlgorithmError(
            f"unknown algorithm {name!r}; served: {', '.join(sorted(registry))}"
        ) from None
