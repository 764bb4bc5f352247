"""The static kernel compiler (every engine runs it).

Three coordinated outputs, read off the front end's one lowering of each
user function (:mod:`~repro.analysis.compile.frontend` into the IR of
:mod:`~repro.analysis.compile.exprs`, which the static analyzer folds
its access sets from too):

* :mod:`~repro.analysis.compile.synthesize` — compile analyzable
  F/M/C/R user functions into vectorized kernel specs, with sound
  per-kernel fallback to the interpreter;
* :mod:`~repro.analysis.compile.commplan` — fold per-kernel read/write
  sets into per-property sync scopes the mp executor uses to withhold
  mirror deltas no kernel can read;
* :mod:`~repro.analysis.compile.plan` — the ``repro plan`` artifact:
  per-kernel classification, dispatch decision, and predicted sync
  columns/bytes for one application.

:mod:`~repro.analysis.compile.crosscheck` cross-validates synthesized
against hand-written specs bit-identically (the compiler's counterpart of the static/trace
cross-check).
"""

from repro.analysis.compile.commplan import CommunicationPlan
from repro.analysis.compile.crosscheck import cross_validate
from repro.analysis.compile.exprs import Unsupported
from repro.analysis.compile.plan import build_plan, render_plan
from repro.analysis.compile.synthesize import (
    explain_edge,
    explain_vertex,
    synthesize_edge_spec,
    synthesize_vertex_spec,
)

__all__ = [
    "CommunicationPlan",
    "Unsupported",
    "build_plan",
    "render_plan",
    "cross_validate",
    "explain_edge",
    "explain_vertex",
    "synthesize_edge_spec",
    "synthesize_vertex_spec",
]
