"""Ahead-of-time static analysis of FLASH programs (paper §IV-B/§IV-C).

The package reproduces what the paper's code generator does at compile
time: derive each kernel's complete critical-property set from the
program text instead of observing a sample edge at runtime, and lint the
program for FLASH-model misuse before a single superstep runs.

Layers
------
:mod:`~repro.analysis.compile.frontend`
    The one lowering of each user function (shared with the spec
    synthesizer); every product below is read off it.
:mod:`~repro.analysis.staticpass.analyzer`
    The access sets (``FunctionAccess`` / ``KernelAccess``) folded from
    that lowering.
:mod:`~repro.analysis.staticpass.tableii`
    Table II over the access sets: the critical-property classification,
    plus the cross-check against the runtime trace oracle.
:mod:`~repro.analysis.staticpass.program`
    Ambient whole-program capture (nested engines included).
:mod:`~repro.analysis.staticpass.lint`
    flashlint — the rule catalog behind ``repro lint``.
:mod:`~repro.analysis.staticpass.speccheck`
    Declared vectorized-spec access sets validated against the analyzer.

See ``docs/static_analysis.md`` for the full walkthrough.
"""

from repro.analysis.staticpass.analyzer import (
    Access,
    FunctionAccess,
    KernelAccess,
    clear_caches,
    function_access,
    kernel_access,
)
from repro.analysis.staticpass.lint import (
    RULES,
    Finding,
    lint_app,
    lint_apps,
    lint_capture,
    summarize,
)
from repro.analysis.staticpass.program import (
    KernelReport,
    ProgramCapture,
    capture_program,
)
from repro.analysis.staticpass.speccheck import check_spec
from repro.analysis.staticpass.tableii import (
    StaticClassification,
    analyze_kernel,
    classify_kernel,
    cross_check,
)

__all__ = [
    "Access",
    "Finding",
    "FunctionAccess",
    "KernelAccess",
    "KernelReport",
    "ProgramCapture",
    "RULES",
    "StaticClassification",
    "analyze_kernel",
    "capture_program",
    "check_spec",
    "classify_kernel",
    "clear_caches",
    "cross_check",
    "function_access",
    "kernel_access",
    "lint_app",
    "lint_apps",
    "lint_capture",
    "summarize",
]
