"""Static and dynamic query analysis.

Four layers over the Cypher pipeline:

* :func:`lint_query` / :class:`QueryLinter` — static diagnostics on the
  parsed query (before planning): semantic errors, provably-empty
  predicates, statistics-informed warnings, plan-shape warnings.
* :func:`analyze_plan` / :class:`PlanAnalysis` — one static pass over a
  compiled physical plan (S300, S3xx, S4xx; ``repro check``): the
  structural invariants of the tree, the §3.3 layout each operator
  derives against the metadata it declares, the RETURN clause's demand
  propagated down to the leaves (dead columns, property records and
  path contents).  It reports and gates nothing; a plan it proves
  cannot produce an S2xx finding under sanitized execution.
* :class:`EmbeddingSanitizer` / :func:`validate_embedding` — opt-in
  instrumented execution validating every embedding crossing an operator
  boundary against the §3.3 byte layout and the morphism semantics.
* :func:`differential_check` and :func:`audit_estimates` — dynamic
  cross-planner result comparison and per-operator cardinality q-error.
* :func:`classify_callable` / :func:`certify_chain` — the UDF
  shippability analyzer (P4xx): closure introspection + AST analysis
  deciding whether the callables in dataflow operators and fused chains
  can be shipped to worker processes.
* :mod:`repro.analysis.concurrency` — the concurrency correctness
  toolkit for *our own* serving code: the static lock-discipline linter
  (C3xx, ``repro racecheck``), the runtime lock-order witness and the
  deterministic interleaving fuzzer.  Imported lazily by tooling — not
  re-exported here, so importing :mod:`repro.analysis` stays cheap.
* :mod:`repro.analysis.protocol` / :mod:`repro.analysis.model` /
  :mod:`repro.analysis.wire_models` — the wire-protocol verifier for
  the multi-process worker runtime (W5xx, ``repro wirecheck``):
  AST-level schema extraction diffed against the declared pipe
  vocabulary, plus an explicit-state model checker exhaustively
  exploring the cancel/done, spec-cache, ring and resident-eviction
  protocols.  Lazily imported by tooling, like the concurrency kit.

The invariants tying them together (property-tested): a query that lints
without errors plans into a tree that verifies cleanly under every
planner, and its sanitized execution raises no finding while all three
planners return the same result multiset.
"""

from .diagnostics import (
    BLOCKING_CODES,
    CODES,
    Diagnostic,
    QueryLintError,
    Severity,
    sort_diagnostics,
)
from .linter import QueryLinter, lint_query
from .plan import (
    Demand,
    EmbeddingLayout,
    PlanAnalysis,
    analyze_plan,
)
# The sanitizer imports the engine package; it must come after the plan
# analysis import above, which completes the engine's initialization.
from .sanitizer import (
    EmbeddingSanitizer,
    SanitizerError,
    validate_embedding,
)
from .udfcheck import (
    ShippabilityError,
    ShippabilityReport,
    analyze_callables,
    analyze_chain,
    analyze_dataflow,
    certify_chain,
    classify_callable,
    iter_dataflow_udfs,
)
from .differential import (
    DifferentialReport,
    PlannerRun,
    compare_runs,
    differential_check,
    fusion_differential_check,
)
from .estimates import (
    DEFAULT_MAX_Q_ERROR,
    EstimateAudit,
    EstimateRecord,
    audit_estimates,
    q_error,
)


__all__ = [
    "BLOCKING_CODES",
    "CODES",
    "DEFAULT_MAX_Q_ERROR",
    "Demand",
    "Diagnostic",
    "DifferentialReport",
    "EmbeddingLayout",
    "EmbeddingSanitizer",
    "EstimateAudit",
    "EstimateRecord",
    "PlanAnalysis",
    "PlannerRun",
    "QueryLintError",
    "QueryLinter",
    "SanitizerError",
    "Severity",
    "ShippabilityError",
    "ShippabilityReport",
    "analyze_callables",
    "analyze_chain",
    "analyze_dataflow",
    "analyze_plan",
    "audit_estimates",
    "certify_chain",
    "classify_callable",
    "compare_runs",
    "differential_check",
    "fusion_differential_check",
    "iter_dataflow_udfs",
    "lint_query",
    "q_error",
    "sort_diagnostics",
    "validate_embedding",
]
