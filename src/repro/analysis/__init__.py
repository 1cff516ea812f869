"""Static and dynamic query analysis.

Four layers over the Cypher pipeline:

* :func:`lint_query` / :class:`QueryLinter` — static diagnostics on the
  parsed query (before planning): semantic errors, provably-empty
  predicates, statistics-informed warnings, plan-shape warnings.
* :func:`verify_plan` / :class:`PlanVerifier` — structural invariants of
  a compiled physical operator tree, planner-independent.
* :class:`EmbeddingSanitizer` / :func:`validate_embedding` — opt-in
  instrumented execution validating every embedding crossing an operator
  boundary against the §3.3 byte layout and the morphism semantics.
* :func:`differential_check` and :func:`audit_estimates` — dynamic
  cross-planner result comparison and per-operator cardinality q-error.
* :func:`verify_flow` / :class:`FlowReport` — the *static* layout-flow
  verifier (S3xx, ``repro flowcheck``): abstract interpretation over a
  physical plan proving at compile time the §3.3 byte-layout contracts
  the sanitizer checks per-embedding at runtime.
* :func:`classify_callable` / :func:`certify_chain` — the UDF
  shippability analyzer (P4xx): closure introspection + AST analysis
  deciding whether the callables in dataflow operators and fused chains
  can be shipped to worker processes.
* :func:`verify_liveness` / :func:`certify_plan` — the backward duals
  (S4xx, ``repro livecheck``): liveness propagates the RETURN clause's
  demand down the plan to find dead columns, dead property bytes and
  never-read path hops (the independent check on the planner's own
  property demand), and the cost-bound analyzer
  composes per-operator worst-case cardinality/byte bounds into the
  :class:`CostCertificate` the serving layer's admission control
  consults.
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
from .verifier import (
    PlanVerificationError,
    PlanVerifier,
    Violation,
    verify_plan,
)
# The sanitizer imports the engine package; it must come after the
# verifier import above, which completes the engine's initialization.
from .sanitizer import (
    DEFAULT_SAMPLE_EVERY,
    EmbeddingSanitizer,
    SanitizerError,
    validate_embedding,
)
# flow only imports the engine inside its functions, but keeping it after
# the sanitizer preserves the same initialization story for readers.
from .flow import (
    EmbeddingLayout,
    FlowReport,
    FlowVerificationError,
    assert_flow,
    operator_span,
    verify_flow,
)
from .liveness import (
    Demand,
    LivenessReport,
    LivenessVerificationError,
    assert_liveness,
    verify_liveness,
)
from .costbound import (
    PROPERTY_RECORD_BOUND,
    CostCertificate,
    OperatorBound,
    certify_plan,
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
    audit_bound_soundness,
    audit_estimates,
    q_error,
)


__all__ = [
    "BLOCKING_CODES",
    "CODES",
    "CostCertificate",
    "DEFAULT_MAX_Q_ERROR",
    "DEFAULT_SAMPLE_EVERY",
    "Demand",
    "Diagnostic",
    "DifferentialReport",
    "EmbeddingLayout",
    "EmbeddingSanitizer",
    "EstimateAudit",
    "EstimateRecord",
    "FlowReport",
    "FlowVerificationError",
    "LivenessReport",
    "LivenessVerificationError",
    "OperatorBound",
    "PROPERTY_RECORD_BOUND",
    "PlanVerificationError",
    "PlanVerifier",
    "PlannerRun",
    "QueryLintError",
    "QueryLinter",
    "SanitizerError",
    "Severity",
    "ShippabilityError",
    "ShippabilityReport",
    "Violation",
    "analyze_callables",
    "analyze_chain",
    "analyze_dataflow",
    "assert_flow",
    "assert_liveness",
    "audit_bound_soundness",
    "audit_estimates",
    "certify_chain",
    "certify_plan",
    "classify_callable",
    "compare_runs",
    "differential_check",
    "fusion_differential_check",
    "iter_dataflow_udfs",
    "lint_query",
    "operator_span",
    "q_error",
    "sort_diagnostics",
    "validate_embedding",
    "verify_flow",
    "verify_liveness",
    "verify_plan",
]
