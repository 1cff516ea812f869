"""Structured diagnostics for the static query analyzer.

Every finding the linter (or verifier) produces is a :class:`Diagnostic`
with a **stable code** from the registry below, a severity, an optional
source span and a human-readable message.  Codes are stable API: tools
may filter or suppress on them, so existing codes never change meaning
(new ones are appended).

Code ranges:

* ``E1xx`` — semantic errors: the query can never be executed correctly.
* ``E2xx`` — satisfiability errors: the query executes but is provably
  empty from its predicates alone.
* ``W3xx`` — statistics warnings: empty or explosive against *this* data
  graph (requires :class:`~repro.engine.statistics.GraphStatistics`).
* ``W4xx`` — plan-shape warnings: legal but expensive or surprising.
* ``S2xx`` — sanitizer findings: runtime invariant violations caught by
  instrumented (sanitized) execution, the cross-planner differential
  checker and the cardinality-estimate audit.  Unlike the static ranges
  these carry no source span — they point at operators, not query text.
* ``C3xx`` — concurrency findings from the lock-discipline linter
  (``repro racecheck``, :mod:`repro.analysis.concurrency`): these point
  at *our own* Python source (``file:line`` in the message, no query
  span) — shared fields accessed outside their declared ``# guarded-by``
  lock, statically inferable lock-order inversions, blocking calls made
  while holding a lock, and locks created per call.
* ``S3xx`` — static plan findings from the plan analysis (``repro
  check``, :mod:`repro.analysis.plan`): ``S300`` reports a broken
  structural invariant of the operator tree, its rule name leading the
  message; ``S301``–``S306`` come from abstract interpretation over the
  compiled physical plan, which proves — or refutes — the §3.3
  byte-layout contracts the ``S2xx`` sanitizer checks per-embedding at
  runtime.  They point at plan operators, with the operator's source
  span where it has one.
* ``P4xx`` — UDF shippability findings (:mod:`repro.analysis.udfcheck`):
  closure introspection plus AST analysis over every callable installed
  into dataflow operators and fused chains, classifying it as
  process-shippable or not.  These point at Python callables
  (``module.qualname`` in the message) — the gate a chain must pass
  before multi-process execution may ship it to a worker.
* ``W5xx`` — wire-protocol findings (``repro wirecheck``,
  :mod:`repro.analysis.protocol` / :mod:`repro.analysis.model`): the
  parent↔worker message contract of the multi-process runtime, proven
  two ways.  ``W501``–``W505`` and ``W509`` come from the static
  wire-schema drift check (AST extraction of every message constructor,
  handler arm and record-batch format constant in
  :mod:`repro.dataflow.workers`, diffed against the declared
  :data:`~repro.dataflow.workers.messages.PIPES` /
  :data:`~repro.dataflow.workers.messages.FRAMES` vocabulary); ``W506``–
  ``W508`` come from the explicit-state model checker exhaustively
  exploring the interleavings of the cancel/done, spec-cache LRU,
  SPSC-ring and resident-eviction protocols.  These point at Python
  source or at a counterexample message trace, never at query text.
* ``S4xx`` — liveness findings (``repro check``,
  :mod:`repro.analysis.plan`): the backward dual of the ``S3xx`` layout
  rules.  Demand propagates from the plan root down to the leaves,
  flagging columns, property bytes and path contents an operator
  carries but no consumer ever reads (dead bytes are legal — warnings).
"""

import enum
from dataclasses import dataclass
from typing import Optional

from repro.cypher.errors import CypherSemanticError
from repro.cypher.span import Span


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __lt__(self, other):
        order = {"error": 0, "warning": 1, "info": 2}
        return order[self.value] < order[other.value]


#: code -> (severity, slug, summary). The authoritative registry; see
#: docs/analysis.md for examples of each.
CODES = {
    "E101": (Severity.ERROR, "unbound-variable",
             "WHERE references a variable not bound in MATCH"),
    "E102": (Severity.ERROR, "return-unbound-variable",
             "RETURN/ORDER BY references a variable not bound in MATCH"),
    "E103": (Severity.ERROR, "variable-kind-conflict",
             "one variable used for both a vertex and an edge"),
    "E104": (Severity.ERROR, "edge-variable-reused",
             "an edge variable bound by more than one relationship"),
    "E105": (Severity.ERROR, "type-mismatch",
             "comparison whose operand types can never be compatible"),
    "E201": (Severity.ERROR, "unsatisfiable-predicate",
             "conjunction of predicates no value can satisfy"),
    "E202": (Severity.ERROR, "conflicting-labels",
             "an element required to carry two different labels at once"),
    "W301": (Severity.WARNING, "unknown-vertex-label",
             "vertex label has zero instances in the graph statistics"),
    "W302": (Severity.WARNING, "unknown-edge-type",
             "edge type has zero instances in the graph statistics"),
    "W401": (Severity.WARNING, "cartesian-product",
             "disconnected pattern components multiply into a cross product"),
    "W402": (Severity.WARNING, "unbounded-path",
             "variable-length path without an upper bound is capped"),
    "W403": (Severity.WARNING, "shadowed-variable",
             "a RETURN alias shadows a different pattern variable"),
    "W404": (Severity.WARNING, "unused-variable",
             "a named pattern variable is never referenced"),
    "S201": (Severity.ERROR, "embedding-entry-width",
             "id_data length is not a multiple of the 9-byte entry width"),
    "S202": (Severity.ERROR, "embedding-column-count",
             "embedding column count disagrees with the operator metadata"),
    "S203": (Severity.ERROR, "embedding-bad-flag",
             "entry flag byte is neither ID nor PATH, or contradicts the "
             "metadata entry kind"),
    "S204": (Severity.ERROR, "embedding-dangling-path",
             "PATH entry offset does not land on a complete path_data record"),
    "S205": (Severity.ERROR, "embedding-path-bounds",
             "path element count is malformed or violates the declared "
             "*lower..upper bounds"),
    "S206": (Severity.ERROR, "embedding-prop-walk",
             "prop_data length fields do not walk exactly to the buffer end "
             "or a value fails to deserialize"),
    "S207": (Severity.ERROR, "embedding-prop-count",
             "deserialized property count disagrees with the operator "
             "metadata"),
    "S208": (Severity.ERROR, "embedding-morphism",
             "embedding violates the configured vertex/edge morphism "
             "strategy"),
    "S209": (Severity.ERROR, "operator-contract",
             "operator broke its output contract (join keys disagree "
             "byte-for-byte, projection altered a kept value)"),
    "S210": (Severity.ERROR, "planner-disagreement",
             "two planners returned different result multisets for one "
             "query"),
    "S211": (Severity.WARNING, "estimate-q-error",
             "cardinality estimate off from the actual count by more than "
             "the configured factor"),
    "C301": (Severity.ERROR, "unguarded-field-access",
             "shared field read or written without holding its declared "
             "guarded-by lock"),
    "C302": (Severity.ERROR, "lock-order-inversion",
             "two locks acquired in contradictory orders — a potential "
             "deadlock"),
    "C303": (Severity.ERROR, "blocking-call-under-lock",
             "blocking call (sleep, queue/future wait, I/O) made while "
             "holding a lock"),
    "C304": (Severity.ERROR, "per-call-lock",
             "lock created and acquired inside one call — it guards "
             "nothing"),
    "C305": (Severity.WARNING, "unknown-guard",
             "guarded-by annotation names a lock attribute the class does "
             "not define"),
    "C306": (Severity.ERROR, "blocking-ipc-under-lock",
             "pipe send/recv or ring wait performed while holding a "
             "pool-hierarchy lock"),
    "S300": (Severity.ERROR, "plan-structure",
             "the physical plan violates a structural invariant (the rule "
             "name leads the message)"),
    "S301": (Severity.ERROR, "layout-width-mismatch",
             "derived column count (merge width arithmetic) disagrees with "
             "the operator's declared metadata"),
    "S302": (Severity.ERROR, "layout-kind-mismatch",
             "derived entry kind or column order disagrees with the "
             "operator's declared metadata"),
    "S303": (Severity.ERROR, "layout-path-bounds",
             "path column with malformed or missing *lower..upper hop "
             "bounds"),
    "S304": (Severity.ERROR, "layout-property-mismatch",
             "derived property column sequence disagrees with the "
             "operator's declared property mapping"),
    "S305": (Severity.ERROR, "layout-morphism-unproven",
             "configured morphism strategy is not statically guaranteed at "
             "an operator boundary"),
    "S306": (Severity.ERROR, "layout-join-keys",
             "join key columns are statically incompatible (missing "
             "variable, kind conflict, path column, or unprojected key "
             "property)"),
    "P401": (Severity.ERROR, "captured-synchronization",
             "callable captures a lock, thread, thread-local or other "
             "synchronization primitive that cannot cross processes"),
    "P402": (Severity.ERROR, "captured-handle",
             "callable captures an open file, socket or generator bound to "
             "this process"),
    "P403": (Severity.ERROR, "shared-mutable-capture",
             "callable mutates captured state — workers would each mutate "
             "their own copy, diverging from single-process execution"),
    "P404": (Severity.ERROR, "nondeterministic-call",
             "callable invokes a nondeterministic or process-dependent "
             "function (time, random, uuid, thread identity)"),
    "P405": (Severity.ERROR, "unpicklable-cell",
             "callable captures a value that does not pickle — it cannot "
             "be shipped to a worker process"),
    "S401": (Severity.WARNING, "dead-column",
             "an id column is carried through the dataflow but never read "
             "by any downstream consumer"),
    "S402": (Severity.WARNING, "dead-property-bytes",
             "a property record is loaded into embeddings but never read "
             "downstream — dead prop_data bytes in every embedding"),
    "S403": (Severity.WARNING, "dead-path-hops",
             "path contents (the hop sequence) are carried but never read "
             "— only the column slot is required downstream"),
    "W501": (Severity.ERROR, "wire-tag-unhandled",
             "a message tag is sent on a pipe whose receiving side has "
             "no handler arm for it — the message would be silently "
             "dropped or crash the receiver"),
    "W502": (Severity.WARNING, "wire-tag-never-sent",
             "a handler arm matches a message tag no production sender "
             "ever constructs — dead protocol surface that hides drift"),
    "W503": (Severity.ERROR, "wire-arity-mismatch",
             "a send site or handler arm disagrees with the declared "
             "field count of its message tag"),
    "W504": (Severity.ERROR, "wire-unshippable-payload",
             "a message payload field fails the P4xx picklability "
             "analysis — it cannot cross the process boundary"),
    "W505": (Severity.ERROR, "wire-constant-drift",
             "a wire-contract constant is defined locally on one side "
             "of the pipe instead of imported from the shared module"),
    "W506": (Severity.ERROR, "protocol-deadlock",
             "the model checker reached a non-final state where no "
             "transition is enabled — the protocol can wedge"),
    "W507": (Severity.ERROR, "protocol-lost-message",
             "a reachable interleaving drops a message (bounded channel "
             "overflow or discard on an unmatched tag)"),
    "W508": (Severity.ERROR, "protocol-invariant-violation",
             "a reachable protocol state violates a declared safety "
             "invariant (cache desync, stale cancel mark, ring overlap)"),
    "W509": (Severity.ERROR, "wire-frame-drift",
             "a record-batch FORMAT_* constant disagrees with the "
             "declared frame table (messages.FRAMES) — undeclared, "
             "missing, or with a drifted tag byte"),
}

#: Codes the runner refuses to execute: the compiler would reject these
#: queries anyway.  Satisfiability errors (E1xx binding errors aside) stay
#: non-blocking — an unsatisfiable query is legal Cypher with an empty
#: result, and refusing it would change runtime behaviour.
BLOCKING_CODES = frozenset({"E101", "E102", "E103", "E104"})


@dataclass(frozen=True)
class Diagnostic:
    """One linter/verifier finding, renderable and machine-filterable."""

    code: str
    message: str
    severity: Severity = Severity.WARNING
    variable: Optional[str] = None
    span: Optional[Span] = None

    @classmethod
    def of(cls, code, message, variable=None, span=None):
        """Build a diagnostic, deriving the severity from the registry."""
        severity, _slug, _summary = CODES[code]
        return cls(code=code, message=message, severity=severity,
                   variable=variable, span=span)

    @property
    def slug(self):
        return CODES[self.code][1]

    @property
    def is_error(self):
        return self.severity is Severity.ERROR

    @property
    def is_blocking(self):
        """True when the runner must refuse to execute the query."""
        return self.code in BLOCKING_CODES

    def format(self, query_text=None):
        """``error[E101] unbound-variable: ... (line 1, column 7)``.

        With ``query_text`` the location moves into a rustc-style excerpt
        (line-number gutter + caret underline) below the message.
        """
        show_excerpt = query_text is not None and self.span is not None
        location = (
            " (%s)" % self.span
            if self.span is not None and not show_excerpt
            else ""
        )
        line = "%s[%s] %s: %s%s" % (
            self.severity.value, self.code, self.slug, self.message, location
        )
        if show_excerpt:
            line += "\n" + self.span.excerpt(query_text)
        return line

    def __str__(self):
        return self.format()


class QueryLintError(CypherSemanticError):
    """Raised by the runner when linting finds error-severity diagnostics.

    Subclasses :class:`~repro.cypher.errors.CypherSemanticError` so callers
    that handle semantic errors keep working when the linter reports the
    problem first; ``diagnostics`` carries the structured findings.
    """

    def __init__(self, diagnostics, query_text=None):
        diagnostics = list(diagnostics)
        lines = ["query failed lint with %d error(s):" % sum(
            1 for d in diagnostics if d.is_error
        )]
        lines += ["  " + d.format(query_text) for d in diagnostics]
        super().__init__("\n".join(lines))
        self.diagnostics = diagnostics


def sort_diagnostics(diagnostics):
    """Errors first, then by source position, then by code."""
    return sorted(
        diagnostics,
        key=lambda d: (
            d.severity,
            d.span.offset if d.span is not None else 1 << 30,
            d.code,
        ),
    )
