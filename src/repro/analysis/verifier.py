"""Physical-plan verifier: structural invariants of operator trees.

Planners are the most bug-prone layer of the pipeline — join ordering,
column book-keeping and predicate push-down all mutate
:class:`~repro.engine.embedding.EmbeddingMetaData` incrementally, and a
single off-by-one silently produces wrong answers instead of crashing.
The verifier walks any plan tree (from the greedy, exhaustive or naive
planner alike) and checks the invariants every correct plan satisfies:

* metadata is present and its columns form a contiguous ``0..n-1`` range
  with valid entry kinds;
* every operator passes the structural self-check it states for itself
  (:meth:`PhysicalOperator.check_structure`) — every variable is bound
  exactly once: binary operators introduce no accidental rebinding
  beyond their declared join variables, expands bind a fresh end vertex
  (unless closing) and a fresh edge; filters only reference variables
  and properties their input provides;
* the root binds every query variable with the right kind and retains
  every property the RETURN clause will read;
* morphism strategies are consistent across the whole tree;
* cardinality estimates are present, finite and non-negative.

``verify_plan`` raises :class:`PlanVerificationError` listing every
violation; :class:`PlanVerifier` returns them for programmatic use.
"""

import math

from repro.cypher.ast import FunctionCall, PropertyAccess

_VALID_KINDS = {"v", "e", "p"}


class PlanVerificationError(AssertionError):
    """A physical plan violates a structural invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = ["physical plan failed verification:"]
        lines += ["  - %s" % violation for violation in self.violations]
        super().__init__("\n".join(lines))


class Violation:
    """One broken invariant: a stable rule name plus operator context."""

    __slots__ = ("rule", "operator", "detail")

    def __init__(self, rule, operator, detail):
        self.rule = rule
        self.operator = operator
        self.detail = detail

    def __str__(self):
        return "[%s] %s: %s" % (self.rule, self.operator, self.detail)

    def __repr__(self):
        return "Violation(%r, %r, %r)" % (self.rule, self.operator, self.detail)


def verify_plan(root, handler=None, vertex_strategy=None, edge_strategy=None):
    """Verify ``root``; raises :class:`PlanVerificationError` on violation.

    ``handler`` enables the whole-query checks (root coverage, RETURN
    property retention); the strategy arguments pin the expected morphism
    configuration when given.
    """
    violations = PlanVerifier(
        handler=handler,
        vertex_strategy=vertex_strategy,
        edge_strategy=edge_strategy,
    ).verify(root)
    if violations:
        raise PlanVerificationError(violations)
    return True


class PlanVerifier:
    """Collects invariant violations from a physical plan tree."""

    def __init__(self, handler=None, vertex_strategy=None, edge_strategy=None):
        self.handler = handler
        self.vertex_strategy = vertex_strategy
        self.edge_strategy = edge_strategy
        self._violations = []
        self._strategies = set()

    def verify(self, root):
        """All violations in the tree under (and including) ``root``."""
        self._violations = []
        self._strategies = set()
        for op in root.postorder():
            self._check_meta(op)
            self._check_cardinality(op)
            # the self-checks are stated against the inputs' metadata; an
            # input without any was already reported at its own node
            if all(child.meta is not None for child in op.children):
                op.check_structure(
                    lambda rule, detail, op=op: self._flag(rule, op, detail)
                )
            if op.vertex_strategy is not None:
                self._strategies.add((op.vertex_strategy, op.edge_strategy))
        self._check_strategies(root)
        if self.handler is not None:
            self._check_root(root)
        return list(self._violations)

    def _flag(self, rule, op, detail):
        self._violations.append(Violation(rule, op.describe(), detail))

    # Invariants of every operator -----------------------------------------------

    def _check_meta(self, op):
        meta = op.meta
        if meta is None:
            self._flag("meta-missing", op, "operator has no EmbeddingMetaData")
            return
        columns = sorted(meta.entry_column(v) for v in meta.variables)
        if columns != list(range(len(columns))):
            self._flag(
                "meta-columns", op,
                "entry columns %s are not the contiguous range 0..%d"
                % (columns, len(columns) - 1),
            )
        for variable in meta.variables:
            kind = meta.entry_kind(variable)
            if kind not in _VALID_KINDS:
                self._flag(
                    "meta-kind", op,
                    "variable %r has invalid kind %r" % (variable, kind),
                )
        for index, (variable, key) in enumerate(meta.property_entries()):
            if not meta.has_variable(variable):
                self._flag(
                    "meta-property-orphan", op,
                    "property %s.%s has no backing variable entry"
                    % (variable, key),
                )
            if meta.property_index(variable, key) != index:
                self._flag(
                    "meta-property-index", op,
                    "property %s.%s maps to index %d, expected %d"
                    % (variable, key, meta.property_index(variable, key), index),
                )

    def _check_cardinality(self, op):
        estimate = op.estimated_cardinality
        if estimate is None:
            self._flag(
                "cardinality-missing", op,
                "planner left no cardinality estimate",
            )
            return
        if not math.isfinite(estimate) or estimate < 0:
            self._flag(
                "cardinality-invalid", op,
                "estimate %r is not a finite non-negative number" % estimate,
            )

    # Whole-plan invariants ------------------------------------------------------

    def _check_strategies(self, root):
        if len(self._strategies) > 1:
            self._flag(
                "morphism-inconsistent", root,
                "operators disagree on morphism strategies: %s"
                % sorted(
                    (v.name, e.name) for v, e in self._strategies
                ),
            )
        if self._strategies and (
            self.vertex_strategy is not None or self.edge_strategy is not None
        ):
            vertex, edge = next(iter(self._strategies))
            if self.vertex_strategy is not None and vertex != self.vertex_strategy:
                self._flag(
                    "morphism-inconsistent", root,
                    "plan uses vertex strategy %s, runner configured %s"
                    % (vertex.name, self.vertex_strategy.name),
                )
            if self.edge_strategy is not None and edge != self.edge_strategy:
                self._flag(
                    "morphism-inconsistent", root,
                    "plan uses edge strategy %s, runner configured %s"
                    % (edge.name, self.edge_strategy.name),
                )

    def _check_root(self, root):
        meta = root.meta
        if meta is None:
            return
        handler = self.handler
        bound = set(meta.variables)
        for variable in handler.vertices:
            if variable not in bound:
                self._flag(
                    "variable-unbound", root,
                    "query vertex %r is not bound by the plan root" % variable,
                )
            elif meta.entry_kind(variable) != "v":
                self._flag(
                    "binding-kind-mismatch", root,
                    "vertex %r bound as kind %r"
                    % (variable, meta.entry_kind(variable)),
                )
        for variable, edge in handler.edges.items():
            expected = "p" if edge.is_variable_length else "e"
            if variable not in bound:
                self._flag(
                    "variable-unbound", root,
                    "query edge %r is not bound by the plan root" % variable,
                )
            elif meta.entry_kind(variable) != expected:
                self._flag(
                    "binding-kind-mismatch", root,
                    "edge %r bound as kind %r, expected %r"
                    % (variable, meta.entry_kind(variable), expected),
                )
        returns = handler.ast.returns
        if returns is None:
            return
        expressions = [item.expression for item in returns.items]
        expressions += [order.expression for order in returns.order_by]
        for expression in expressions:
            if isinstance(expression, FunctionCall):
                expression = expression.argument
            if not isinstance(expression, PropertyAccess):
                continue
            variable, key = expression.variable, expression.key
            if variable not in bound or meta.entry_kind(variable) == "p":
                continue
            if not meta.has_property(variable, key):
                self._flag(
                    "return-property-dropped", root,
                    "RETURN reads %s.%s which the root does not retain"
                    % (variable, key),
                )
